"""Deterministic generators for the graph families used in experiments and audits."""

from __future__ import annotations

from operator import add

from .graph import _chords_cross, build_graph


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m, n):
    if m < 1 or n < 1:
        raise ValueError("complete_bipartite needs m, n >= 1")
    return build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def caterpillar(leaf_counts):
    """Spine path s_0..s_{p-1} with leaf_counts[i] pendant leaves at s_i."""
    p = len(leaf_counts)
    if p < 1:
        raise ValueError("caterpillar needs a nonempty spine")
    if min(leaf_counts) < 0:
        raise ValueError(f"leaf counts must be >= 0, got {list(leaf_counts)}")
    edges = [(i, i + 1) for i in range(p - 1)]
    nxt = p
    for i, c in enumerate(leaf_counts):
        for _ in range(c):
            edges.append((i, nxt))
            nxt += 1
    return build_graph(nxt, edges)


def t_hat():
    """The 7-vertex spider with three legs of length two (hub = vertex 0)."""
    return build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def g_k(m, k):
    """Three mutually joined m-cliques plus three pendant paths of k vertices.

    X_i = {(i-1)m .. im-1}, all 3m clique vertices pairwise adjacent; path i
    starts at 3m+(i-1)k, its first vertex adjacent to every vertex of X_i.
    3m+3k vertices, diameter 2k+1.
    """
    if m < 3 or k < 1:
        raise ValueError("g_k needs m >= 3 and k >= 1")
    edges = [(i, j) for i in range(3 * m) for j in range(i + 1, 3 * m)]
    for i in range(3):
        start = 3 * m + i * k
        for x in range(i * m, (i + 1) * m):
            edges.append((x, start))
        for j in range(k - 1):
            edges.append((start + j, start + j + 1))
    return build_graph(3 * m + 3 * k, edges)


def _eccentric_leaf(g, hub):
    d = g.distances()[hub]
    far = max(d)
    return min(v for v in range(g.n) if d[v] == far)


def t_family(m, attach="hub"):
    """Canonical member of the m-th spider family: K_1 at m=1, then a fresh
    claw whose leaves each attach to the previous canonical member.

    attach="hub" joins y_i to the hub (vertex 0) of each copy; attach="eccentric"
    joins it to a deepest leaf instead (diameter experiments). Vertex counts
    follow |T_m| = 3|T_{m-1}| + 4.
    """
    if m < 1:
        raise ValueError("t_family needs m >= 1")
    if attach not in ("hub", "eccentric"):
        raise ValueError(f"unknown attach mode {attach!r}")
    if m == 1:
        return build_graph(1, [])
    sub = t_family(m - 1, attach)
    point = 0 if attach == "hub" else _eccentric_leaf(sub, 0)
    edges = [(0, 1), (0, 2), (0, 3)]
    for i in range(3):
        off = 4 + i * sub.n
        edges.extend((off + u, off + v) for u, v in sub.edges)
        edges.append((i + 1, off + point))
    return build_graph(4 + 3 * sub.n, edges)


def tree_diam10():
    """34-vertex tree: each leaf of the 7-vertex spider becomes the center of a
    claw with every edge subdivided twice. Diameter 10."""
    g = t_hat()
    edges = list(g.edges)
    nxt = g.n
    for leaf in (2, 4, 6):
        for _ in range(3):
            edges.extend([(leaf, nxt), (nxt, nxt + 1), (nxt + 1, nxt + 2)])
            nxt += 3
    return build_graph(nxt, edges)


def subdivide(g, t):
    """Replace every edge with a path through t fresh internal vertices."""
    if t < 0:
        raise ValueError("subdivision count must be >= 0")
    if t == 0:
        return g
    edges = []
    nxt = g.n
    for u, v in g.edges:
        chain = [u] + list(range(nxt, nxt + t)) + [v]
        nxt += t
        edges.extend(zip(chain, chain[1:]))
    return build_graph(nxt, edges)


def all_trees(n):
    """All non-isomorphic trees on n vertices (n <= 12), deterministic order.

    The trees, their labels and their order are those of networkx's
    `nonisomorphic_trees(n)`, which the audit rows pin; see
    `_free_tree_layouts`.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 12:
        raise ValueError("tree enumeration capped at n = 12")
    if n == 1:
        return [build_graph(1, [])]
    return [build_graph(n, _layout_edges(lay)) for lay in _free_tree_layouts(n)]


def _free_tree_layouts(n):
    """Level sequences of the free trees on n >= 2 vertices, in the order of
    networkx's `nonisomorphic_trees(n)`.

    A level sequence lists each vertex's depth in a preorder walk of the
    tree rooted at vertex 0.  This is the generator of Wright, Richmond,
    Odlyzko and McKay ("Constant time generation of free trees", SIAM J.
    Comput. 15, 1986) as networkx 3.x writes it in
    networkx/generators/nonisomorphic_trees.py (BSD-3-Clause, copyright
    NetworkX Developers).  It and its helpers below follow that code step
    by step, because the audit rows pin the labelled trees it yields and
    their order; tests/test_families.py checks them against networkx for
    n <= 12.
    """
    # start at the path rooted at its centre
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _next_tree(layout)
        if layout is not None:
            yield layout
            layout = _next_rooted_tree(layout)


def _next_rooted_tree(predecessor, p=None):
    """One step of Beyer and Hedetniemi's rooted-tree successor, or None
    after the last one (p, when given, is the position to advance)."""
    if p is None:
        p = len(predecessor) - 1
        while predecessor[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while predecessor[q] != predecessor[p] - 1:
        q -= 1
    result = list(predecessor)
    for i in range(p, len(result)):
        result[i] = result[i - p + q]
    return result


def _next_tree(candidate):
    """candidate when it is the canonical layout of a free tree, else the
    next layout to try after skipping the invalid ones it heads."""
    # valid when the root's left subtree is no higher than the rest of the
    # tree, and, at equal heights, no larger, and at equal sizes not later
    # lexicographically
    left, rest = _split_tree(candidate)
    left_height = max(left)
    rest_height = max(rest)
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return candidate
    p = len(left)
    new_candidate = _next_rooted_tree(candidate, p)
    if candidate[p] > 2:
        new_left, _ = _split_tree(new_candidate)
        suffix = range(1, max(new_left) + 2)
        new_candidate[-len(suffix):] = suffix
    return new_candidate


def _split_tree(layout):
    """(the root's left subtree, the tree without it), as layouts."""
    ones = [i for i, level in enumerate(layout) if level == 1]
    m = ones[1] if len(ones) > 1 else len(layout)
    left = [layout[i] - 1 for i in range(1, m)]
    rest = [0] + layout[m:]
    return left, rest


def _layout_edges(layout):
    """The tree's edges: each vertex joins the nearest earlier vertex one
    level up."""
    edges = []
    stack = []
    for i, level in enumerate(layout):
        while stack and layout[stack[-1]] >= level:
            stack.pop()
        if stack:
            edges.append((stack[-1], i))
        stack.append(i)
    return edges


def all_two_connected_outerplanar(n):
    """All 2-connected outerplanar graphs on n vertices (3 <= n <= 10), as
    non-crossing chord sets over the n-cycle deduplicated by dihedral symmetry.

    Chords are indexed in lexicographic order and chord k weighs
    2^(C-1-k), so among chord sets of one size the lexicographically least
    sorted chord tuple has the largest weight.  A set is kept iff no
    rotation or reflection of it weighs more, which keeps exactly one set
    per symmetry class; each set's weight under all 2n symmetries is carried
    along the enumeration.
    """
    if not 3 <= n <= 10:
        raise ValueError("outerplanar enumeration supports 3 <= n <= 10")
    chords = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    top = len(chords) - 1
    index = {c: k for k, c in enumerate(chords)}
    # weight of each chord's image under every symmetry, identity first
    images = []
    for u, v in chords:
        row = []
        for refl in (False, True):
            a, b = ((n - u) % n, (n - v) % n) if refl else (u, v)
            for r in range(n):
                x, y = (a + r) % n, (b + r) % n
                row.append(1 << (top - index[(min(x, y), max(x, y))]))
        images.append(row)
    crossing = [
        sum(1 << m for m, (c, d) in enumerate(chords) if _chords_cross(a, b, c, d))
        for a, b in chords
    ]

    keep = []
    # (chosen chord indices, weight per symmetry, next index, crossed chords)
    stack = [((), (0,) * (2 * n), 0, 0)]
    while stack:
        chosen, weights, start, crossed = stack.pop()
        if weights[0] == max(weights):
            keep.append(tuple(chords[k] for k in chosen))
        for k in range(start, len(chords)):
            if not crossed >> k & 1:
                stack.append((
                    chosen + (k,),
                    tuple(map(add, weights, images[k])),
                    k + 1,
                    crossed | crossing[k],
                ))
    out = []
    for key in sorted(keep):
        edges = [(i, (i + 1) % n) for i in range(n)] + list(key)
        out.append(build_graph(n, edges))
    return out

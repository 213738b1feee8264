"""Immutable graph substrate: distances, structure tests, matchings,
automorphisms, embeddings.

Everything computed from the graph alone is owned here and memoised on
the `Graph`, so every game table, policy and audit row over one graph
shares it: the closed-neighbourhood masks and their growth tables, the
automorphism generators, the orbit frames of cop tuples with their
relabelling tables, and the maximum matching.  Each is computed on first
use.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass


class Graph:
    """Undirected simple connected graph on vertices 0..n-1.

    All-pairs distances are computed eagerly at construction (every game step
    queries them); disconnected input is rejected outright so every distance
    entry is finite.
    """

    __slots__ = (
        "n", "adj", "edges", "dist_matrix", "_nbr_mask", "_growth",
        "_matching", "_automorphisms", "_frames", "_frame_tables",
    )

    def __init__(self, n, edges):
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        seen = set()
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self.edges = tuple(sorted(seen))
        mat = []
        for s in range(n):
            dist = [-1] * n
            dist[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                for w in self.adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        q.append(w)
            if s == 0 and min(dist) < 0:
                bad = dist.index(-1)
                raise ValueError(
                    f"graph must be connected (vertex {bad} unreachable from 0)"
                )
            mat.append(tuple(dist))
        self.dist_matrix = tuple(mat)
        self._nbr_mask = self._growth = self._matching = None
        self._automorphisms = self._frames = self._frame_tables = None

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def distances(self):
        """All-pairs hop-count matrix (tuple of tuples)."""
        return self.dist_matrix

    def neighbor_masks(self):
        """Closed-neighborhood bitmasks, used by the belief engine."""
        if self._nbr_mask is None:
            self._nbr_mask = tuple(
                (1 << v) | sum(1 << w for w in self.adj[v]) for v in range(self.n)
            )
        return self._nbr_mask

    def growth(self):
        """`growth_tables` of the closed-neighborhood masks: a belief grows
        by one robber step through them."""
        if self._growth is None:
            self._growth = growth_tables(self.neighbor_masks())
        return self._growth

    def has_edge(self, u, v):
        return u != v and self.neighbor_masks()[u] >> v & 1 == 1

    def degree(self, v):
        return len(self.adj[v])

    def automorphisms(self):
        """Generators of the automorphism group, from
        `automorphism_generators`, found once per graph; () when the group
        is trivial."""
        if self._automorphisms is None:
            self._automorphisms = automorphism_generators(self)
        return self._automorphisms

    def frame(self, cops):
        """(representative, frame) of a sorted cop tuple.

        The representative is the least sorted image of the tuple under the
        automorphism group; the frame is one fixed automorphism carrying the
        tuple onto it, a tuple p with p[v] the image of v, or None when the
        tuple is its own representative.  Every tuple of an orbit gets its
        pair when the orbit is first asked for: a search over the generators
        finds the orbit and so its representative, and a second one from the
        representative gives each tuple y = p(x) reached through a generator
        p the frame of x after the inverse of p.  A trivial group makes
        every tuple its own representative without a search.
        """
        gens = self.automorphisms()
        if not gens:
            return cops, None
        if self._frames is None:
            self._frames = {}
        pair = self._frames.get(cops)
        if pair is None:
            orbit = {cops}
            queue = [cops]
            for x in queue:
                for p in gens:
                    y = tuple(sorted([p[c] for c in x]))
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
            rep = min(orbit)
            onto = {rep: tuple(range(self.n))}
            queue = [rep]
            for x in queue:
                fx = onto[x]
                for p in gens:
                    y = tuple(sorted([p[c] for c in x]))
                    if y not in onto:
                        fy = [0] * self.n
                        for v, u in enumerate(p):
                            fy[u] = fx[v]
                        onto[y] = tuple(fy)
                        queue.append(y)
            for x, fx in onto.items():
                self._frames[x] = (rep, None if x == rep else fx)
            pair = self._frames[cops]
        return pair

    def frame_tables(self, frame):
        """The `growth_tables` that relabel a mask by the permutation
        `frame`: entry x of table j is the image of the set bits b of x at
        4j + b."""
        if self._frame_tables is None:
            self._frame_tables = {}
        tables = self._frame_tables.get(frame)
        if tables is None:
            tables = self._frame_tables[frame] = growth_tables(
                [1 << u for u in frame]
            )
        return tables


def growth_tables(nbr):
    """Closed-neighborhood unions per 4-bit chunk of a belief mask.

    Entry x of table j is the union of nbr[4j + b] over the set bits b of x,
    so a mask grows by ceil(n/4) lookups instead of one per vertex.  The
    last table is shorter when 4 does not divide n.  With nbr[v] = 1 << p[v]
    for a permutation p, the tables relabel a mask by p instead.
    """
    tables = []
    for base in range(0, len(nbr), 4):
        tab = [0]
        for m in nbr[base:base + 4]:
            tab += [x | m for x in tab]
        tables.append(tab)
    return tables


def chunk_union(tables, mask):
    """The union, through `growth_tables` tables, of the masks behind the
    set bits of mask."""
    out = 0
    for tab in tables:
        if not mask:
            break
        out |= tab[mask & 15]
        mask >>= 4
    return out


def build_graph(n, edges):
    """Validate and build a Graph; duplicate edges are collapsed, loops rejected."""
    return Graph(n, edges)


def eccentricities(g):
    return tuple(max(row) for row in g.distances())


def diameter(g):
    return max(eccentricities(g))


def radius(g):
    return min(eccentricities(g))


def is_tree(g):
    return len(g.edges) == g.n - 1


def is_caterpillar(g):
    """Tree whose non-leaf vertices induce a path (K_1 and K_2 count).

    They always induce a subtree, which is a path exactly when none of
    them has more than two non-leaf neighbours."""
    return is_tree(g) and all(
        sum(g.degree(w) >= 2 for w in g.adj[v]) <= 2 for v in range(g.n)
    )


def _refine(adj, colors):
    """The coarsest equitable refinement of an ordered colouring, and its
    quotient.

    Colours are cell ranks 0..k-1.  Each round splits every cell by the
    sorted colours of its vertices' neighbours, the parts ordered by that
    signature, until no cell splits; the quotient is the sorted tuple of
    the last round's signatures, each a vertex's colour followed by its
    neighbours' sorted colours.  Relabelling the graph relabels the result
    the same way and leaves the quotient unchanged.
    """
    k = len(set(colors))
    while True:
        at = colors.__getitem__
        sigs = [(c, *sorted(map(at, nb))) for c, nb in zip(colors, adj)]
        order = sorted(set(sigs))
        if len(order) == k:
            return colors, tuple(order)
        rank = {s: i for i, s in enumerate(order)}
        colors = [rank[s] for s in sigs]
        k = len(order)


def _individualize(colors, v):
    """v's cell split into v first, then the rest."""
    c = colors[v]
    return [x + (x > c or (x == c and u != v)) for u, x in enumerate(colors)]


def _target_cell(colors):
    """The vertices of the lowest-ranked cell with more than one vertex."""
    counts = [0] * len(colors)
    for c in colors:
        counts[c] += 1
    t = next(c for c, size in enumerate(counts) if size > 1)
    return [v for v, c in enumerate(colors) if c == t]


def _root(parent, x):
    """x's orbit in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def automorphism_generators(g):
    """Generators of g's automorphism group, each a tuple p with p[v] the
    image of v; () when the group is trivial.

    Individualization-refinement with orbit pruning on the first path
    (McKay and Piperno, "Practical graph isomorphism, II", 2014).  The
    first path individualizes the least vertex of the target cell until the
    equitable colouring is discrete.  Its levels are then taken deepest
    first.  At each, a vertex of the target cell is tried unless the
    generators found so far put it in an orbit with the first path's vertex
    or with a vertex already tried: its subtree is searched for a leaf
    whose map from the first leaf is an automorphism, pruning every node
    whose quotient differs from the first path's at its depth.  A level's
    generators fix the earlier path vertices, so the orbit of its path
    vertex is a basic orbit, and the group's order is the product of their
    sizes.  Each generator is checked to preserve the edge set before it is
    kept, so a generator the search missed costs only reduction, never
    soundness.
    """
    n, adj = g.n, g.adj
    colors, quotient = _refine(adj, [0] * n)
    path, quotients = [], [quotient]
    while len(quotient) < n:
        path.append(colors)
        colors, quotient = _refine(
            adj, _individualize(colors, _target_cell(colors)[0])
        )
        quotients.append(quotient)
    first_leaf = colors

    def leaf_map(colors):
        at = [0] * n
        for v, c in enumerate(colors):
            at[c] = v
        p = tuple(at[c] for c in first_leaf)
        for u, v in g.edges:
            if not g.has_edge(p[u], p[v]):
                return None
        return p

    def search(colors, level, v):
        """An automorphism taking the first leaf to a leaf below the node
        that individualizes v at this depth, or None: a depth-first search
        (iterative, so it leaves no reference cycle)."""
        stack = [(colors, level, v)]
        while stack:
            colors, level, v = stack.pop()
            colors, quotient = _refine(adj, _individualize(colors, v))
            level += 1
            if quotient != quotients[level]:
                continue
            if level == len(path):
                found = leaf_map(colors)
                if found:
                    return found
                continue
            stack.extend(
                (colors, level, u) for u in reversed(_target_cell(colors))
            )
        return None

    gens = []
    orbits = list(range(n))  # union-find over the generators' orbits
    for level in reversed(range(len(path))):
        colors = path[level]
        cell = _target_cell(colors)
        tried = [cell[0]]
        for v in cell[1:]:
            if _root(orbits, v) in {_root(orbits, u) for u in tried}:
                continue
            found = search(colors, level, v)
            if found:
                gens.append(found)
                for u in range(n):
                    a, b = _root(orbits, u), _root(orbits, found[u])
                    orbits[max(a, b)] = min(a, b)
            tried.append(v)
    return tuple(gens)


@dataclass(frozen=True)
class Matching:
    edges: tuple
    n: int

    @property
    def size(self):
        return len(self.edges)

    @property
    def is_perfect(self):
        return 2 * len(self.edges) == self.n


def maximum_matching(g):
    """Maximum-cardinality matching, from `_blossom_matching` and checked
    by `_check_tutte_berge`.

    Computed once per graph: the matching-bound audit reads it and then
    builds `matching_policy` from it.
    """
    if g._matching is None:
        edges, barrier = _blossom_matching(g)
        _check_tutte_berge(g, edges, barrier)
        g._matching = Matching(edges=edges, n=g.n)
    return g._matching


def _blossom_matching(g):
    """A maximum matching of g, as sorted (u, v) pairs with u < v, and the
    T-labelled vertices of the last stage, a Tutte-Berge barrier.

    Edmonds' blossom algorithm ("Paths, trees, and flowers", 1965) as
    networkx 3.x writes it in `max_weight_matching(G, maxcardinality=True)`
    (networkx/algorithms/matching.py, BSD-3-Clause, copyright NetworkX
    Developers), for unit weights.  It follows that code step by step,
    because the audit rows pin the matching it returns.  With unit weights
    every edge is tight from the start and the duals move only in the stage
    that finds no augmenting path, the last one; so every stage starts with
    no blossoms, and networkx's slack bookkeeping, its delta steps of types
    2-4 and its T-blossoms never come into play.  What is left: each stage
    labels the exposed vertices S in vertex order, pops its queue from the
    end, scans neighbours in ascending order (networkx's insertion order for
    sorted edges), and after augmenting expands every blossom, here by
    starting the next stage afresh.  tests/test_graph.py checks the edge
    sets against networkx.
    """
    mate = [None] * g.n
    while True:
        stage = _BlossomStage(g.adj, mate)
        if not stage.augment_once():
            edges = tuple(
                (v, w) for v, w in enumerate(mate) if w is not None and v < w
            )
            return edges, stage.barrier()


class _BlossomStage:
    """One stage of `_blossom_matching`: grow alternating trees from the
    exposed vertices until an augmenting path turns up.

    Blossoms are ids n, n+1, ... in the order the stage makes them; a
    vertex is its own trivial blossom.  `label[b]` of a top-level blossom
    is 1 for S, 2 for T and 5 for S with a breadcrumb of `scan`;
    `labeledge[b] = (v, w)`, w in b, is the edge through which b got its
    label, None for an exposed base.
    """

    def __init__(self, adj, mate):
        n = len(adj)
        self.n, self.adj, self.mate = n, adj, mate
        self.label, self.labeledge, self.queue = {}, {}, []
        self.inblossom = list(range(n))
        self.parent = [None] * n
        self.base = list(range(n))
        # a blossom's sub-blossoms from its base round the cycle, and the
        # edges joining each to the next
        self.childs, self.cedges = [None] * n, [None] * n

    def augment_once(self):
        """Augment the matching along one path, or return False when there
        is none."""
        adj, mate, label, inblossom = self.adj, self.mate, self.label, self.inblossom
        queue = self.queue
        for v in range(self.n):
            if mate[v] is None:
                self.assign_s(v, None)
        while queue:
            v = queue.pop()
            for w in adj[v]:
                bw = inblossom[w]
                if inblossom[v] == bw:
                    continue
                lw = label.get(bw)
                if lw is None:
                    # w is free: label it T and its mate S
                    label[w] = 2
                    self.labeledge[w] = (v, w)
                    self.assign_s(mate[w], w)
                elif lw == 1:
                    at = self.scan(v, w)
                    if at is None:
                        self.augment(v, w)
                        return True
                    self.add_blossom(at, v, w)
        return False

    def barrier(self):
        """The T-labelled vertices, once `augment_once` has failed."""
        return tuple(
            v for v in range(self.n) if self.label.get(self.inblossom[v]) == 2
        )

    def assign_s(self, w, v):
        self.label[w] = 1
        self.labeledge[w] = None if v is None else (v, w)
        self.queue.append(w)

    def scan(self, v, w):
        """The base of the blossom closed by edge vw, or None when the edge
        joins two alternating trees (an augmenting path)."""
        label, labeledge, inblossom = self.label, self.labeledge, self.inblossom
        path, found = [], None
        while v is not None:
            b = inblossom[v]
            if label[b] & 4:
                found = self.base[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = None
            else:
                # through b's T-labelled mate, to the edge that labelled it
                v = labeledge[inblossom[labeledge[b][0]]][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def leaves(self, b):
        stack = [*self.childs[b]]
        while stack:
            t = stack.pop()
            if t >= self.n:
                stack.extend(self.childs[t])
            else:
                yield t

    def add_blossom(self, at, v, w):
        """Make the S-blossom closed by edge vw, based at vertex `at`, and
        queue its vertices that were T."""
        label, labeledge, inblossom = self.label, self.labeledge, self.inblossom
        parent = self.parent
        bb, bv, bw = inblossom[at], inblossom[v], inblossom[w]
        b = len(self.base)
        self.base.append(at)
        parent.append(None)
        parent[bb] = b
        path, edges = [], [(v, w)]
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            edges.append(labeledge[bv])
            bv = inblossom[labeledge[bv][0]]
        path.append(bb)
        path.reverse()
        edges.reverse()
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            edges.append((labeledge[bw][1], labeledge[bw][0]))
            bw = inblossom[labeledge[bw][0]]
        self.childs.append(path)
        self.cedges.append(edges)
        label[b] = 1
        labeledge[b] = labeledge[bb]
        for x in self.leaves(b):
            if label[inblossom[x]] == 2:
                self.queue.append(x)
            inblossom[x] = b

    def augment_blossom(self, b, v):
        """Swap the matching along the even path in b from v to its base.

        networkx then rotates b's sub-blossoms to make v's the base; here
        every blossom is dropped once the stage augments, so nothing would
        read the rotation.  Recursion depth is at most the nesting depth of
        blossoms, below n/2."""
        n, mate = self.n, self.mate
        t = v
        while self.parent[t] != b:
            t = self.parent[t]
        if t >= n:
            self.augment_blossom(t, v)
        ch, ed = self.childs[b], self.cedges[b]
        i = j = ch.index(t)
        if i & 1:
            j -= len(ch)
            step = 1
        else:
            step = -1
        while j != 0:
            j += step
            t = ch[j]
            if step == 1:
                w, x = ed[j]
            else:
                x, w = ed[j - 1]
            if t >= n:
                self.augment_blossom(t, w)
            j += step
            t = ch[j]
            if t >= n:
                self.augment_blossom(t, x)
            mate[w] = x
            mate[x] = w

    def augment(self, v, w):
        """Swap the matching along the path through edge vw between the
        exposed roots of v's and w's trees."""
        labeledge, inblossom = self.labeledge, self.inblossom
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= self.n:
                    self.augment_blossom(bs, s)
                self.mate[s] = j
                if labeledge[bs] is None:
                    break
                # a T label sits on a single vertex, the mate of bs's base
                s, j = labeledge[labeledge[bs][0]]
                self.mate[j] = s


def _check_tutte_berge(g, edges, barrier):
    """Raise unless `edges` is a matching of g whose size meets the
    Tutte-Berge bound of `barrier`: 2|M| = n + |U| - odd(G - U), where
    odd(G - U) counts the components of odd size once U is deleted.  Every
    matching has 2|M| <= n + |U| - odd(G - U), so equality proves M
    maximum."""
    covered = [v for e in edges for v in e]
    matched = all(g.has_edge(u, v) for u, v in edges)
    if not matched or len(set(covered)) != len(covered):
        raise AssertionError(f"not a matching of the graph: {edges}")
    removed = set(barrier)
    odd = 0
    for s in range(g.n):
        if s in removed:
            continue
        removed.add(s)
        stack, size = [s], 0
        while stack:
            size += 1
            for w in g.adj[stack.pop()]:
                if w not in removed:
                    removed.add(w)
                    stack.append(w)
        odd += size & 1
    if 2 * len(edges) != g.n + len(barrier) - odd:
        raise AssertionError(
            f"matching of size {len(edges)} fails the Tutte-Berge bound of"
            f" barrier {barrier} ({odd} odd components)"
        )


def verify_retraction(g, h_vertices, mapping):
    """Check that mapping is a retraction of g onto the induced subgraph on h_vertices.

    mapping is a dict (or sequence) over all vertices of g; it must fix
    h_vertices pointwise, land inside h_vertices, and be a weak homomorphism:
    every edge uv of g has mapping[u] == mapping[v] or an induced edge between
    the images.
    """
    hset = set(h_vertices)
    f = dict(enumerate(mapping)) if not isinstance(mapping, dict) else mapping
    if set(f) != set(range(g.n)):
        return False
    for v in range(g.n):
        if f[v] not in hset:
            return False
    for v in hset:
        if f[v] != v:
            return False
    for u, v in g.edges:
        fu, fv = f[u], f[v]
        if fu != fv and not g.has_edge(fu, fv):
            return False
    return True


def _chords_cross(a, b, c, d):
    # arcs (a,b), (c,d) with a<b, c<d in cycle positions; strict interleave
    return (a < c < b < d) or (c < a < d < b)


def _noncrossing(cycle_pos, chords):
    arcs = []
    for u, v in chords:
        a, b = cycle_pos[u], cycle_pos[v]
        if a > b:
            a, b = b, a
        arcs.append((a, b))
    for (a, b), (c, d) in itertools.combinations(arcs, 2):
        if _chords_cross(a, b, c, d):
            return False
    return True


def _closed_embedding(g, path):
    """The outer cycle `path` (a Hamiltonian path) as a tuple, or None when
    its ends are not adjacent or the remaining edges cross."""
    n = g.n
    if not g.has_edge(path[-1], path[0]):
        return None
    cycle = tuple(path)
    pos = [0] * n
    for i, w in enumerate(cycle):
        pos[w] = i
    cyc_edges = set()
    for i, w in enumerate(cycle):
        x = cycle[(i + 1) % n]
        cyc_edges.add((min(w, x), max(w, x)))
    chords = [e for e in g.edges if e not in cyc_edges]
    return cycle if _noncrossing(pos, chords) else None


def find_outer_embedding(g):
    """Search for an outerplanar embedding: a Hamiltonian cycle, returned as
    a tuple of vertices, such that all remaining edges are pairwise
    non-crossing chords.

    Exponential backtracking over Hamiltonian paths from vertex 0, intended
    for n <= 16.  Returns None when no embedding exists, at once when the
    graph has more than the 2n - 3 edges an outerplanar graph can have.
    """
    n = g.n
    if n == 1:
        return (0,)
    if n == 2:
        return (0, 1) if g.edges else None
    if len(g.edges) > 2 * n - 3:
        return None
    adj = g.adj

    path = [0]
    used = [False] * n
    used[0] = True
    # untried neighbors of each path vertex, in exploration order
    options = [iter(adj[0])]
    while options:
        if len(path) == n:
            found = _closed_embedding(g, path)
            if found is not None:
                return found
            w = None
        else:
            w = next((w for w in options[-1] if not used[w]), None)
        if w is None:
            options.pop()
            used[path.pop()] = False
        else:
            used[w] = True
            path.append(w)
            options.append(iter(adj[w]))
    return None

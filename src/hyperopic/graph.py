"""Immutable graph substrate: distances, structure tests, matchings,
automorphisms, embeddings."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field


class Graph:
    """Undirected simple connected graph on vertices 0..n-1.

    All-pairs distances are computed eagerly at construction (every game step
    queries them); disconnected input is rejected outright so every distance
    entry is finite.
    """

    __slots__ = (
        "n", "adj", "edges", "dist_matrix", "_nbr_mask", "_matching",
        "_automorphisms", "_frames", "_frame_tables",
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
        self._nbr_mask = None
        self._matching = None
        self._automorphisms = None
        # cop-tuple orbits, filled by `TransitionTable.frame` for every rule
        self._frames = None
        self._frame_tables = None

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def distances(self):
        """All-pairs hop-count matrix (tuple of tuples)."""
        return self.dist_matrix

    def dist(self, u, v):
        return self.dist_matrix[u][v]

    def neighbor_masks(self):
        """Closed-neighborhood bitmasks, used by the belief engine."""
        if self._nbr_mask is None:
            self._nbr_mask = tuple(
                (1 << v) | sum(1 << w for w in self.adj[v]) for v in range(self.n)
            )
        return self._nbr_mask

    def degree(self, v):
        return len(self.adj[v])

    def automorphisms(self):
        """Generators of the automorphism group, from
        `automorphism_generators`, found once per graph; () when the group
        is trivial."""
        if self._automorphisms is None:
            self._automorphisms = automorphism_generators(self)
        return self._automorphisms


def build_graph(n, edges):
    """Validate and build a Graph; duplicate edges are collapsed, loops rejected."""
    return Graph(n, edges)


def eccentricities(g):
    return tuple(max(row) for row in g.distances())


def diameter(g):
    return max(eccentricities(g))


def radius(g):
    return min(eccentricities(g))


def center(g):
    ecc = eccentricities(g)
    r = min(ecc)
    return tuple(v for v in range(g.n) if ecc[v] == r)


def is_tree(g):
    return len(g.edges) == g.n - 1


def is_caterpillar(g):
    """Tree whose non-leaf vertices induce a path (K_1 and K_2 count)."""
    if not is_tree(g):
        return False
    spine = [v for v in range(g.n) if g.degree(v) >= 2]
    if len(spine) <= 1:
        return True
    sset = set(spine)
    degs = []
    for v in spine:
        d = sum(1 for w in g.adj[v] if w in sset)
        if d > 2:
            return False
        degs.append(d)
    # connected + max degree 2 + exactly two endpoints = path
    if sum(1 for d in degs if d == 1) != 2:
        return False
    # spine connectivity: walk from one endpoint
    start = next(v for v, d in zip(spine, degs) if d == 1)
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in g.adj[v]:
            if w in sset and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(spine)


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
    edges = set(g.edges)
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
            a, b = p[u], p[v]
            if (min(a, b), max(a, b)) not in edges:
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
    """Maximum-cardinality matching (blossom algorithm via networkx).

    Computed once per graph: the matching-bound audit reads it and then
    builds `matching_policy` from it.
    """
    if g._matching is None:
        import networkx as nx

        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        raw = nx.max_weight_matching(h, maxcardinality=True)
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in raw))
        g._matching = Matching(edges=edges, n=g.n)
    return g._matching


def blocks(g):
    """Biconnected components as sorted vertex tuples (bridges give pairs)."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    comps = [tuple(sorted(c)) for c in nx.biconnected_components(h)]
    return sorted(comps)


def is_two_connected(g):
    if g.n < 3:
        return False
    b = blocks(g)
    return len(b) == 1 and len(b[0]) == g.n


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
    eset = set(g.edges)
    for u, v in g.edges:
        fu, fv = f[u], f[v]
        if fu == fv:
            continue
        if (min(fu, fv), max(fu, fv)) not in eset:
            return False
    return True


@dataclass(frozen=True)
class OuterEmbedding:
    """Hamiltonian outer cycle plus chords, all chords pairwise non-crossing."""

    cycle: tuple
    chords: tuple = field(default=())


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


def _closed_embedding(g, eset, path):
    """The embedding with outer cycle `path` (a Hamiltonian path), or None
    when its ends are not adjacent or the remaining edges cross."""
    n = g.n
    u, v = path[-1], path[0]
    if (min(u, v), max(u, v)) not in eset:
        return None
    cycle = tuple(path)
    pos = [0] * n
    for i, w in enumerate(cycle):
        pos[w] = i
    cyc_edges = set()
    for i, w in enumerate(cycle):
        x = cycle[(i + 1) % n]
        cyc_edges.add((min(w, x), max(w, x)))
    chords = tuple(sorted(e for e in g.edges if e not in cyc_edges))
    if _noncrossing(pos, chords):
        return OuterEmbedding(cycle=cycle, chords=chords)
    return None


def find_outer_embedding(g, order_hint=None):
    """Search for an outerplanar embedding: a Hamiltonian cycle such that all
    remaining edges are pairwise non-crossing chords.

    Exponential backtracking over Hamiltonian paths from vertex 0, intended
    for n <= 16.  Returns None when no embedding exists. order_hint permutes
    the neighbor exploration order (used by the randomized-agreement
    property check).
    """
    n = g.n
    if n == 1:
        return OuterEmbedding(cycle=(0,), chords=())
    if n == 2:
        return OuterEmbedding(cycle=(0, 1), chords=()) if g.edges else None
    eset = set(g.edges)
    adj = g.adj
    if order_hint is not None:
        adj = [sorted(a, key=lambda w: order_hint[w]) for a in adj]

    path = [0]
    used = [False] * n
    used[0] = True
    # untried neighbors of each path vertex, in exploration order
    options = [iter(adj[0])]
    while options:
        if len(path) == n:
            found = _closed_embedding(g, eset, path)
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

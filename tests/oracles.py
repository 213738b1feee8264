"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the game
rules and textbook definitions, so agreement with ``hyperopic`` is
meaningful evidence of correctness.  Most of it shares no code with the
package (it consumes plain ``(n, edges)`` pairs).  The belief-level solver
oracle and the policy replay harness play the set-based game of
``hyperopic.check``, the package's certificate checker, which reads only
adjacency and distances and shares nothing with the bitmask
``TransitionTable`` that the solver and the policy verifier run on; their
joint moves are enumerated here, so nothing in this file imports
``hyperopic.game``.
"""

import itertools
from functools import lru_cache

from hyperopic.check import play_round, sightings


# ---------------------------------------------------------------------------
# Explicit-position full-visibility game solver.
#
# With the robber always visible there is never belief uncertainty, so the
# game can be decided on explicit (cop multiset, robber vertex) positions by
# plain least-fixed-point iteration: a cop-to-move position is winning if
# some joint move captures immediately or leaves a winning robber-to-move
# position; a robber-to-move position is winning for the cops if every legal
# robber move (staying allowed, stepping onto a cop forbidden) leads to a
# winning cop-to-move position, vacuously so when no legal move exists.


def _closed_neighborhoods(n, edges):
    nbr = [{v} for v in range(n)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


def joint_moves(nbr, cops):
    """The cop multisets one joint move leads to: the product of the cops'
    closed neighborhoods ``nbr``, deduplicated by sorted multiset."""
    options = [sorted(nbr[c]) for c in cops]
    return sorted({tuple(sorted(m)) for m in itertools.product(*options)})


def fullvis_placement_wins(n, edges, placement):
    """Whether the cops force capture from ``placement`` with the robber
    choosing his start (and all later moves) with full knowledge."""
    nbr = _closed_neighborhoods(n, edges)
    cops0 = tuple(sorted(placement))

    joint = {}

    def cop_moves(cops):
        if cops not in joint:
            joint[cops] = joint_moves(nbr, cops)
        return joint[cops]

    multisets = {cops0}
    frontier = [cops0]
    while frontier:
        cops = frontier.pop()
        for m in cop_moves(cops):
            if m not in multisets:
                multisets.add(m)
                frontier.append(m)

    cop_win = {}  # (cops, robber, mover) -> bool; mover 0 = cops, 1 = robber
    for cops in multisets:
        for r in range(n):
            if r not in cops:
                cop_win[(cops, r, 0)] = False
                cop_win[(cops, r, 1)] = False

    changed = True
    while changed:
        changed = False
        for (cops, r, mover), known in cop_win.items():
            if known:
                continue
            if mover == 0:
                win = any(
                    r in m or cop_win[(m, r, 1)] for m in cop_moves(cops)
                )
            else:
                moves = [w for w in nbr[r] if w not in cops]
                win = all(cop_win[(cops, w, 0)] for w in moves)
            if win:
                cop_win[(cops, r, mover)] = True
                changed = True

    starts = [r for r in range(n) if r not in cops0]
    return all(cop_win[(cops0, r, 0)] for r in starts)


def fullvis_cop_number(n, edges):
    """Classic cop number by brute force over placements and positions."""
    cap = (n + 1) // 2 + 1
    for c in range(1, cap + 1):
        for placement in itertools.combinations_with_replacement(range(n), c):
            if fullvis_placement_wins(n, edges, placement):
                return c
    raise AssertionError("matching-bound cap exceeded; game rules broken")


def is_dismantlable(n, edges):
    """Whether corner removal reduces the graph to one vertex.

    A corner is a vertex u whose closed neighbourhood lies inside that of
    some other vertex v.  Deleting a corner leaves a retract, and a retract
    of a dismantlable graph is dismantlable, so the removal order does not
    matter.  One cop wins the full-visibility game exactly on these graphs
    (Nowakowski and Winkler 1983; Quilliot 1978).
    """
    nbr = _closed_neighborhoods(n, edges)
    alive = set(range(n))
    while len(alive) > 1:
        corner = next(
            (u for u in alive
             if any(v != u and nbr[u] & alive <= nbr[v] for v in alive)),
            None,
        )
        if corner is None:
            return False
        alive.remove(corner)
    return True


# ---------------------------------------------------------------------------
# Belief-level game solver for every visibility rule.
#
# Builds the full reachable arena of cop-to-move belief states from every
# placement with the set-based game of ``hyperopic.check`` and the joint
# moves above, then computes the cops' attractor level by level: a state
# enters at level i when some joint move leaves only states of lower levels
# (none at all when every robber possibility is captured).  The level of a
# state is the least worst-case number of cop moves to capture from it.


def belief_placement_rounds(spec):
    """Map every placement of ``spec``'s cops to the least worst-case rounds
    for them to capture from it, or None when the robber evades forever."""
    graph, rule = spec.graph, spec.rule
    nbr = _closed_neighborhoods(graph.n, graph.edges)
    starts = {
        placement: [
            (placement, b)
            for _, b in sightings(graph, rule, placement, range(graph.n))
        ]
        for placement in itertools.combinations_with_replacement(
            range(graph.n), spec.num_cops
        )
    }
    options = {}  # cop-to-move state -> one successor set per joint move
    frontier = [s for init in starts.values() for s in init]
    while frontier:
        state = frontier.pop()
        if state in options:
            continue
        cops, belief = state
        options[state] = [
            {(new, b) for *_, b in play_round(graph, rule, new, belief)}
            for new in joint_moves(nbr, cops)
        ]
        for succs in options[state]:
            frontier.extend(succs)

    level = {}
    i = 0
    while True:
        i += 1
        entering = [
            s for s, moves in options.items()
            if s not in level
            and any(all(t in level for t in succs) for succs in moves)
        ]
        if not entering:
            break
        for s in entering:
            level[s] = i

    return {
        placement: max((level[s] for s in init), default=0)
        if all(s in level for s in init) else None
        for placement, init in starts.items()
    }


# ---------------------------------------------------------------------------
# Brute-force maximum matching (branch on each edge: skip it or take it).


def brute_force_matching_size(n, edges):
    es = sorted({tuple(sorted(e)) for e in edges})

    best = 0

    def rec(i, used, count):
        nonlocal best
        if count > best:
            best = count
        for j in range(i, len(es)):
            if count + (len(es) - j) <= best:
                return
            u, v = es[j]
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
                rec(j + 1, used, count + 1)
                used.discard(u)
                used.discard(v)

    rec(0, set(), 0)
    return best


# ---------------------------------------------------------------------------
# Caterpillar test by definition: a tree whose leaf-deleted remainder is a
# (possibly empty) path.


def is_connected(n, edges):
    nbr = _closed_neighborhoods(n, edges)
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in nbr[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def is_caterpillar_oracle(n, edges):
    es = {tuple(sorted(e)) for e in edges}
    if len(es) != n - 1 or not is_connected(n, edges):
        return False
    deg = [0] * n
    for u, v in es:
        deg[u] += 1
        deg[v] += 1
    inner = [v for v in range(n) if deg[v] >= 2]
    if len(inner) <= 1:
        return True
    iset = set(inner)
    ideg = {v: sum(1 for u, w in es if (u == v and w in iset) or (w == v and u in iset)) for v in inner}
    # a leaf-deleted tree remainder is connected automatically; a path is
    # exactly the connected graph with max degree 2 and two endpoints
    return max(ideg.values()) <= 2 and sum(1 for d in ideg.values() if d == 1) == 2


def contains_deep_spider(n, edges):
    """Whether a tree has a vertex with three branches of depth >= 2 --
    equivalently whether it contains the 7-vertex three-legs-of-length-two
    spider as a subtree."""
    nbr = _closed_neighborhoods(n, edges)
    for v in range(n):
        branches = [w for w in nbr[v] if w != v]
        if len(branches) < 3:
            continue
        deep = 0
        for w in branches:
            # does the component of T - v containing w reach depth 2?
            seen = {v, w}
            frontier = [w]
            found = False
            while frontier and not found:
                x = frontier.pop()
                for y in nbr[x]:
                    if y not in seen:
                        found = True
                        break
            if found:
                deep += 1
        if deep >= 3:
            return True
    return False


# ---------------------------------------------------------------------------
# Outerplanarity via planarity of the apex extension: G is outerplanar
# exactly when adding a new vertex adjacent to every vertex keeps the graph
# planar.


def is_outerplanar_oracle(n, edges):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    h.add_edges_from((n, v) for v in range(n))
    ok, _ = nx.check_planarity(h)
    return ok


def is_two_connected_oracle(n, edges):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return n >= 3 and nx.is_connected(h) and not list(nx.articulation_points(h))


# ---------------------------------------------------------------------------
# Free-tree enumeration, two independent routes.
#
# Route 1 (exhaustive labeled): decode every Pruefer sequence, canonize.
# Route 2 (leaf extension): grow every unlabeled tree on n-1 vertices by one
# leaf in every position, canonize, deduplicate.
#
# Both use the same rooted-encoding canonical form, centered at the tree's
# center vertex (or central edge), which is isomorphism-invariant.


def _tree_canon(n, edges):
    nbr = [set() for _ in range(n)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    if n == 1:
        return ("()",)
    # peel leaves to find the center(s)
    deg = [len(nbr[v]) for v in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    removed = 0
    alive = [True] * n
    while n - removed > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            removed += 1
            for w in nbr[v]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [v for v in range(n) if alive[v]]

    def encode(root, avoid):
        subs = sorted(encode(w, root) for w in nbr[root] if w != avoid)
        return "(" + "".join(subs) + ")"

    if len(centers) == 1:
        return (encode(centers[0], -1),)
    a, b = centers
    return tuple(sorted((encode(a, b), encode(b, a))))


def _prufer_decode(n, seq):
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    leaves = sorted(v for v in range(n) if deg[v] == 1)
    import heapq

    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def prufer_tree_canon_set(n):
    """Canonical forms of all free trees on n vertices via exhaustive
    Pruefer enumeration (n <= 8 advisable)."""
    if n == 1:
        return {_tree_canon(1, [])}
    if n == 2:
        return {_tree_canon(2, [(0, 1)])}
    return {
        _tree_canon(n, _prufer_decode(n, seq))
        for seq in itertools.product(range(n), repeat=n - 2)
    }


@lru_cache(maxsize=None)
def leaf_extension_trees(n):
    """One (canon, edges) pair per free tree on n vertices, grown by
    attaching a leaf to every vertex of every tree on n-1 vertices."""
    if n == 1:
        return {_tree_canon(1, []): ()}
    out = {}
    for edges in leaf_extension_trees(n - 1).values():
        for v in range(n - 1):
            grown = tuple(edges) + ((v, n - 1),)
            canon = _tree_canon(n, grown)
            if canon not in out:
                out[canon] = grown
    return out


# ---------------------------------------------------------------------------
# Non-crossing chord subsets of an n-cycle, counted up to dihedral symmetry:
# the isomorphism classes of 2-connected outerplanar graphs on n vertices
# (the outer Hamiltonian cycle of such a graph is unique, so graph
# isomorphism coincides with dihedral equivalence of chord sets).


def _all_chords(n):
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]


def _cross(a, b):
    (i, j), (p, q) = a, b
    return (i < p < j < q) or (p < i < q < j)


def dihedral_chord_orbit_count(n):
    chords = _all_chords(n)
    # the 2n dihedral symmetries as vertex maps
    symmetries = []
    for s in range(n):
        symmetries.append(lambda v, s=s: (v + s) % n)
        symmetries.append(lambda v, s=s: (s - v) % n)

    def canon(chordset):
        best = None
        for f in symmetries:
            img = frozenset(tuple(sorted((f(u), f(v)))) for u, v in chordset)
            key = tuple(sorted(img))
            if best is None or key < best:
                best = key
        return best

    seen = set()

    def grow(idx, chosen):
        seen.add(canon(chosen))
        for j in range(idx, len(chords)):
            c = chords[j]
            if all(not _cross(c, d) for d in chosen):
                grow(j + 1, chosen + [c])

    grow(0, [])
    return len(seen)


# ---------------------------------------------------------------------------
# Policy replay harness: drives a CopPolicy over every observation branch of
# the set-based game of ``hyperopic.check``, handing it each belief as a
# mask, so that tests can compare its nodes and round count with the
# verifier's and assert properties of the live trace.


def set_to_mask(verts):
    """Belief mask of an iterable of vertex ids."""
    m = 0
    for v in verts:
        m |= 1 << v
    return m


def walk_policy(graph, rule, policy, visit=None, *, max_nodes=2_000_000):
    """Replay ``policy`` exhaustively on the set-based game.

    A decision node is (policy state, cops in role order, belief set), and
    ``policy.step`` runs once per node, handed ``set_to_mask(belief)``.
    ``visit(state, cops, belief, seen)``, when given, runs on every arrival
    at a node with the sightings that led there, each the vertex the
    robber was seen on or None: one after the placement, two after a
    round.  Returns the worst-case rounds to capture, each node's being
    one more than the largest of its children's, as ``Win.rounds`` counts
    them.  Raises AssertionError if a node repeats on the current line (the
    robber evades) or more than ``max_nodes`` nodes are reached.
    """
    rounds = {}
    line = set()

    def arrive(node, seen):
        if visit is not None:
            visit(*node, seen)
        if node in rounds:
            return rounds[node]
        if node in line:
            raise AssertionError("policy situation repeated: robber evades")
        if len(rounds) + len(line) >= max_nodes:
            raise AssertionError("walk_policy node budget exhausted")
        line.add(node)
        state, cops, belief = node
        moves, state1 = policy.step(state, cops, set_to_mask(belief))
        moves = tuple(moves)
        worst = max(
            (
                arrive((state1, moves, b), (seen1, seen2))
                for seen1, seen2, b in play_round(graph, rule, moves, belief)
            ),
            default=0,
        )
        line.remove(node)
        rounds[node] = 1 + worst
        return rounds[node]

    placement = policy.placement
    return max(
        (
            arrive((policy.state, placement, b), (seen,))
            for seen, b in sightings(graph, rule, placement, range(graph.n))
        ),
        default=0,
    )

"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the game
rules and textbook definitions, so agreement with ``hyperopic`` is
meaningful evidence of correctness.  Most of it shares no code with the
package (it consumes plain ``(n, edges)`` pairs).  The exceptions: the
belief-level solver oracle is built on the set-based transition functions
of ``hyperopic.game``, which the solver never calls (it runs on the bitmask
``TransitionTable``), and the policy replay harness drives the package's
own transition table.
"""

import itertools
from functools import lru_cache


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


def fullvis_placement_wins(n, edges, placement):
    """Whether the cops force capture from ``placement`` with the robber
    choosing his start (and all later moves) with full knowledge."""
    nbr = _closed_neighborhoods(n, edges)
    cops0 = tuple(sorted(placement))

    joint = {}

    def joint_moves(cops):
        if cops not in joint:
            opts = [sorted(nbr[c]) for c in cops]
            joint[cops] = sorted({tuple(sorted(m)) for m in itertools.product(*opts)})
        return joint[cops]

    multisets = {cops0}
    frontier = [cops0]
    while frontier:
        cops = frontier.pop()
        for m in joint_moves(cops):
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
                    r in m or cop_win[(m, r, 1)] for m in joint_moves(cops)
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


# ---------------------------------------------------------------------------
# Belief-level game solver for every visibility rule.
#
# Builds the full reachable arena of cop-to-move belief states from every
# placement with the set-based reference transitions, then computes the
# cops' attractor level by level: a state enters at level i when some joint
# move leaves only states of lower levels (none at all when every robber
# possibility is captured).  The level of a state is the least worst-case
# number of cop moves to capture from it.


def belief_placement_rounds(spec):
    """Map every placement of ``spec``'s cops to the least worst-case rounds
    for them to capture from it, or None when the robber evades forever."""
    from hyperopic.game import (
        COP_WIN,
        cop_turn_successors,
        initial_states,
        robber_turn_successors,
    )

    starts = {
        placement: initial_states(spec, placement)
        for placement in itertools.combinations_with_replacement(
            range(spec.graph.n), spec.num_cops
        )
    }
    after_robber = {}  # robber-to-move state -> cop-to-move successors
    options = {}  # cop-to-move state -> one successor set per joint move
    frontier = [s for init in starts.values() if init is not COP_WIN for s in init]
    while frontier:
        state = frontier.pop()
        if state in options:
            continue
        options[state] = []
        for _, outcome in cop_turn_successors(spec, state):
            succs = set()
            if outcome is not COP_WIN:
                for mid in outcome:
                    if mid not in after_robber:
                        after = robber_turn_successors(spec, mid.cops, mid.belief)
                        after_robber[mid] = () if after is COP_WIN else after
                    succs.update(after_robber[mid])
            options[state].append(succs)
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

    out = {}
    for placement, init in starts.items():
        if init is COP_WIN:
            out[placement] = 0
        elif all(s in level for s in init):
            out[placement] = max(level[s] for s in init)
        else:
            out[placement] = None
    return out


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
# Policy replay harness: drives a CopPolicy over every observation branch
# exactly as the adversarial verifier does, invoking a callback at each
# robber-to-move node so tests can assert properties of the live trace.


def walk_policy(graph, rule, policy, visit, *, max_nodes=2_000_000):
    """Exhaustively replay ``policy``; call ``visit(depth, state, cops,
    belief, obs)`` at every robber-to-move node (depth = completed rounds).
    Raises if a situation repeats (the policy does not win) or the node
    budget is exhausted."""
    from hyperopic.game import GameSpec, TransitionTable
    from hyperopic.strategies import _obs_of

    table = TransitionTable(GameSpec(graph, rule, policy.num_cops))
    placement, state0 = policy.initial()
    placement = tuple(placement)
    cand, vis0 = table.masks(placement)
    rounds = 0
    if not cand:
        return rounds
    stack = []
    for blk in table.split(cand, vis0):
        obs = (_obs_of(blk, vis0),)
        node = (state0, placement, blk, obs)
        stack.append((node, 0, frozenset()))
    seen = set()
    count = 0
    while stack:
        node, depth, lineage = stack.pop()
        if node in lineage:
            raise AssertionError("policy situation repeated: robber evades")
        if node in seen:
            continue
        seen.add(node)
        count += 1
        if count > max_nodes:
            raise AssertionError("walk_policy node budget exhausted")
        rounds = max(rounds, depth)
        state, cops, bmask, obs = node
        belief = frozenset(_mask_verts(bmask))
        visit(depth, state, cops, belief, obs)
        moves, state1 = policy.step(state, cops, obs)
        moves = tuple(moves)
        free, vis1 = table.masks(moves)
        b1 = bmask & free
        if not b1:
            continue
        for blk1 in table.split(b1, vis1):
            obs1 = _obs_of(blk1, vis1)
            for blk2 in table.robber_step(moves, blk1):
                child = (state1, moves, blk2, (obs1, _obs_of(blk2, vis1)))
                stack.append((child, depth + 1, lineage | {node}))
    return rounds


def _mask_verts(mask):
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out

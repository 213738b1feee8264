"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the game
rules and textbook definitions, so agreement with ``hyperopic`` is
meaningful evidence of correctness.  Most of it shares no code with the
package (it consumes plain ``(n, edges)`` pairs).  The exception is the
set-based reference game below: it takes the package's ``Graph``,
``GameSpec`` and deduplicated ``joint_cop_moves``, but computes every
sighting and belief transition on vertex sets, sharing nothing with the
bitmask ``TransitionTable`` that the solver and the policy verifier run on.
The belief-level solver oracle and the policy replay harness are built on
it.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from hyperopic.game import GameSpec, joint_cop_moves


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
# Set-based reference game.
#
# A round is cops move jointly, observe, robber moves, observe; each
# sighting check pins the robber to one vertex or reports it invisible, and
# splits the set of vertices it may occupy (its belief) accordingly.  The
# check also runs once right after the placement.


@dataclass(frozen=True)
class Observation:
    """Result of one sighting check: a pinned vertex, or nothing."""

    vertex: int | None

    @property
    def is_visible(self):
        return self.vertex is not None

    def __repr__(self):
        return "Invisible" if self.vertex is None else f"Visible({self.vertex})"


INVISIBLE = Observation(None)


class _CopWin:
    """Sentinel outcome: every consistent robber position is captured."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "CopWin"


COP_WIN = _CopWin()


@dataclass(frozen=True)
class BeliefState:
    """Cop positions (a sorted multiset) plus the robber's possible vertices.

    The belief is always nonempty (emptiness is the terminal cop win, never
    stored) and disjoint from the cop positions (a possibility on a cop
    vertex is already captured).
    """

    cops: tuple
    belief: frozenset

    def __post_init__(self):
        object.__setattr__(self, "cops", tuple(sorted(self.cops)))
        object.__setattr__(self, "belief", frozenset(self.belief))
        if not self.belief:
            raise ValueError("belief must be nonempty (emptiness is a cop win)")
        if self.belief & set(self.cops):
            raise ValueError("belief must be disjoint from cop positions")


def is_visible(rule, dists):
    """Whether a robber is visible given each cop's distance to it.

    Distances are all >= 1: distance 0 is capture, decided before any
    sighting check.
    """

    dists = tuple(dists)
    if not dists:
        raise ValueError("need at least one cop distance")
    if any(d < 1 for d in dists):
        raise ValueError("distance 0 is capture, not a sighting")
    if rule.kind == "full":
        return True
    if rule.kind == "zero":
        return False
    return any(d > rule.k for d in dists)


def split_by_observation(graph, rule, cops, candidates):
    """Partition candidate robber vertices by what the cops would observe.

    Returns (observation, block) pairs: one singleton block per vertex where
    the robber would be seen, then at most one block of mutually
    indistinguishable invisible vertices.  Blocks partition the candidates.
    """
    dist = graph.distances()
    seen, hidden = [], []
    for v in sorted(candidates):
        if is_visible(rule, (dist[c][v] for c in cops)):
            seen.append(v)
        else:
            hidden.append(v)
    out = [(Observation(v), frozenset((v,))) for v in seen]
    if hidden:
        out.append((INVISIBLE, frozenset(hidden)))
    return out


def observation_split(spec, cops, candidates):
    """split_by_observation under a GameSpec's graph and rule."""
    if set(candidates) & set(cops):
        raise ValueError("candidates must be disjoint from cop positions")
    return split_by_observation(spec.graph, spec.rule, cops, candidates)


def initial_states(spec, placement):
    """States after the cops take up a starting placement.

    The robber then materializes on any uncovered vertex and the first
    sighting check runs immediately.  Returns COP_WIN when the placement
    covers the whole graph, else the resulting cop-to-move states.
    """
    placement = tuple(sorted(placement))
    if len(placement) != spec.num_cops:
        raise ValueError(f"placement must list {spec.num_cops} cop positions")
    candidates = set(range(spec.graph.n)) - set(placement)
    if not candidates:
        return COP_WIN
    return [
        BeliefState(placement, block)
        for _, block in observation_split(spec, placement, candidates)
    ]


def cop_turn_successors(spec, state):
    """All deduplicated joint cop moves from a cop-to-move state.

    Returns (move, outcome) pairs where outcome is COP_WIN (the move lands
    on every belief vertex) or the list of intermediate robber-to-move
    states produced by the post-move sighting check.
    """
    out = []
    for move, newcops in joint_cop_moves(spec.graph, state.cops):
        survivors = state.belief - set(newcops)
        if not survivors:
            out.append((move, COP_WIN))
            continue
        blocks = observation_split(spec, newcops, survivors)
        out.append((move, [BeliefState(newcops, b) for _, b in blocks]))
    return out


def robber_turn_successors(spec, cops, candidates):
    """Resolve the robber's move from an intermediate robber-to-move position.

    The candidate set grows to its closed neighborhood minus cop vertices,
    then the post-move sighting check splits it.  Returns COP_WIN when no
    possibility survives (the robber had nowhere safe to go), else the
    cop-to-move successor states.
    """
    cops = tuple(sorted(cops))
    grown = robber_growth(spec.graph, cops, candidates)
    if not grown:
        return COP_WIN
    blocks = observation_split(spec, cops, grown)
    return [BeliefState(cops, b) for _, b in blocks]


def robber_growth(graph, cops, candidates):
    """Where the robber may stand after its move: the candidates' closed
    neighborhood minus the cop vertices."""
    grown = set()
    for v in candidates:
        grown.add(v)
        grown.update(graph.adj[v])
    return grown - set(cops)


def set_to_mask(verts):
    """Belief mask of an iterable of vertex ids."""
    m = 0
    for v in verts:
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# Belief-level game solver for every visibility rule.
#
# Builds the full reachable arena of cop-to-move belief states from every
# placement with the set-based reference game above, then computes the
# cops' attractor level by level: a state enters at level i when some joint
# move leaves only states of lower levels (none at all when every robber
# possibility is captured).  The level of a state is the least worst-case
# number of cop moves to capture from it.


def belief_placement_rounds(spec):
    """Map every placement of ``spec``'s cops to the least worst-case rounds
    for them to capture from it, or None when the robber evades forever."""
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
# Policy replay harness: drives a CopPolicy over every observation branch of
# the set-based reference game, handing it each belief as a mask, so that
# tests can compare its nodes and round count with the verifier's and
# assert properties of the live trace.


def walk_policy(graph, rule, policy, visit=None, *, max_nodes=2_000_000):
    """Replay ``policy`` exhaustively on the set-based reference game.

    A decision node is (policy state, cops in role order, belief set), and
    ``policy.step`` runs once per node, handed ``set_to_mask(belief)``.
    ``visit(state, cops, belief, obs)``, when given, runs on every arrival
    at a node with the observations that led there: one after the
    placement, two after a round.  Returns the worst-case rounds to
    capture, each node's being one more than the largest of its children's,
    as ``Win.rounds`` counts them.  Raises AssertionError if a node repeats
    on the current line (the robber evades) or more than ``max_nodes``
    nodes are reached.
    """
    spec = GameSpec(graph, rule, policy.num_cops)
    placement = policy.placement
    rounds = {}
    line = set()

    def arrive(node, obs):
        if visit is not None:
            visit(*node, obs)
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
        worst = 0
        for obs1, b1 in observation_split(spec, moves, belief - set(moves)):
            grown = robber_growth(graph, moves, b1)
            for obs2, b2 in observation_split(spec, moves, grown):
                worst = max(worst, arrive((state1, moves, b2), (obs1, obs2)))
        line.remove(node)
        rounds[node] = 1 + worst
        return rounds[node]

    free = set(range(graph.n)) - set(placement)
    return max(
        (
            arrive((policy.state, placement, b), (obs,))
            for obs, b in observation_split(spec, placement, free)
        ),
        default=0,
    )

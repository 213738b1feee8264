"""Belief-state semantics for distance-limited pursuit on a finite graph.

The robber is omniscient and invisible to the cops whenever every cop is
within distance k of it (distance 0 is capture, not sight).  Cops therefore
play against a *belief*: the set of vertices the robber could occupy given
every observation so far.  A round is cops move jointly, observe, robber
moves, observe; each observation either pins the robber to a vertex or
reports it invisible, splitting the belief accordingly.  Visibility is also
checked once at initial placement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class VisibilityRule:
    """When the cops can see the robber.

    kind "hyperopic": visible iff some cop is at distance > k from it.
    kind "zero": never visible.  kind "full": always visible.
    """

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("hyperopic", "zero", "full"):
            raise ValueError(f"unknown visibility kind {self.kind!r}")
        if self.kind == "hyperopic":
            if self.k is None or self.k < 1:
                raise ValueError("hyperopic rule needs k >= 1")
        elif self.k is not None:
            raise ValueError(f"rule {self.kind!r} takes no distance parameter")


def hyperopic(k):
    return VisibilityRule("hyperopic", k)


def zero_visibility():
    return VisibilityRule("zero")


def full_visibility():
    return VisibilityRule("full")


def cop_cap(n):
    """ceil(n/2)+1: one more cop than the matching bound needs on n
    vertices, so that many cops always win and no search needs more."""
    return (n + 1) // 2 + 1


@dataclass(frozen=True)
class GameSpec:
    """A graph, a visibility rule, and how many cops play.

    The cop count is capped at `cop_cap(n)`, which always suffices.
    """

    graph: "Graph"
    rule: VisibilityRule
    num_cops: int

    def __post_init__(self):
        cap = cop_cap(self.graph.n)
        if not 1 <= self.num_cops <= cap:
            raise ValueError(
                f"num_cops must be in [1, {cap}] for {self.graph.n} vertices"
            )


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


def joint_cop_moves(graph, cops):
    """Deduplicated joint moves from a sorted cop position tuple.

    Each cop stays or moves to a neighbor.  Moves yielding the same new
    multiset are interchangeable (cops are anonymous); the lexicographically
    least representative is kept.  Returns (move, new_positions) pairs in
    ascending move order, with move aligned to the input order.
    """
    options = [tuple(sorted((c, *graph.adj[c]))) for c in cops]
    seen = {}
    for joint in itertools.product(*options):
        key = tuple(sorted(joint))
        if key not in seen:
            seen[key] = joint
    return [(m, k) for k, m in sorted(seen.items(), key=lambda kv: kv[1])]


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
    g = spec.graph
    grown = set()
    for v in candidates:
        grown.add(v)
        grown.update(g.adj[v])
    grown -= set(cops)
    if not grown:
        return COP_WIN
    blocks = observation_split(spec, cops, grown)
    return [BeliefState(cops, b) for _, b in blocks]


class TransitionTable:
    """Bitmask engine computing the same transitions as the public functions.

    Beliefs are integer masks; states are (cops_tuple, mask) pairs.  All
    per-cops-tuple quantities (occupancy, visibility, deduplicated moves)
    and the robber-step expansion are cached, since the solver revisits the
    same cop tuples across many beliefs.
    """

    def __init__(self, spec):
        self.spec = spec
        g = spec.graph
        self.n = g.n
        self.full = (1 << g.n) - 1
        self.nbr = g.neighbor_masks()
        rule = spec.rule
        if rule.kind == "full":
            self._far = None
            self._vis_const = self.full
        elif rule.kind == "zero":
            self._far = None
            self._vis_const = 0
        else:
            dist = g.distances()
            self._far = [0] * g.n
            for c in range(g.n):
                m = 0
                for v in range(g.n):
                    if dist[c][v] > rule.k:
                        m |= 1 << v
                self._far[c] = m
            self._vis_const = None
        self._vis = {}
        self._occ = {}
        self._moves = {}
        self._robber = {}

    def occ(self, cops):
        m = self._occ.get(cops)
        if m is None:
            m = 0
            for c in cops:
                m |= 1 << c
            self._occ[cops] = m
        return m

    def vis(self, cops):
        """Mask of vertices a robber would be visible on, for these cops."""
        if self._vis_const is not None:
            return self._vis_const
        m = self._vis.get(cops)
        if m is None:
            m = 0
            for c in cops:
                m |= self._far[c]
            self._vis[cops] = m
        return m

    def split(self, mask, vismask):
        """Observation blocks of a candidate mask: visible singletons
        ascending, then the invisible remainder if any."""
        out = []
        seen = mask & vismask
        while seen:
            b = seen & -seen
            out.append(b)
            seen ^= b
        rest = mask & ~vismask
        if rest:
            out.append(rest)
        return out

    def joint_moves(self, cops):
        mv = self._moves.get(cops)
        if mv is None:
            mv = joint_cop_moves(self.spec.graph, cops)
            self._moves[cops] = mv
        return mv

    def initial(self, placement):
        """Belief masks after placing cops; [] means the placement covers
        every vertex (immediate win)."""
        cand = self.full & ~self.occ(placement)
        if not cand:
            return []
        return self.split(cand, self.vis(placement))

    def cop_step(self, cops, bmask):
        """(move, newcops, blocks) per deduplicated joint move; blocks is []
        when the move captures every belief vertex."""
        out = []
        for move, newcops in self.joint_moves(cops):
            b1 = bmask & ~self.occ(newcops)
            out.append(
                (move, newcops, self.split(b1, self.vis(newcops)) if b1 else [])
            )
        return out

    def robber_step(self, cops, bmask):
        """Belief masks after the robber moves; () means it had nowhere safe."""
        key = (cops, bmask)
        res = self._robber.get(key)
        if res is None:
            grown = 0
            m = bmask
            nbr = self.nbr
            while m:
                b = m & -m
                grown |= nbr[b.bit_length() - 1]
                m ^= b
            grown &= ~self.occ(cops)
            res = tuple(self.split(grown, self.vis(cops))) if grown else ()
            self._robber[key] = res
        return res


def mask_to_set(mask):
    """Frozenset of vertex ids in a belief mask."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return frozenset(out)


def set_to_mask(verts):
    """Belief mask of an iterable of vertex ids."""
    m = 0
    for v in verts:
        m |= 1 << v
    return m

"""Exact winnability decisions for the belief-state pursuit game.

A cop-to-move state is winning when some joint move leads, across every
observation branch and every robber reply, only to winning states (a branch
where every robber possibility is captured imposes nothing).  The solver
materializes the reachable arena and runs counter-based attractor
propagation; placements share one arena per game spec, since a state's
status does not depend on how play reached it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement

from .cache import ResultCache, cached_solve
from .game import BeliefState, TransitionTable, cop_cap, mask_to_set


class UndecidedError(Exception):
    """Raised when a decision hit a resource cap instead of an answer."""


@dataclass(frozen=True)
class Certificate:
    """A winning cop strategy: where to start, the joint move to play from
    every cop-to-move state reachable while following it, and a bound on
    rounds to capture.

    Move tuples are aligned with the state's sorted cop positions.
    """

    placement: tuple
    moves: dict = field(default_factory=dict)
    bound: int = 0


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a winnability question for a fixed number of cops.

    status is "cop_win" (with placement, certificate, and worst-case round
    count), "robber_win" (no placement wins), or "undecided" (the state cap
    was hit first).
    """

    status: str
    num_cops: int
    placement: tuple | None = None
    certificate: Certificate | None = None
    rounds: int | None = None
    states_explored: int = 0

    @property
    def is_cop_win(self):
        return self.status == "cop_win"


class _CapExceeded(Exception):
    pass


class _Arena:
    """Reachable cop-to-move states with incremental attractor propagation.

    Each state stores, per deduplicated joint move, a countdown of successors
    not yet known winning plus the largest rank confirmed for that move so
    far; a move hitting zero marks the state winning with rank one more than
    that maximum.  A rank is therefore always 1 + the max rank over some
    move's full successor set, so ranks strictly decrease along any
    rank-minimizing strategy and bound the rounds to capture.
    """

    def __init__(self, table, cap):
        self.table = table
        self.cap = cap
        self.index = {}
        self.cops = []
        self.bmask = []
        self.rank = []
        self.counters = []
        self.maxk = []
        self.rev = {}
        self.wins = deque()
        self.pending = []

    def intern(self, cops, bmask):
        key = (cops, bmask)
        idx = self.index.get(key)
        if idx is None:
            if len(self.index) >= self.cap:
                raise _CapExceeded
            idx = len(self.cops)
            self.index[key] = idx
            self.cops.append(cops)
            self.bmask.append(bmask)
            self.rank.append(None)
            self.counters.append(None)
            self.maxk.append(None)
            self.pending.append(idx)
        return idx

    def settle(self):
        """Expand every pending state, then propagate wins to fixpoint."""
        while self.pending:
            self._expand(self.pending.pop())
        self._propagate()

    def _expand(self, idx):
        table = self.table
        counters = []
        maxks = []
        for mi, (move, newcops, blocks) in enumerate(
            table.cop_step(self.cops[idx], self.bmask[idx])
        ):
            succs = set()
            for b1 in blocks:
                for b2 in table.robber_step(newcops, b1):
                    succs.add(self.intern(newcops, b2))
            remaining = 0
            known = 0
            for t in succs:
                if self.rank[t] is None:
                    remaining += 1
                    self.rev.setdefault(t, []).append((idx, mi))
                elif self.rank[t] > known:
                    known = self.rank[t]
            if remaining == 0:
                # every successor already winning (or immediate capture)
                self.rank[idx] = 1 + known
                self.wins.append(idx)
                return
            counters.append(remaining)
            maxks.append(known)
        self.counters[idx] = counters
        self.maxk[idx] = maxks

    def _propagate(self):
        while self.wins:
            t = self.wins.popleft()
            for p, mi in self.rev.pop(t, ()):
                if self.rank[p] is not None:
                    continue
                c = self.counters[p]
                m = self.maxk[p]
                if self.rank[t] > m[mi]:
                    m[mi] = self.rank[t]
                c[mi] -= 1
                if c[mi] == 0:
                    self.rank[p] = m[mi] + 1
                    self.wins.append(p)


def placement_order(graph, num_cops):
    """All starting placements (cops may share a vertex), most spread-out
    first: descending total pairwise distance, ties lexicographic."""
    dist = graph.distances()
    places = list(combinations_with_replacement(range(graph.n), num_cops))
    places.sort(key=lambda p: (-sum(dist[a][b] for a, b in combinations(p, 2)), p))
    return places


def _extract(arena, table, placement, init_idxs):
    """Deterministic strategy read-off from a solved arena.

    At each reachable winning state, play the move minimizing the worst
    successor rank, breaking ties by lexicographically least joint move;
    moves whose successor sets were never fully explored (expansion stopped
    early once the state was known winning) are skipped.  Returns the
    certificate with its exact worst-case round count as the bound.
    """
    chosen = {}
    rounds = {}
    stack = [(i, False) for i in init_idxs]
    while stack:
        idx, done = stack.pop()
        if done:
            _, succs = chosen[idx]
            rounds[idx] = 1 + max((rounds[t] for t in succs), default=0)
            continue
        if idx in chosen:
            continue
        best = None
        for move, newcops, blocks in table.cop_step(arena.cops[idx], arena.bmask[idx]):
            succs = set()
            for b1 in blocks:
                for b2 in table.robber_step(newcops, b1):
                    succs.add(arena.index.get((newcops, b2)))
            if any(t is None or arena.rank[t] is None for t in succs):
                continue
            key = (max((arena.rank[t] for t in succs), default=0), move)
            if best is None or key < best[0]:
                best = (key, move, succs)
        _, move, succs = best
        chosen[idx] = (move, succs)
        stack.append((idx, True))
        stack.extend((t, False) for t in succs if t not in chosen)

    moves = {}
    for idx, (move, _) in chosen.items():
        state = BeliefState(arena.cops[idx], mask_to_set(arena.bmask[idx]))
        moves[state] = move
    bound = max((rounds[i] for i in init_idxs), default=0)
    return Certificate(placement, moves, bound)


def _solve_placements(spec, placements, state_cap):
    """Settle placements in order on one shared arena (a state's status is
    path-independent); the first winning placement is returned with its
    certificate."""
    table = TransitionTable(spec)
    arena = _Arena(table, state_cap)
    for placement in placements:
        blocks = table.initial(placement)
        if not blocks:
            # the cops cover the whole graph: immediate win
            return SolveResult(
                "cop_win", spec.num_cops, placement, Certificate(placement),
                0, len(arena.index),
            )
        try:
            idxs = [arena.intern(placement, b) for b in blocks]
            arena.settle()
        except _CapExceeded:
            return SolveResult(
                "undecided", spec.num_cops, states_explored=len(arena.index)
            )
        if all(arena.rank[i] is not None for i in idxs):
            cert = _extract(arena, table, placement, idxs)
            return SolveResult(
                "cop_win", spec.num_cops, placement, cert, cert.bound,
                len(arena.index),
            )
    return SolveResult(
        "robber_win", spec.num_cops, states_explored=len(arena.index)
    )


def solve_placement(spec, placement, *, state_cap=1_000_000):
    """Decide winnability for one fixed starting placement."""
    placement = tuple(sorted(placement))
    if len(placement) != spec.num_cops:
        raise ValueError(f"placement must list {spec.num_cops} cop positions")
    return _solve_placements(spec, [placement], state_cap)


def solve(spec, *, state_cap=1_000_000):
    """Decide whether the spec's cops can guarantee capture from some start.

    Placements are tried in `placement_order`, most spread-out first, and
    the first winning one is returned with its certificate.
    """
    return _solve_placements(
        spec, placement_order(spec.graph, spec.num_cops), state_cap
    )


def search_cop_number(graph, rule, *, bound=None, cache=None, state_cap=1_000_000):
    """Walk cop counts 1, 2, ..., min(bound, cop_cap(n)) until one is not a
    robber win, deciding each level through `cached_solve`.

    Without a cache an in-memory one is used.  Returns (cops, record): the
    last level tried and its `result_record`, whose status says why the
    walk stopped.  "cop_win" means cops is the least winning count,
    "undecided" that the state cap was hit at cops, and "robber_win" that
    every level up to cops loses.
    """
    upper = cop_cap(graph.n) if bound is None else min(bound, cop_cap(graph.n))
    if upper < 1:
        raise ValueError("cop bound must be at least 1")
    if cache is None:
        cache = ResultCache(None)
    for cops in range(1, upper + 1):
        record, _ = cached_solve(graph, rule, cops, cache, state_cap=state_cap)
        if record["status"] != "robber_win":
            break
    return cops, record


def cop_number(graph, rule, *, max_cops=None, state_cap=1_000_000):
    """Least number of cops that win, from `search_cop_number`.

    Raises UndecidedError when a level hits the state cap ("undecided:
    limit") or when max_cops is exhausted without a win, since higher levels
    were not ruled out.
    """
    c, record = search_cop_number(
        graph, rule, bound=max_cops, state_cap=state_cap
    )
    match record["status"]:
        case "cop_win":
            return c
        case "undecided":
            raise UndecidedError(
                f"undecided: limit (state cap {state_cap} hit at {c} cops)"
            )
        case _ if c < cop_cap(graph.n):
            raise UndecidedError(
                f"undecided: no win with up to max_cops={max_cops} cops"
            )
    raise AssertionError("matching bound violated: no winning cop count found")


def extract_certificate(spec, placement, *, state_cap=1_000_000):
    """Winning strategy for a cop-winning placement, checked by replay.

    Re-derives the strategy from a fresh solve of the placement, then plays
    it against every robber line through the policy verifier; any replay
    failure raises instead of returning a bad certificate.
    """
    placement = tuple(sorted(placement))
    res = solve_placement(spec, placement, state_cap=state_cap)
    if res.status == "undecided":
        raise UndecidedError(f"undecided: limit (state cap {state_cap} hit)")
    if not res.is_cop_win:
        raise ValueError(f"placement {placement} is not cop-winning")
    cert = res.certificate

    from .strategies import Win, certificate_policy, verify_policy

    policy = certificate_policy(spec.graph, spec.rule, cert)
    outcome = verify_policy(spec.graph, spec.rule, policy)
    if not isinstance(outcome, Win):
        raise AssertionError(
            f"certificate for {placement} failed replay: {outcome}"
        )
    if outcome.rounds > cert.bound:
        raise AssertionError(
            f"certificate replay took {outcome.rounds} rounds, bound {cert.bound}"
        )
    return cert

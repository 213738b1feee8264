"""Exact winnability decisions for the belief-state pursuit game.

A cop-to-move state is winning when some joint move leads, across every
observation branch and every robber reply, only to winning states (a branch
where every robber possibility is captured imposes nothing).  The solver
explores the arena breadth-first from a placement's initial states and
propagates wins as they appear, stopping as soon as those states are
decided (a local fixpoint in the style of Liu and Smolka); a robber win is
only proved once the whole reachable arena is settled.  The arena has two
kinds of node: cop-to-move states, and the robber-to-move positions their
moves lead to.  A position is the new cops plus the belief they did not
step on, and determines the robber's replies, so the round kernel runs once
per position however many moves reach it.

One placement decides a spec.  Cops who win from a placement q also win
from any placement p of the same connected graph: they walk from p to q,
and the belief they then face lies inside one of q's initial blocks, while
cop wins are downward-closed in the belief.  So `solve` settles only the
most spread-out placement, on a fresh arena.

Blind specs (`effective_rule` is zero visibility) skip the arena:
no observation ever splits a belief, so each cop move leads to one belief
and the cops face a reachability problem, searched breadth-first.  Play is
monotone in the belief: if B is inside B', each move's successor from B is
inside its successor from B', so a capture from B' is one from B.  A state
whose belief contains a kept one with the same cops is therefore dropped;
the kept one is no deeper, so the first capture found is still the
shortest, which is the exact worst case because the robber has no choice.

Both searches work up to the graph's symmetry.  An automorphism of the
graph maps a state to one that wins exactly when it does, in as many
rounds, so every cop tuple reached is replaced by its orbit
representative and the belief is carried along by one fixed automorphism
per tuple (`Graph.frame`); states and positions are keyed in
the representative's frame, and `states_explored` and `state_cap` count
those states.  A state and a relabelling of it by an automorphism fixing
its cops stay distinct.  Certificates are lifted back to the graph's own
labels (`_extract`, `_replay_path`), so their check knows nothing of
symmetry.  A trivial group makes every frame the identity: the same
searches as without the quotient.

Every certificate `extract_certificate` hands out has passed
`check.check_certificate`, which plays it on vertex sets from the graph's
adjacency and distances and shares no code with the search.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from types import MappingProxyType

from . import formats
from .cache import ResultCache, result_record
from .check import check_certificate
from .game import STATE_CAP, GameSpec, TransitionTable, cop_cap, effective_rule
from .graph import chunk_union


class UndecidedError(Exception):
    """Raised when a decision hit a resource cap instead of an answer."""


@dataclass(frozen=True)
class Certificate:
    """A winning cop strategy: where to start, the joint move to play from
    every cop-to-move state reachable while following it, and a bound on
    rounds to capture.

    moves is a read-only map keyed by (sorted cop tuple, belief mask) in
    the graph's own labels, and each move tuple is aligned with that sorted
    cop tuple.
    """

    placement: tuple
    moves: MappingProxyType
    bound: int


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a winnability question for a fixed number of cops.

    status is "cop_win" (with a certificate), "robber_win" (the placement
    settled loses, and so, for `solve`, does every other), or "undecided"
    (the state cap was hit first; states_explored is then the cap).
    `placement` and `rounds` are read from the certificate, and are None
    without one.

    rounds is the certificate's worst case, which is an upper bound on the
    optimum, not always the optimum: outside blind specs the arena ranks
    states by the first move found winning, not the fastest one.  Blind
    rounds are exact.
    """

    status: str
    num_cops: int
    certificate: Certificate | None = None
    states_explored: int = 0

    @property
    def is_cop_win(self):
        return self.status == "cop_win"

    @property
    def placement(self):
        return None if self.certificate is None else self.certificate.placement

    @property
    def rounds(self):
        return None if self.certificate is None else self.certificate.bound


class _CapExceeded(Exception):
    pass


class _Arena:
    """Cop-to-move states explored so far, with incremental attractor
    propagation.

    A state is keyed by one int, (cops_id << n) | belief mask, with cop
    tuples interned to small ids; the cops are always their orbit's
    representative.  States are expanded in intern order, so the pending
    ones are exactly those from index `expanded` on.

    A joint move leads to a robber-to-move *position*: the new cops and the
    belief they have not stepped on.  Its successors depend on nothing
    else, so each position is a node of its own.  It is seen from the new
    cops' representative, through their frame's chunk tables, and keyed by
    (representative's id << n) | that belief.  `TransitionTable.reply`
    runs on it there, so its successors need no mapping, and runs once per
    position, when an expansion first reaches it; its successors are
    interned then, in reply order.  A position holds only a countdown of
    successors not yet known winning, the largest rank among those that
    are, and its waiters.  Expanding a state walks its moves in order and
    stops at the first whose position has count zero, winning with rank
    one more than that position's maximum; a state not won that way waits
    on each of its moves' positions, and when a position's count hits
    zero, every state still waiting on it wins the same way.  A rank is
    therefore always 1 + the max rank over some move's full successor set,
    so ranks strictly decrease along any rank-minimizing strategy and bound
    the rounds to capture.

    Ranks are -1 until known.  Everything lives in flat int arrays of
    linked lists ended by -1: each state heads a list of edges to the
    positions counting it down, and each position a list of waiter edges
    from its waiting states, newest first.  When one win completes several
    positions, their waiters are woken in waiter-edge creation order.
    """

    def __init__(self, table, cap):
        self.table = table
        self.cap = cap
        self.n = table.n
        self.cop_base = {}  # cop tuple -> its id << n
        self.cop_tuples = []
        self.index = {}
        self.keys = []
        self.expanded = 0
        self.rank = []
        self.head = array("i")  # per state: newest edge to a position
        self.pos = {}  # position key -> position id
        self.count = array("i")  # per position: successors not yet winning
        self.maxk = array("i")  # per position: largest successor rank so far
        self.waiters = array("i")  # per position: newest waiter edge
        self.target = array("i")  # per edge: the position it counts down
        self.next = array("i")  # per edge: the next older edge
        self.owner = array("i")  # per waiter edge: the waiting state
        self.wnext = array("i")  # per waiter edge: the next older one
        self.wins = deque()

    def base(self, cops):
        """Key of the cop tuple with an empty belief; OR a mask into it."""
        base = self.cop_base.get(cops)
        if base is None:
            base = self.cop_base[cops] = len(self.cop_tuples) << self.n
            self.cop_tuples.append(cops)
        return base

    def intern(self, key):
        idx = self.index.get(key)
        if idx is None:
            if len(self.keys) >= self.cap:
                raise _CapExceeded
            idx = self.index[key] = len(self.keys)
            self.keys.append(key)
            self.rank.append(-1)
            self.head.append(-1)
        return idx

    def state(self, idx):
        """(cops, belief mask) of an interned state."""
        key = self.keys[idx]
        return self.cop_tuples[key >> self.n], key & self.table.full

    def settle(self, goal):
        """Expand pending states breadth-first, propagating wins after each
        expansion, until every goal state is ranked or nothing is pending.

        An unranked goal state on return is a robber win: its whole
        reachable arena has been expanded and propagated to fixpoint.
        """
        rank, keys = self.rank, self.keys
        for i in goal:
            while rank[i] < 0 and self.expanded < len(keys):
                self.expanded += 1
                self._expand(self.expanded - 1)
                if self.wins:
                    self._propagate()

    def _position(self, key, base, beliefs):
        """Intern a new position whose reply is `beliefs`, interning its
        successors in that order; returns its id."""
        index, rank, head = self.index, self.rank, self.head
        intern = self.intern
        succs = set()
        for b in beliefs:
            k = base | b
            t = index.get(k)
            succs.add(intern(k) if t is None else t)
        p = self.pos[key] = len(self.count)
        target, nexts = self.target, self.next
        first = e = len(target)
        known = 0
        for t in succs:
            r = rank[t]
            if r < 0:
                target.append(p)
                nexts.append(head[t])
                head[t] = e
                e += 1
            elif r > known:
                known = r
        self.count.append(e - first)
        self.maxk.append(known)
        self.waiters.append(-1)
        return p

    def _expand(self, idx):
        table = self.table
        cops, bmask = self.state(idx)
        pos, cop_base, count = self.pos, self.cop_base, self.count
        reply, position = table.reply, self._position
        waits = []
        for move, rep, tables, free, rfree, vis in table.frame_rows(cops):
            base = cop_base.get(rep)
            if base is None:
                base = self.base(rep)
            bf = bmask & free
            if tables is not None:
                bf = chunk_union(tables, bf)
            key = base | bf
            p = pos.get(key)
            if p is None:
                p = position(key, base, reply(bf, rfree, vis))
            if not count[p]:
                # every successor already winning (or immediate capture)
                self.rank[idx] = 1 + self.maxk[p]
                self.wins.append(idx)
                return
            waits.append(p)
        waiters, owner, wnext = self.waiters, self.owner, self.wnext
        for p in waits:
            wnext.append(waiters[p])
            waiters[p] = len(owner)
            owner.append(idx)

    def _propagate(self):
        rank, count, maxk = self.rank, self.count, self.maxk
        head, target, nexts = self.head, self.target, self.next
        waiters, owner, wnext = self.waiters, self.owner, self.wnext
        wins = self.wins
        while wins:
            t = wins.popleft()
            r = rank[t]
            woken = []
            e = head[t]
            while e >= 0:
                p = target[e]
                if r > maxk[p]:
                    maxk[p] = r
                c = count[p] = count[p] - 1
                if c == 0:
                    w = waiters[p]
                    while w >= 0:
                        woken.append((w, maxk[p] + 1))
                        w = wnext[w]
                e = nexts[e]
            woken.sort()
            for w, k in woken:
                s = owner[w]
                if rank[s] < 0:
                    rank[s] = k
                    wins.append(s)


def first_placement(graph, num_cops):
    """The starting placement `solve` settles (cops may share a vertex): the
    most spread-out one, by largest total pairwise distance, ties
    lexicographic."""
    dist = graph.distances()
    return min(
        combinations_with_replacement(range(graph.n), num_cops),
        key=lambda p: (-sum(dist[a][b] for a, b in combinations(p, 2)), p),
    )


def _back(back, frame):
    """The map to real labels after a move: `back` (from the current
    representative frame to real labels, None for the identity) composed
    with the inverse of the new cops' frame."""
    if frame is None:
        return back
    inv = [0] * len(frame)
    for v, u in enumerate(frame):
        inv[u] = v
    return tuple(inv) if back is None else tuple([back[u] for u in inv])


def _relabel(perm, mask):
    """The image of a belief mask under a permutation (None is the
    identity)."""
    if perm is None:
        return mask
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << perm[b.bit_length() - 1]
        mask ^= b
    return out


def _lift(back, cops, move):
    """A joint move of cops seen in a representative frame, in real labels:
    each cop's target mapped through `back`, aligned with the sorted real
    cops."""
    if back is None:
        return move
    pairs = sorted(zip([back[c] for c in cops], [back[t] for t in move]))
    return tuple(t for _, t in pairs)


def _extract(arena, table, placement, init_idxs):
    """Deterministic strategy read-off from a solved arena, in real labels.

    At each winning arena state, the best move is the one minimizing the
    worst successor rank, ties broken by lexicographically least joint
    move.  A move's successors are its `reply`'s beliefs looked up in the
    arena without interning, whether or not an expansion reached its
    position.  Moves with a successor that was never interned or never
    ranked (expansion stopped early once a state was known winning, or
    settling once the placement was decided) are skipped.

    Arena states live in representative frames, and a real state can have
    several images there (isomorphic states the arena never identified)
    with different ranks, because ranks are first found.  So every (real
    state, image) pair reachable by lifting each image's best move to real
    labels is collected first, composing the frames on the way, and then
    each real state plays the lifted best move of its lowest-ranked image.
    Each successor of that move has an image of lower rank, so ranks
    strictly decrease along play.  Returns the certificate, in real labels,
    with its exact worst-case round count as the bound.
    """
    rank, frame_of = arena.rank, table.spec.graph.frame
    best = {}

    def best_move(idx):
        if idx not in best:
            top = None
            cops, bmask = arena.state(idx)
            for move, rep, tables, free, rfree, vis in table.frame_rows(cops):
                bf = bmask & free
                if tables is not None:
                    bf = chunk_union(tables, bf)
                base = arena.cop_base.get(rep)
                succs = {
                    None if base is None else arena.index.get(base | b)
                    for b in table.reply(bf, rfree, vis)
                }
                if any(t is None or rank[t] < 0 for t in succs):
                    continue
                key = (max((rank[t] for t in succs), default=0), move)
                if top is None or key < top[0]:
                    top = (key, move, tables, succs)
            _, move, tables, succs = top
            frame = None
            if tables is not None:
                frame = frame_of(tuple(sorted(move)))[1]
            best[idx] = move, frame, succs
        return best[idx]

    back = _back(None, frame_of(placement)[1])
    starts = [(placement, _relabel(back, arena.state(i)[1])) for i in init_idxs]
    stack = [(s, i, back) for s, i in zip(starts, init_idxs)]
    seen = set()
    options = {}  # real state -> (rank, move, successors) of its least image
    while stack:
        state, idx, back = stack.pop()
        if (state, idx) in seen:
            continue
        seen.add((state, idx))
        move, frame, succs = best_move(idx)
        move = _lift(back, arena.state(idx)[0], move)
        cops, after = tuple(sorted(move)), _back(back, frame)
        reals = [(cops, _relabel(after, arena.state(t)[1])) for t in succs]
        if state not in options or rank[idx] < options[state][0]:
            options[state] = (rank[idx], move, reals)
        stack.extend(zip(reals, succs, [after] * len(reals)))

    moves, rounds = {}, {}
    stack = [(s, False) for s in starts]
    while stack:
        state, done = stack.pop()
        _, move, succs = options[state]
        if done:
            rounds[state] = 1 + max((rounds[t] for t in succs), default=0)
        elif state not in moves:
            moves[state] = move
            stack.append((state, True))
            stack.extend((t, False) for t in succs if t not in moves)
    bound = max(rounds[s] for s in starts)
    return Certificate(placement, MappingProxyType(moves), bound)


def _blind_search(table, placement, state_cap):
    """Shortest capture in a blind spec, by breadth-first search.

    The placement's states are expanded level by level from its initial
    state, moves in `joint_moves` order, until a move captures: the cops
    cover the belief, or the robber has nowhere safe.  States are kept in
    their cops' representative frame.  A reached state is kept only if no
    kept state with the same (representative) cops has a belief inside its
    own (see the module docstring), so per cop tuple the least kept
    beliefs form an antichain.  The capturing path is then replayed in the
    graph's own labels (`_replay_path`).
    """
    num_cops = table.spec.num_cops
    cops_of, belief_of, via = [], [], []  # per kept state
    parent = array("i")
    minimal = {}  # cop tuple -> the antichain of its least kept beliefs

    def keep(cops, bmask, p, move):
        least = minimal.get(cops, ())
        for m in least:
            if not m & ~bmask:
                return
        if len(belief_of) >= state_cap:
            raise _CapExceeded
        minimal[cops] = [m for m in least if bmask & ~m] + [bmask]
        cops_of.append(cops)
        belief_of.append(bmask)
        parent.append(p)
        via.append(move)

    rep = table.spec.graph.frame(placement)[0]
    keep(rep, table.initial(rep)[0], -1, None)
    lo = 0
    while lo < len(belief_of):
        hi = len(belief_of)
        for i in range(lo, hi):
            bmask = belief_of[i]
            for move, cops, tables, free, rfree, vis in table.frame_rows(cops_of[i]):
                bf = bmask & free
                if tables is not None:
                    bf = chunk_union(tables, bf)
                after = table.reply(bf, rfree, vis)
                if not after:
                    path = []
                    while i >= 0:
                        path.append((cops_of[i], move))
                        i, move = parent[i], via[i]
                    cert = _replay_path(table, placement, path[::-1])
                    return SolveResult("cop_win", num_cops, cert, len(belief_of))
                keep(cops, after[0], i, move)
        lo = hi
    return SolveResult("robber_win", num_cops, states_explored=len(belief_of))


def _replay_path(table, placement, path):
    """The certificate of a blind capture found in representative frames.

    path lists (cops, move) from the kept initial state to the capturing
    move.  It is replayed forward from the placement in real labels: each
    move is lifted through the map back from its state's frame, which
    composes the frames of the new cops along the way, and the real belief
    follows from `reply`.
    """
    frame_of = table.spec.graph.frame
    back = _back(None, frame_of(placement)[1])
    cops, bmask = placement, table.initial(placement)[0]
    moves = {}
    for rep, move in path:
        real = moves[cops, bmask] = _lift(back, rep, move)
        back = _back(back, frame_of(tuple(sorted(move)))[1])
        cops = tuple(sorted(real))
        free, vis = table.masks(cops)
        after = table.reply(bmask & free, free, vis)
        bmask = after[0] if after else 0
    return Certificate(placement, MappingProxyType(moves), len(path))


@lru_cache(maxsize=1)
def _solve(spec, placement, state_cap):
    """Settle one sorted placement on a fresh arena until its initial
    states are decided; a cop win comes with its certificate.  Blind specs
    go to `_blind_search` instead.  Either search raises `_CapExceeded`
    when it would keep state number state_cap + 1, and only here does that
    become "undecided", with the cap as its states explored.

    The latest call is remembered, so certifying the placement `solve` has
    just settled does not solve it again.  Callers pass all three arguments
    positionally: a keyword call would be another cache key.
    """
    if state_cap < 1:
        raise ValueError("state cap must be at least 1")
    table = TransitionTable(spec)
    blocks = table.initial(placement)
    if not blocks:
        # the cops cover the whole graph: immediate win
        cert = Certificate(placement, MappingProxyType({}), 0)
        return SolveResult("cop_win", spec.num_cops, cert)
    try:
        if table.blind:
            return _blind_search(table, placement, state_cap)
        arena = _Arena(table, state_cap)
        rep = spec.graph.frame(placement)[0]
        base = arena.base(rep)
        idxs = [arena.intern(base | b) for b in table.initial(rep)]
        arena.settle(idxs)
    except _CapExceeded:
        return SolveResult("undecided", spec.num_cops, states_explored=state_cap)
    if any(arena.rank[i] < 0 for i in idxs):
        return SolveResult(
            "robber_win", spec.num_cops, states_explored=len(arena.index)
        )
    cert = _extract(arena, table, placement, idxs)
    return SolveResult("cop_win", spec.num_cops, cert, len(arena.index))


def solve(spec, *, state_cap=STATE_CAP):
    """Decide whether the spec's cops can guarantee capture from some start.

    One placement decides this (see the module docstring), so only
    `first_placement` is settled, by `_solve`; a cop win is returned with
    its certificate.  `_solve` remembers its latest result, so
    `extract_certificate` on the placement just won, with state_cap at
    `STATE_CAP`, returns that same result's certificate without solving
    again.

    state_cap, at least 1 (`_solve` raises ValueError otherwise), bounds
    the cop-to-move states interned, whose cops are always their orbit's
    representative (the kept states in a blind spec), not the
    robber-to-move positions the arena also holds, which can far outnumber
    them; it is a bound on work, not on memory.
    """
    return _solve(spec, first_placement(spec.graph, spec.num_cops), state_cap)


def cached_solve(graph, rule, cops, cache, *, state_cap=STATE_CAP):
    """Winnability via the cache, as the JSON-safe record of
    `result_record`; `cache.hits` counts the lookups it answered.  Undecided
    outcomes are never stored, so a later run with a larger cap can settle
    them.  The key holds `effective_rule`'s rule, so a blind hyperopic
    rule shares the zero-visibility record.  A cop count the spec refuses,
    or a state cap below 1, raises ValueError before the cache is asked,
    so a warm cache refuses them as a cold one does.
    """
    spec = GameSpec(graph, effective_rule(graph, rule), cops)
    if state_cap < 1:
        raise ValueError("state cap must be at least 1")
    # through the module, where perfbench/trace_layers.py rebinds it
    key = (formats.encode_graph6(graph), spec.rule.kind, spec.rule.k, cops)
    hit = cache.get(key)
    if hit is not None:
        return hit
    res = solve(spec, state_cap=state_cap)
    record = result_record(res)
    if res.status != "undecided":
        cache.put(key, record)
    return record


def search_cop_number(graph, rule, *, bound=None, cache=None, state_cap=STATE_CAP):
    """Walk cop counts 1, 2, ..., min(bound, cop_cap(n)) until one is not a
    robber win, deciding each level through `cached_solve`.

    Without a cache an in-memory one is used.  Returns (cops, record): the
    last level tried and its `result_record`, whose status says why the
    walk stopped.  "cop_win" means cops is the least winning count,
    "undecided" that the state cap was hit at cops, and "robber_win" that
    every level up to cops, which is below `cop_cap(n)`, loses.  Raises
    AssertionError when every level up to `cop_cap(n)` loses, since that
    many cops always win.
    """
    upper = cop_cap(graph.n) if bound is None else min(bound, cop_cap(graph.n))
    if upper < 1:
        raise ValueError("cop bound must be at least 1")
    if cache is None:
        cache = ResultCache(None)
    for cops in range(1, upper + 1):
        record = cached_solve(graph, rule, cops, cache, state_cap=state_cap)
        if record["status"] != "robber_win":
            return cops, record
    if upper == cop_cap(graph.n):
        raise AssertionError("no winning cop count below the matching cap")
    return upper, record


def cop_number(graph, rule, *, state_cap=STATE_CAP):
    """Least number of cops that win, from `search_cop_number`.

    Raises UndecidedError when a level hits the state cap ("undecided:
    limit"), since higher levels were not ruled out.
    """
    c, record = search_cop_number(graph, rule, state_cap=state_cap)
    # perfbench/test_perfbench.py finds the `return c` below by its text
    match record["status"]:
        case "cop_win":
            return c
    raise UndecidedError(
        f"undecided: limit (state cap {state_cap} hit at {c} cops)"
    )


def extract_certificate(spec, placement):
    """Winning strategy for a cop-winning placement, checked by
    `check.check_certificate`.

    The placement is settled by `_solve` under `STATE_CAP`.  `_solve`
    returns its remembered result when its latest call asked the same spec
    and placement with that cap (as `solve` does by default when it won on
    this very placement), and solves afresh otherwise.  Either way the
    strategy is then played against every robber on vertex sets, sharing
    nothing with the search; a bad certificate raises AssertionError
    instead of being returned.
    """
    placement = tuple(sorted(placement))
    if len(placement) != spec.num_cops:
        raise ValueError(f"placement must list {spec.num_cops} cop positions")
    for v in placement:
        if not 0 <= v < spec.graph.n:
            raise ValueError(
                f"placement vertex {v} is not in range(0, {spec.graph.n})"
            )
    res = _solve(spec, placement, STATE_CAP)
    if res.status == "undecided":
        raise UndecidedError(f"undecided: limit (state cap {STATE_CAP} hit)")
    if not res.is_cop_win:
        raise ValueError(f"placement {placement} is not cop-winning")
    check_certificate(spec.graph, spec.rule, res.certificate)
    return res.certificate

"""Deterministic cop policies and an adversarial policy verifier.

A policy is a deterministic machine: a starting placement and state plus a
step function mapping (internal state, current positions, belief mask) to a
joint move.  The verifier plays a policy against an omniscient robber by
exhaustive DFS over every observation branch; a policy is only ever trusted
after the verifier returns Win.

The belief the verifier hands over is exact: the set of robber positions
consistent with every sighting so far, as computed by `TransitionTable`.  A
policy that reads it knows everything its observation history could tell
it, so no policy tracks beliefs itself.

A maneuver that takes several rounds is played by `_play` from a script
state, ("script", steps, after): the joint moves still to play, and the
state to return to once they are played.  `outcome_fields` is the one
JSON form of a verifier outcome, for audit rows and the CLI alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from . import solver
from .game import NODE_CAP, GameSpec, TransitionTable, full_visibility, mask_to_set
from .graph import diameter, find_outer_embedding, is_tree, maximum_matching


@dataclass(frozen=True)
class CopPolicy:
    """A named deterministic cop strategy.

    The cops start on placement (a tuple, one vertex per cop) in policy
    state `state`.  step(state, cops, bmask) -> (moves, state1), where cops
    are the positions this policy chose last time (in the same per-cop
    order), moves[i] must lie in the closed neighborhood of cops[i], and
    bmask is the current belief as a mask: bit v is set when the robber may
    be on vertex v given every sighting so far.  It is never 0 and never
    covers a cop.  `mask_to_set` turns it into a set.
    """

    name: str
    placement: tuple
    state: Any
    step: Callable[[Any, tuple, int], tuple]

    @property
    def num_cops(self):
        return len(self.placement)


@dataclass(frozen=True)
class Win:
    """Every observation branch reached an empty belief (capture)."""

    rounds: int


@dataclass(frozen=True)
class Evaded:
    """A policy situation repeated with the robber still at large, so the
    omniscient robber can loop forever.  witness holds the cycle as
    (cops, belief) pairs, first and last entries coinciding."""

    witness: tuple


@dataclass(frozen=True)
class Timeout:
    """The visited-node cap was exceeded before a verdict."""

    nodes: int


def outcome_fields(outcome):
    """A verifier outcome as (name, field, JSON value): ("win", "rounds",
    rounds), ("evaded", "witness", [[cops, belief], ...]) with each belief
    sorted, or ("timeout", "nodes", nodes)."""
    if isinstance(outcome, Win):
        return "win", "rounds", outcome.rounds
    if isinstance(outcome, Evaded):
        witness = [[list(c), sorted(b)] for c, b in outcome.witness]
        return "evaded", "witness", witness
    return "timeout", "nodes", outcome.nodes


def verify_policy(graph, rule, policy, *, node_cap=NODE_CAP):
    """Play a policy against the omniscient robber, exhaustively.

    DFS over all observation branches of the deterministic policy, keyed by
    (policy state, cop positions, belief mask); the policy is called once
    per node with that node's belief.  Revisiting a node on the current
    path means the robber can force that loop forever (Evaded); finishing
    every branch with capture is Win with the worst-case round count;
    exceeding node_cap is Timeout.  Illegal policy moves raise ValueError,
    as does a cop count `GameSpec` rejects.
    """
    n = graph.n
    table = TransitionTable(GameSpec(graph, rule, policy.num_cops))
    placement = policy.placement
    if any(not 0 <= v < n for v in placement):
        raise ValueError("placement vertex out of range")
    nbr = table.nbr

    def expand(node):
        state, cops, bmask = node
        moves, state1 = policy.step(state, cops, bmask)
        moves = tuple(moves)
        if len(moves) != policy.num_cops:
            raise ValueError(f"{policy.name}: joint move has wrong arity")
        for c, m in zip(cops, moves):
            if not 0 <= m < n or not (nbr[c] >> m) & 1:
                raise ValueError(f"{policy.name}: illegal move {c} -> {m}")
        free, vis1 = table.masks(moves)
        return [
            (state1, moves, blk)
            for blk in table.reply(bmask & free, free, vis1)
        ]

    memo = {}
    onpath = {}
    path = []
    visited = 0
    # frames: [node, children or None, cursor, max child rounds]; the
    # bottom frame stands for the placement, and its children are the roots
    roots = [(policy.state, placement, b) for b in table.initial(placement)]
    stack = [[None, roots, 0, 0]]
    while True:
        frame = stack[-1]
        if frame[1] is None:
            frame[1] = expand(frame[0])
        children = frame[1]
        if frame[2] < len(children):
            child = children[frame[2]]
            frame[2] += 1
            hit = memo.get(child)
            if hit is not None:
                if hit > frame[3]:
                    frame[3] = hit
                continue
            start = onpath.get(child)
            if start is not None:
                cycle = path[start:] + [child]
                witness = tuple((c, mask_to_set(b)) for _, c, b in cycle)
                return Evaded(witness)
            visited += 1
            if visited > node_cap:
                return Timeout(visited)
            onpath[child] = len(path)
            path.append(child)
            stack.append([child, None, 0, 0])
        elif len(stack) == 1:
            return Win(frame[3])
        else:
            rounds = 1 + frame[3]
            memo[frame[0]] = rounds
            path.pop()
            del onpath[frame[0]]
            stack.pop()
            if rounds > stack[-1][3]:
                stack[-1][3] = rounds


def _sole(bmask):
    """The belief's one vertex, or None when it holds several."""
    return None if bmask & (bmask - 1) else bmask.bit_length() - 1


def _step_toward(graph, a, b):
    """Deterministic next vertex on a shortest path from a to b (min id)."""
    if a == b:
        return a
    dist = graph.distances()
    return min(w for w in graph.adj[a] if dist[w][b] == dist[a][b] - 1)


def _path_between(graph, a, b):
    """Deterministic shortest path from a to b, inclusive."""
    out = [a]
    while out[-1] != b:
        out.append(_step_toward(graph, out[-1], b))
    return out


def _play(steps, after):
    """A script's first joint move, and the state that plays the rest:
    ("script", rest, after), or after once the script ends."""
    if steps[1:]:
        return steps[0], ("script", steps[1:], after)
    return steps[0], after


# ---------------------------------------------------------------------------
# Certificate replay.


def certificate_policy(graph, rule, certificate):
    """Replay a solver certificate as a policy.

    Looks the joint move up in the certificate's state-to-move map under
    (sorted cops, belief mask); a missing entry raises (a certificate is
    supposed to cover every reachable state).  graph and rule are not
    consulted: the certificate was solved for them.
    """

    def step(state, cops, bmask):
        key = (tuple(sorted(cops)), bmask)
        try:
            target = certificate.moves[key]
        except KeyError:
            raise AssertionError(
                f"certificate has no move for cops {key[0]} and belief "
                f"{sorted(mask_to_set(bmask))}"
            ) from None
        # the move is aligned to the sorted cops: hand it back by role
        order = sorted(range(len(cops)), key=lambda i: (cops[i], i))
        moves = [None] * len(cops)
        for j, i in enumerate(order):
            moves[i] = target[j]
        return tuple(moves), None

    placement = tuple(sorted(certificate.placement))
    return CopPolicy("certificate", placement, None, step)


# ---------------------------------------------------------------------------
# Matching-based strategy (zero visibility, any connected graph).


def matching_policy(graph):
    """Oscillating cops on a maximum matching, plus one sweeper if needed.

    Each matched cop flips across its edge every round, so any robber
    trajectory touching a matched vertex is captured within a round of
    doing so.  The rest is an independent set: a robber confined to it can
    never move, and the sweeper's closed walk eventually steps on it.
    """
    medges = sorted(maximum_matching(graph).edges)
    covered = {v for e in medges for v in e}
    rest = sorted(set(range(graph.n)) - covered)
    walk = _closed_walk(graph, rest)
    placement = tuple(x for x, _ in medges) + ((walk[0],) if rest else ())

    def step(state, cops, bmask):
        moves = [y if cops[i] == x else x for i, (x, y) in enumerate(medges)]
        wi = state
        if rest:
            wi = (state + 1) % len(walk)
            moves.append(walk[wi])
        return tuple(moves), wi

    return CopPolicy("matching", placement, 0, step)


def _closed_walk(graph, targets):
    """A closed walk through the target vertices in ascending order, built
    from deterministic shortest paths; [] when there is nothing to visit."""
    if not targets:
        return []
    if len(targets) == 1:
        return [targets[0]]
    walk = [targets[0]]
    for t in list(targets[1:]) + [targets[0]]:
        walk.extend(_path_between(graph, walk[-1], t)[1:])
    walk.pop()
    return walk


# ---------------------------------------------------------------------------
# Two cops on a tree, k = 2.


def tree_k2_policy(tree):
    """Adjacent cop pair clearing a tree against distance-2 invisibility.

    A visible robber is pursued directly (front cop along the unique tree
    path, rear cop keeping contact).  While the robber is hidden the pair
    sits on an edge (post, walker), and on a tree every invisible vertex is
    then a neighbor of post or of walker.  The machine runs committed
    maneuvers that never vacate both vertices at once: a 2-round bounce of
    the walker onto a suspect next to it, a 4-round loop onto a suspect
    next to the post (stacking on the post first, ending back on the
    walker, which flushes anything that crept two steps deep), and — once
    every current suspect has been bounced fruitlessly — a 2-round advance
    of the pair one edge toward the remaining belief.  Each advance turns
    the leftovers into walker-side suspects again and moves the pair
    strictly toward the belief, so the hidden region dies by exhaustion.
    """
    if not is_tree(tree):
        raise ValueError("tree_k2_policy requires a tree")
    g = tree
    n = g.n
    if n == 1:
        placement = (0, 0)
    else:
        leaf = min(v for v in range(n) if g.degree(v) == 1)
        placement = (leaf, g.adj[leaf][0])

    def pursuit_move(target, cops):
        dist = g.distances()
        front = min(range(2), key=lambda i: (dist[cops[i]][target], cops[i], i))
        rear = 1 - front
        moves = [None, None]
        moves[front] = _step_toward(g, cops[front], target)
        if dist[cops[rear]][moves[front]] > 1:
            moves[rear] = _step_toward(g, cops[rear], moves[front])
        else:
            moves[rear] = cops[rear]
        return tuple(moves), front

    def commit(belief, a, j, stomped):
        """Choose the next committed maneuver at rest with the post on a
        and the walker on j, as (post, walker) steps."""
        if a == j:
            # stacked after a sight loss: split toward the belief
            return ((_step_toward(g, a, min(belief)), a),), frozenset()
        fj = sorted((belief & set(g.adj[j])) - {a} - stomped)
        fa = sorted((belief & set(g.adj[a])) - {j} - stomped)
        if fj:
            t = fj[0]
            return ((a, t), (a, j)), stomped | {t}
        if fa:
            t = fa[0]
            return ((a, a), (a, t), (a, a), (a, j)), stomped | {t}
        # advance one edge toward the remaining belief
        x = _step_toward(g, a, min(belief))
        if x == j:
            x = _step_toward(g, j, min(belief))
            return ((j, j), (x, j)), frozenset()
        return ((a, a), (x, a)), frozenset()

    def step(state, cops, bmask):
        target = _sole(bmask)
        if target is not None:
            moves, front = pursuit_move(target, cops)
            return moves, (front, frozenset())
        if state[0] == "script":
            return _play(*state[1:])
        post_role, stomped = state
        post, walker = cops[post_role], cops[1 - post_role]
        steps, stomped = commit(mask_to_set(bmask), post, walker, stomped)
        if post_role:
            steps = tuple((w, p) for p, w in steps)
        return _play(steps, (post_role, stomped))

    # post = the leaf's neighbor (role 1), walker = the leaf (role 0); at
    # rest the state is (post_role, stomped suspects)
    return CopPolicy("tree2", placement, (1, frozenset()), step)


# ---------------------------------------------------------------------------
# Pendant-path strategy on trees (two cops, hyperopic k).


def pendant_path_policy(tree, k):
    """Park one cop on the tip of a pendant path of k-1 vertices; the
    second cop pursues sighted robbers and clears the invisible pocket.

    With c1 parked on the pendant leaf, a robber can only ever be invisible
    inside the pocket: the pendant path, its attachment vertex u, and u's
    neighbors.  c2 chases any sighted robber directly; while the robber is
    hidden, c2 walks to u, bounces onto each branch neighbor of u and back
    (the returns catch anything slipping across u), then sweeps down the
    pendant path squeezing what is left onto the parked cop.
    """
    if not is_tree(tree):
        raise ValueError("pendant_path_policy requires a tree")
    if k < 2:
        raise ValueError("pendant_path_policy requires k >= 2")
    g = tree
    found = None
    for leaf in sorted(v for v in range(g.n) if g.degree(v) == 1):
        run = [leaf]
        prev, cur = leaf, g.adj[leaf][0]
        while g.degree(cur) == 2:
            run.append(cur)
            prev, cur = cur, next(w for w in g.adj[cur] if w != prev)
        run.append(cur)
        if len(run) >= k:
            found = run
            break
    if found is None:
        raise ValueError("no pendant path of required length")
    pendant = found[: k - 1]
    u = found[k - 1]
    v1 = pendant[0]
    branches = sorted(set(g.adj[u]) - {pendant[-1]})
    sweep = []
    for b in branches:
        sweep += [b, u]
    sweep += list(reversed(pendant[1:]))
    return _parked_hunter("pendant", g, (v1,), u, sweep)


def _parked_hunter(name, g, parked, home, sweep):
    """Cops that never leave the parked vertices, plus one hunter.

    The hunter steps toward a sighted robber.  Otherwise it walks to home
    and, once there, runs the sweep one vertex per round.  The policy state
    is the rest of the sweep.  A sighting clears it to (), as if the sweep
    had finished: a lost chase walks home and starts over.
    """
    parked, sweep = tuple(parked), tuple(sweep)

    def step(rest, cops, bmask):
        hunter = cops[-1]
        target = _sole(bmask)
        if target is not None:
            return parked + (_step_toward(g, hunter, target),), ()
        if not rest:
            if hunter != home or not sweep:
                return parked + (_step_toward(g, hunter, home),), ()
            rest = sweep
        return parked + (rest[0],), rest[1:]

    return CopPolicy(name, parked + (home,), (), step)


# ---------------------------------------------------------------------------
# Stationary diametral pair (general graphs) / anchored pair (trees).


def stationary_pair_policy(graph, k):
    """Two parked cops exploit a large diameter; pursuit finishes the game.

    General graphs need diameter >= 2k+1: cops parked on a diametral pair
    can never both be within k of the robber, so it stays visible forever,
    and extra cops replay a winning strategy for the always-visible game.

    Trees need only diameter >= 2k-1 and exactly two cops: c1 parks on a
    diametral endpoint y0, making everything strictly beyond the cut edge
    (y_{k-1}, y_k) visible, while c2 holds y_k.  A robber on the far side
    is chased down directly (it can never cross the held cut); otherwise c1
    relocates along the diametral path to y_{2k-1} with c2 sealing y_k,
    after which only y_{k-1} can ever be invisible and c2 hunts a robber
    whose position is always known exactly.
    """
    if k < 1:
        raise ValueError("stationary_pair_policy requires k >= 1")
    g = graph
    diam = diameter(g)
    if is_tree(g) and diam >= 2 * k - 1:
        return _stationary_tree(g, k)
    if diam >= 2 * k + 1:
        return _stationary_general(g, k)
    raise ValueError(
        f"diameter {diam} too small: need >= {2 * k + 1} "
        f"(or >= {2 * k - 1} on a tree)"
    )


def _diametral_pair(graph):
    dist = graph.distances()
    diam = max(max(row) for row in dist)
    return min(
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if dist[u][v] == diam
    )


def _stationary_tree(g, k):
    x, y = _diametral_pair(g)
    spine = _path_between(g, x, y)
    dist = g.distances()
    yk, ykm1 = spine[k], spine[k - 1]
    u = spine[2 * k - 1]
    in_far = [dist[v][ykm1] == dist[v][yk] + 1 for v in range(g.n)]
    reloc = tuple((v, yk) for v in _path_between(g, spine[0], u)[1:])

    # The state is None before the first round, then either the relocation
    # script, which ends on u, or the vertex c1 stays parked on while c2
    # chases the robber, which stays visible from then on.
    def step(state, cops, bmask):
        if state is None:
            if not all(in_far[v] for v in mask_to_set(bmask)):
                return _play(reloc, u)
            state = spine[0]
        elif isinstance(state, tuple):
            return _play(*state[1:])
        t = _sole(bmask)
        if t is None:
            raise AssertionError("the parked cop must keep the robber visible")
        return (state, _step_toward(g, cops[1], t)), state

    return CopPolicy("stationary", (spine[0], yk), None, step)


def _stationary_general(g, k):
    x, y = _diametral_pair(g)
    rule = full_visibility()
    # through the module, where perfbench/trace_layers.py rebinds them
    spec = GameSpec(g, rule, solver.cop_number(g, rule))
    cert = solver.solve(spec).certificate
    pursuit = certificate_policy(g, rule, cert)

    def step(state, cops, bmask):
        if _sole(bmask) is None:
            raise AssertionError("diametral parking must keep the robber visible")
        return (x, y) + pursuit.step(None, cops[2:], bmask)[0], None

    return CopPolicy("stationary", (x, y) + pursuit.placement, None, step)


# ---------------------------------------------------------------------------
# Three cops on a near-diametral tree.


def tree_near_diam_policy(tree, k):
    """Parked diametral pair plus one hunter on the small middle region.

    When 2k-3 <= diam <= 2k-2, the vertices that can ever be invisible from
    the parked diametral pair form a short caterpillar around the tree's
    center.  The third cop chases any sighted robber, and otherwise sweeps
    that caterpillar spine vertex by spine vertex, bouncing onto each leaf
    and back (the returns catch anything crossing behind it), restarting
    the sweep from its head whenever a chase loses sight again.
    """
    if not is_tree(tree):
        raise ValueError("tree_near_diam_policy requires a tree")
    if tree.n < 3:
        raise ValueError("tree_near_diam_policy requires at least 3 vertices")
    g = tree
    diam = diameter(g)
    if not 2 * k - 3 <= diam <= 2 * k - 2:
        raise ValueError(f"diameter {diam} outside [{2 * k - 3}, {2 * k - 2}]")
    x, y = _diametral_pair(g)
    dist = g.distances()
    region = sorted(v for v in range(g.n) if dist[v][x] <= k and dist[v][y] <= k)
    rset = set(region)
    deg_in = {v: sum(1 for w in g.adj[v] if w in rset) for v in region}
    spine = sorted(v for v in region if deg_in[v] >= 2)
    if not spine:
        spine = [region[0]]
    sweep = [spine[0]]
    for s in spine:
        if sweep[-1] != s:
            sweep.append(s)
        for leaf in sorted(w for w in g.adj[s] if w in rset and deg_in[w] <= 1):
            sweep += [leaf, s]
    return _parked_hunter("neardiam", g, (x, y), sweep[0], sweep[1:])


# ---------------------------------------------------------------------------
# Two cops on a 2-connected outerplanar graph, k = 2.


def outerplanar_k2_policy(graph):
    """Anchor-territory machine on the outer cycle of a 2-connected
    outerplanar graph, two cops, distance-2 invisibility.

    The cops hold a *front*: two outer-cycle vertices whose clockwise arc
    (the territory) is known robber-free and is joined to the rest of the
    graph only through the two occupied endpoints -- in an outerplanar
    embedding no chord can cross another, so a chord spanning the front
    would cross one of the chords that delimited it.  Every maneuver
    enlarges the territory, or re-anchors it behind a chord that fences
    the robber into a smaller arc, and rests only in positions where the
    same two guarantees hold again:

    * with no chord leaving an endpoint, that cop simply walks away from
      the territory through the degree-2 stretch to the next branch
      vertex, sweeping it;
    * a chord from an endpoint to the far side cuts off a pocket; when
      the strip behind the chord is short the far cop crosses over in one
      or two moves, and otherwise a two-round probe (each cop bouncing
      off its seat and back, which is always safe: a robber stepping onto
      a vacated seat is captured by the returning cop before it can move
      on) makes the strip visible and the belief tells which side
      of the chord the robber is on;
    * to claim a pocket the far cop alternates across the fencing chord
      -- alternation between adjacent vertices seals both of them, since
      whichever of the two a robber steps onto is the next cop move's
      target -- while its partner walks around to the chord's far end.

    Each maneuver is written once, for the right endpoint.  Reading the
    outer cycle the other way round (position p becomes -p mod n) makes
    the left endpoint the right one: the front (i, j) becomes (-j, -i),
    with the same territory, and chords, distances and the no-crossing
    argument do not depend on the direction of reading.  So the left
    maneuver is the right one run on the reflected cycle, with each joint
    move's pair swapped (the left cop plays the reflected right cop) and
    its positions reflected back.

    One front has no maneuver: a territory of a single vertex, with chords
    from both endpoints.  There the cops hold the front, so a robber that
    keeps away evades, and the policy loses on some labellings of graphs
    that two cops win.

    Each branch is taken on the exact belief the cops are handed, so on
    what they actually know.  A state, (front, mode), keeps no round count
    or history, so states come from a finite set and `verify_policy`
    always reaches a verdict.  A script's state is ("script", steps,
    after), with no front: no script step reads it, and the front the
    script ends on is in ``after``.
    """
    g = graph
    cycle = find_outer_embedding(g)
    if cycle is None or g.n < 3 or len(g.edges) < g.n:
        raise ValueError(
            "outerplanar_k2_policy requires a 2-connected outerplanar graph"
        )
    n = g.n
    dist = g.distances()
    adj = g.adj

    def npos(p):
        return (p + 1) % n

    def ppos(p):
        return (p - 1) % n

    def arc(a, b):
        """Positions strictly inside the clockwise arc from a to b."""
        out = []
        p = npos(a)
        while p != b:
            out.append(p)
            p = npos(p)
        return out

    def verts(cyc, a, b):
        """Vertices of cyc strictly inside its clockwise arc from a to b."""
        return {cyc[p] for p in arc(a, b)}

    # --- maneuver builders ---------------------------------------------
    # A script is a tuple of joint moves (left cop target, right cop
    # target); ``after`` is the policy state, (front, mode), it leaves.

    def right_hand(cyc):
        """The right endpoint's maneuvers, read on the outer cycle cyc."""
        pos = {v: p for p, v in enumerate(cyc)}

        def far(i, j):
            # Farthest neighbour of the right endpoint inside the open
            # side, measured clockwise from it.
            span = (i - j) % n
            best, bestoff = None, 0
            for w in adj[cyc[j]]:
                off = (pos[w] - j) % n
                if 0 < off < span and off > bestoff:
                    best, bestoff = pos[w], off
            return best

        def walk(i, j):
            # No chord leaves the right endpoint: its cop walks clockwise
            # through the degree-2 stretch to the next branch vertex.
            out = []
            p = npos(j)
            while True:
                out.append(p)
                if len(adj[cyc[p]]) >= 3 or p == ppos(i):
                    break
                p = npos(p)
            steps = tuple((cyc[i], cyc[q]) for q in out)
            return steps, ((i, out[-1]), ("rest",))

        def rest(i, j):
            """The maneuvers tried at rest on front (i, j), in order; None
            stands for one that does not apply."""
            f0, f1 = cyc[i], cyc[j]
            m = far(i, j)
            yield walk(i, j) if m == npos(j) else None
            t = ((i - m) % n) - 1
            yield (((cyc[m], f1),), ((m, j), ("rest",))) if t == 0 else None
            u = ppos(i)
            if t == 1:
                yield ((cyc[u], cyc[m]), (cyc[m], f1)), ((m, j), ("rest",))
            else:
                yield None
            # Both endpoints own a chord into the open side and both
            # strips behind those chords are long.  The pocket behind the
            # right fencing chord is fully visible from the strip vertex
            # beside the left endpoint when the chord end is not adjacent
            # to it (every path out of the pocket needs at least two more
            # edges to reach it), so bounce there while the partner
            # sweeps the chord end.
            if cyc[m] not in adj[cyc[u]]:
                yield ((cyc[u], cyc[m]), (f0, f1)), ((i, j), ("postprobe", "R", m))
            else:
                yield None

        def probe(i, j, m):
            # Two-round bounce probe.  One cop bounces to a territory vertex
            # beside the far endpoint, from where every strip vertex is at
            # distance three or more and hence visible; its partner bounces
            # across the (structurally forced) endpoint-to-chord-end chord,
            # keeping the chord end occupied for the probing round.  A robber
            # stepping onto either vacated seat is captured by the returning
            # cop before it can move on.
            f0, f1, mv = cyc[i], cyc[j], cyc[m]
            tverts = verts(cyc, i, j)
            assert mv in adj[f0]
            v = max(
                (w for w in adj[f1] if w in tverts),
                key=lambda w: (dist[w][f0], -w),
            )
            return ((mv, v), (f0, f1)), ((i, j), ("postprobe", "R", m))

        def claim_pocket(i, j, m):
            # Right cop alternates across the fencing chord while the left cop
            # rounds the far side to the chord's end, arriving as the
            # alternator swings home.
            f0, f1, mv = cyc[i], cyc[j], cyc[m]
            if mv in adj[f0]:
                route = [m]
            else:
                route = []
                p = ppos(i)
                while p != m:
                    route.append(p)
                    p = ppos(p)
                route.append(m)
            stall = len(route) % 2
            steps = []
            for r in range(1, len(route) + stall + 1):
                cr = mv if r % 2 == 1 else f1
                cl = f0 if r <= stall else cyc[route[r - stall - 1]]
                steps.append((cl, cr))
            return tuple(steps), ((m, j), ("rest",))

        def postprobe(belief, m, front):
            i, j = front
            pocket = verts(cyc, j, m)
            strip = verts(cyc, m, i)
            assert belief <= pocket | strip | {cyc[m]}
            if not belief & strip:
                return claim_pocket(i, j, m)
            if not belief & pocket:
                return ((cyc[i], cyc[m]),), ((i, m), ("rest",))
            raise AssertionError(
                "probe left belief straddling the fencing chord: %r"
                % sorted(belief)
            )

        return far, rest, probe, postprobe

    far_r, rest_r, probe_r, post_r = right_hand(cycle)
    far_l, rest_l, probe_l, post_l = right_hand(
        tuple(cycle[-p % n] for p in range(n))
    )

    def mirror(front):
        """A front's positions on the reflected cycle, and back."""
        i, j = front
        return (-j % n, -i % n)

    def unflip(result):
        """A maneuver on the reflected cycle, in this cycle's terms."""
        steps, (front, mode) = result
        if mode[0] == "postprobe":
            mode = ("postprobe", "L", -mode[2] % n)
        return tuple((r, l) for l, r in steps), (mirror(front), mode)

    def rest_decide(belief, front):
        i, j = front
        f0, f1 = cycle[i], cycle[j]
        side = verts(cycle, j, i)
        assert belief <= side, (
            "outerplanar front invariant broken: %r outside %r"
            % (sorted(belief - side), front)
        )
        # Each maneuver is tried on the right endpoint, then on the left,
        # before the next one is tried.
        il, jl = mirror(front)
        for right, left in zip(rest_r(i, j), rest_l(il, jl)):
            if right is not None:
                return right
            if left is not None:
                return unflip(left)
        # Strip-end-to-chord-end edges exist on both sides, which forces
        # the endpoint-to-chord-end chords: any other chord out of an
        # endpoint would cross one of them.
        m, ml = far_r(i, j), far_l(il, jl)
        assert cycle[m] in adj[f0] and cycle[-ml % n] in adj[f1]
        tverts = verts(cycle, i, j)
        if len(tverts) == 1:
            # No maneuver is known for a one-vertex territory (a probe
            # leaves the belief on both sides of the fencing chord), so
            # the cops hold the front, and a robber that keeps away loops.
            return ((f0, f1),), (front, ("rest",))
        vr = max(
            (dist[w2][f0] for w2 in adj[f1] if w2 in tverts), default=0
        )
        if vr >= 2:
            return probe_r(i, j, m)
        return unflip(probe_l(il, jl, ml))

    def postprobe_decide(belief, side, m, front):
        if side == "R":
            return post_r(belief, m, front)
        return unflip(post_l(belief, -m % n, mirror(front)))

    # --- establishment --------------------------------------------------
    deg3 = [p for p in range(n) if len(adj[cycle[p]]) >= 3]
    if deg3:
        best = None
        for idx, a in enumerate(deg3):
            b = deg3[(idx + 1) % len(deg3)]
            size = ((b - a) % n) - 1
            if best is None or size > best[0]:
                best = (size, a, b)
        _, a, b = best
        placement = (cycle[a], cycle[a])
        steps = tuple((cycle[a], cycle[q]) for q in arc(a, b) + [b])
        state0 = ("script", steps, ((a, b), ("rest",)))
    else:
        placement = (cycle[0], cycle[1])
        state0 = ((0, 1), ("rest",))

    def step(state, cops, bmask):
        if state[0] == "script":
            return _play(*state[1:])
        front, mode = state
        if mode[0] == "postprobe":
            steps, after = postprobe_decide(
                mask_to_set(bmask), mode[1], mode[2], front
            )
        else:
            steps, after = rest_decide(mask_to_set(bmask), front)
        return _play(steps, after)

    return CopPolicy("outerplanar", placement, state0, step)

"""Belief-state semantics for distance-limited pursuit on a finite graph.

The robber is omniscient and invisible to the cops whenever every cop is
within distance k of it (distance 0 is capture, not sight).  Cops therefore
play against a *belief*: the set of vertices the robber could occupy given
every observation so far.  A round is cops move jointly, observe, robber
moves, observe; each observation either pins the robber to a vertex or
reports it invisible, splitting the belief accordingly.  Visibility is also
checked once at initial placement.

`effective_rule` is where the game decides that a rule is blind: with k
at least the diameter no cop ever sees the robber, so hyperopic(k) is the
zero-visibility game.

`TransitionTable` is the one implementation of these transitions on
masks: the solver searches with it and the policy verifier replays
policies with it.  `check` plays the same rules on vertex sets, apart from
it, to check the solver's certificates.
It holds only what the rule decides; what depends on the graph alone (its
growth tables, the orbit frames of cop tuples) is kept on the `Graph`.
Beliefs are integer masks (bit v set when the robber may be on vertex v);
`mask_to_set` turns one into a vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import chunk_union, diameter


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class VisibilityRule:
    """When the cops can see the robber.

    kind "hyperopic": visible iff some cop is at distance > k from it, for
    an int k >= 1.  kind "zero": never visible.  kind "full": always
    visible.
    """

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("hyperopic", "zero", "full"):
            raise ValueError(f"unknown visibility kind {self.kind!r}")
        if self.kind == "hyperopic":
            if not _is_int(self.k) or self.k < 1:
                raise ValueError(
                    f"hyperopic rule needs an int k >= 1, got {self.k!r}"
                )
        elif self.k is not None:
            raise ValueError(f"rule {self.kind!r} takes no distance parameter")


def hyperopic(k):
    return VisibilityRule("hyperopic", k)


def zero_visibility():
    return VisibilityRule("zero")


def full_visibility():
    return VisibilityRule("full")


def effective_rule(graph, rule):
    """The rule the game on graph actually plays: zero visibility for
    hyperopic(k) with k at least the graph's diameter, else rule itself.

    With k that large no cop is ever farther than k from the robber, so no
    cop ever sees it: the transitions, the search and the result are those
    of the zero-visibility game.  The result cache stores such a game under
    the zero-visibility key, so it is solved once for every rule that makes
    it blind.
    """
    if rule.kind == "hyperopic" and rule.k >= diameter(graph):
        return zero_visibility()
    return rule


def cop_cap(n):
    """ceil(n/2)+1: one more cop than the matching bound needs on n
    vertices, so that many cops always win and no search needs more."""
    return (n + 1) // 2 + 1


# Default resource limits, reported when hit and never turned into a guess:
# STATE_CAP bounds the cop-to-move states one solve interns ("undecided"),
# NODE_CAP the nodes one policy verification visits (a Timeout).
STATE_CAP = 1_000_000
NODE_CAP = 100_000_000


@dataclass(frozen=True)
class GameSpec:
    """A graph, a visibility rule, and how many cops play.

    The cop count is an int capped at `cop_cap(n)`, which always suffices.
    """

    graph: "Graph"
    rule: VisibilityRule
    num_cops: int

    def __post_init__(self):
        if not _is_int(self.num_cops):
            raise ValueError(f"cop count must be an int, got {self.num_cops!r}")
        cap = cop_cap(self.graph.n)
        if not 1 <= self.num_cops <= cap:
            raise ValueError(
                f"cop count must be in [1, {cap}] for {self.graph.n} vertices"
            )


def joint_cop_moves(graph, cops):
    """Deduplicated joint moves from a sorted cop position tuple.

    Each cop stays or moves to a neighbor.  Moves yielding the same new
    multiset are interchangeable (cops are anonymous); the lexicographically
    least representative is kept.  Returns (move, new_positions) pairs in
    ascending move order, with move aligned to the input order.

    Moves are built one cop at a time, keeping only the least prefix per
    prefix multiset: a cop's options do not depend on the earlier cops'
    choices, so the least move to a multiset extends the least prefix of its
    own prefix multiset.  Prefixes are extended in ascending order with
    ascending options, so moves are generated in ascending order and the
    first one seen for a multiset is its least.
    """
    least = {(): ()}
    for c in cops:
        options = sorted((c, *graph.adj[c]))
        grown = {}
        for key, prefix in least.items():
            for v in options:
                grown.setdefault(tuple(sorted((*key, v))), (*prefix, v))
        least = grown
    return [(m, k) for k, m in least.items()]


class TransitionTable:
    """The game's transitions on belief masks.

    A table holds only what its rule decides.  It plays `effective_rule`,
    so it computes no visibility for a blind hyperopic rule, and takes
    everything that depends on the graph alone from the `Graph`: the
    neighborhood masks, their growth tables and the orbit frames.

    States are (sorted cop tuple, belief mask) pairs.  Each cop tuple's
    unoccupied and visibility masks, and its row list (each deduplicated
    joint move with the masks of the cops it leads to), are cached, since
    the solver revisits the same cop tuples across many beliefs.  Robber
    steps are not cached: a belief grows through the graph's per-chunk
    growth tables in ceil(n/4) lookups.

    The solver searches with the round kernel: a cop-to-move state's row
    list (`frame_rows`), where a move leaves the belief masked by the new
    cops' `free`, then `reply`, the cops' observation, the robber's reply
    and the second observation in one pass.  `cop_step` and `robber_step` are the round's
    two halves as separate steps.  The policy verifier replays policies
    with `masks`, `split` for the placement and `reply` for every round.

    `blind` is true when the effective rule is zero visibility: every
    observation is "invisible", so each step yields at most one belief.

    The game commutes with the graph's automorphisms, so the solver keeps
    one cop tuple per orbit: `Graph.frame` gives a tuple's representative
    and a fixed automorphism onto it, and `frame_rows` is the row list with
    each move's new cops carried onto their representative.
    """

    def __init__(self, spec):
        self.spec = spec
        g = spec.graph
        self.n = g.n
        self.full = (1 << g.n) - 1
        self.nbr = g.neighbor_masks()
        self._grow = g.growth()
        rule = effective_rule(g, spec.rule)
        self.blind = rule.kind == "zero"
        # per cop position: the vertices it makes the robber visible on
        if rule.kind == "hyperopic":
            dist = g.distances()
            self._far = [
                sum(1 << v for v in range(g.n) if dist[c][v] > rule.k)
                for c in range(g.n)
            ]
        else:
            self._far = [0 if self.blind else self.full] * g.n
        self._masks = {}
        self._frame_rows = {}

    def masks(self, cops):
        """(unoccupied, visible) masks for these cops: the vertices no cop
        stands on, and those a robber would be visible on."""
        pair = self._masks.get(cops)
        if pair is None:
            occ = vis = 0
            for c in cops:
                occ |= 1 << c
                vis |= self._far[c]
            pair = self._masks[cops] = (self.full & ~occ, vis)
        return pair

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

    def frame_rows(self, cops):
        """(move, rep, tables, free, rfree, rvis) per deduplicated joint
        move, in `joint_cop_moves` order: the new cops' representative, the
        chunk tables of their frame (None for the identity), the new cops'
        free mask and the representative's `masks`.

        A move's belief masked by free and mapped through the tables
        (`Graph.frame_tables`) is the belief of the same robber-to-move
        position seen from the representative.
        """
        rows = self._frame_rows.get(cops)
        if rows is None:
            rows = self._frame_rows[cops] = []
            g, masks = self.spec.graph, self.masks
            for move, newcops in joint_cop_moves(g, cops):
                free, vis = masks(newcops)
                rep, frame = g.frame(newcops)
                if frame is None:
                    rows.append((move, newcops, None, free, free, vis))
                else:
                    tables = g.frame_tables(frame)
                    rows.append((move, rep, tables, free, *masks(rep)))
        return rows

    def joint_moves(self, cops):
        return joint_cop_moves(self.spec.graph, cops)

    def initial(self, placement):
        """Belief masks after placing cops; [] means the placement covers
        every vertex (immediate win)."""
        free, vis = self.masks(placement)
        return self.split(free, vis)

    def cop_step(self, cops, bmask):
        """(move, newcops, blocks) per deduplicated joint move; blocks is []
        when the move captures every belief vertex."""
        split, masks = self.split, self.masks
        out = []
        for move, newcops in joint_cop_moves(self.spec.graph, cops):
            free, vis = masks(newcops)
            out.append((move, newcops, split(bmask & free, vis)))
        return out

    def reply(self, bf, free, vis):
        """The robber's half round from a robber-to-move position.

        bf is the belief left after the cops moved (the belief masked by
        free), and free and vis are the new cops' `masks`.  Returns the
        beliefs after the cops observe, the robber replies and the cops
        observe again: `split(bf, vis)`'s blocks, each expanded by
        `robber_step`, in that order with duplicates kept.  [] means the
        cops captured.  A visible singleton grows by its closed
        neighborhood, the invisible rest through the chunk tables; each
        growth is then split like `split` does.
        """
        nbr, grow = self.nbr, self._grow
        beliefs = []
        hid = free & ~vis
        seen = bf & vis
        rest = bf & hid
        while seen or rest:
            if seen:
                b = seen & -seen
                seen ^= b
                reach = nbr[b.bit_length() - 1]
            else:
                # the invisible rest, shifted down to 0 chunk by chunk
                reach = 0
                for tab in grow:
                    reach |= tab[rest & 15]
                    rest >>= 4
                    if not rest:
                        break
            reach &= free
            sight = reach & vis
            while sight:
                v = sight & -sight
                beliefs.append(v)
                sight ^= v
            if reach & hid:
                beliefs.append(reach & hid)
        return beliefs

    def robber_step(self, cops, bmask):
        """Belief masks after the robber moves; [] means it had nowhere safe."""
        free, vis = self._masks.get(cops) or self.masks(cops)
        return self.split(chunk_union(self._grow, bmask) & free, vis)


def mask_to_set(mask):
    """Frozenset of vertex ids in a belief mask."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return frozenset(out)


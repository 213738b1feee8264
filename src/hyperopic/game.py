"""Belief-state semantics for distance-limited pursuit on a finite graph.

The robber is omniscient and invisible to the cops whenever every cop is
within distance k of it (distance 0 is capture, not sight).  Cops therefore
play against a *belief*: the set of vertices the robber could occupy given
every observation so far.  A round is cops move jointly, observe, robber
moves, observe; each observation either pins the robber to a vertex or
reports it invisible, splitting the belief accordingly.  Visibility is also
checked once at initial placement.

`TransitionTable` is the one implementation of these transitions: the
solver searches with it and the policy verifier replays policies with it.
Beliefs are integer masks (bit v set when the robber may be on vertex v);
`mask_to_set` turns one into a vertex set.
"""

from __future__ import annotations

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


class TransitionTable:
    """The game's transitions on belief masks.

    States are (sorted cop tuple, belief mask) pairs.  Each cop tuple's
    unoccupied and visibility masks, and its row list (each deduplicated
    joint move with the masks of the cops it leads to), are cached, since
    the solver revisits the same cop tuples across many beliefs.  Robber
    steps are not cached: a belief grows through per-chunk neighborhood
    tables in ceil(n/4) lookups.

    The solver searches with the round kernel: a cop-to-move state's row
    list (`frame_rows`), where a move leaves the belief masked by the new
    cops' `free`, then `reply`, the cops' observation, the robber's reply
    and the second observation in one pass.  `cop_step` and `robber_step` are the round's
    two halves as separate steps.  The policy verifier replays policies
    with `masks`, `split` for the placement and `reply` for every round.

    `blind` is true when no cop position sees any vertex (zero visibility,
    or k at least the diameter): every observation is "invisible", so each
    step yields at most one belief.

    The game commutes with the graph's automorphisms, so the solver keeps
    one cop tuple per orbit: `frame` gives a tuple's representative and a
    fixed automorphism onto it, and `frame_rows` is the row list with each
    move's new cops carried onto their representative.
    """

    def __init__(self, spec):
        self.spec = spec
        g = spec.graph
        self.n = g.n
        self.full = (1 << g.n) - 1
        self.nbr = g.neighbor_masks()
        self._grow = growth_tables(self.nbr)
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
        self.blind = not any(self._far) if self._far else self._vis_const == 0
        self._masks = {}
        self._gens = None  # the graph's automorphism generators, when needed
        # cop tuple -> (representative, frame or None), and frame -> its
        # chunk tables: both depend on the graph alone, so they live on it
        self._frames = self._frame_tables = None
        self._frame_rows = {}

    def masks(self, cops):
        """(unoccupied, visible) masks for these cops: the vertices no cop
        stands on, and those a robber would be visible on."""
        pair = self._masks.get(cops)
        if pair is None:
            occ = 0
            for c in cops:
                occ |= 1 << c
            vis = self._vis_const
            if vis is None:
                vis = 0
                for c in cops:
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

    def frame(self, cops):
        """(representative, frame) of a sorted cop tuple.

        The representative is the least sorted image of the tuple under the
        graph's automorphism group; the frame is one fixed automorphism
        carrying the tuple onto it, a tuple p with p[v] the image of v, or
        None when the tuple is its own representative.  Every tuple of an
        orbit gets its pair when the orbit is first asked for: a search over
        the generators finds the orbit and so its representative, and a
        second one from the representative gives each tuple y = p(x)
        reached through a generator p the frame of x after the inverse of
        p.  The pairs are kept on the graph, so every table of one graph
        searches each orbit once.  A trivial group makes every tuple its
        own representative without a search.
        """
        gens = self._gens
        if gens is None:
            g = self.spec.graph
            gens = self._gens = g.automorphisms()
            if g._frames is None:
                g._frames, g._frame_tables = {}, {}
            self._frames, self._frame_tables = g._frames, g._frame_tables
        if not gens:
            return cops, None
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

    def frame_rows(self, cops):
        """(move, rep, tables, free, rfree, rvis) per deduplicated joint
        move, in `joint_cop_moves` order: the new cops' representative, the
        chunk tables of their frame (None for the identity), the new cops'
        free mask and the representative's `masks`.

        A move's belief masked by free and mapped through the tables, entry
        x of table j being the image of the set bits b of x at 4j + b, is
        the belief of the same robber-to-move position seen from the
        representative.
        """
        rows = self._frame_rows.get(cops)
        if rows is None:
            rows = self._frame_rows[cops] = []
            masks, frame_of = self.masks, self.frame
            for move, newcops in joint_cop_moves(self.spec.graph, cops):
                free, vis = masks(newcops)
                rep, frame = frame_of(newcops)
                if frame is None:
                    rows.append((move, newcops, None, free, free, vis))
                    continue
                tables = self._frame_tables.get(frame)
                if tables is None:
                    tables = self._frame_tables[frame] = growth_tables(
                        [1 << u for u in frame]
                    )
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


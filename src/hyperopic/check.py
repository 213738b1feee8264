"""An independent check of solver certificates, played on vertex sets.

The check trusts nothing the solver computes: it reads the graph's
adjacency and distances, the rule's kind and k, and the certificate, and
plays the game from its rules alone, with no masks, growth tables,
symmetry or joint-move enumeration.  Like `cache`, it imports nothing from
the package.  The tests use it as their reference game.

The rules it implements:

- The cops stand on vertices, several possibly on one.  A robber on a cop's
  vertex is captured.
- The robber on vertex v is visible to the cops when the rule is "full";
  never when it is "zero"; and, when it is "hyperopic" with distance k,
  when some cop is at distance greater than k from v.
- The cops play against a belief: the vertices the robber may occupy given
  everything seen so far.  Each sighting removes the vertices the cops
  stand on (captured) and splits the rest into one singleton per vertex
  where the robber would be seen, and one block of the hidden rest.
- The robber may start on any vertex, and the cops look once after the
  placement.  A round is: the cops move, each to a vertex of its closed
  neighbourhood, and look; the robber stays or steps to a neighbour, never
  onto a cop, and the cops look again.
- A certificate names the joint move for every state its play reaches,
  keyed by (sorted cop tuple, belief mask), each target aligned with the
  sorted cops.  It wins within its bound when every robber is captured
  within `bound` rounds, a round counting once the cops have moved.
"""


def sightings(graph, rule, cops, belief):
    """What cops on `cops` see of a robber somewhere in `belief`, with the
    vertices they stand on captured: (v, {v}) for each vertex v where the
    robber would be seen, ascending, then (None, the hidden rest) when
    some vertex is hidden.  [] means every possibility is captured."""
    dist = graph.distances()
    seen, hidden = [], set()
    for v in sorted(set(belief) - set(cops)):
        if rule.kind == "full" or (
            rule.kind == "hyperopic" and any(dist[c][v] > rule.k for c in cops)
        ):
            seen.append((v, frozenset((v,))))
        else:
            hidden.add(v)
    return seen + [(None, frozenset(hidden))] * bool(hidden)


def robber_step(graph, rule, cops, belief):
    """The sightings after a robber somewhere in `belief` stays or steps to
    a neighbour; the cops' vertices are closed to it."""
    reach = set(belief).union(*(graph.adj[v] for v in belief))
    return sightings(graph, rule, cops, reach)


def play_round(graph, rule, cops, belief):
    """(first sighting, second sighting, belief) for every outcome of the
    round in which the cops, facing `belief`, move onto `cops`.  [] means
    they captured."""
    return [
        (seen, seen2, after)
        for seen, block in sightings(graph, rule, cops, belief)
        for seen2, after in robber_step(graph, rule, cops, block)
    ]


def check_certificate(graph, rule, certificate):
    """The worst-case rounds to capture when the cops play `certificate`,
    checked against every robber by one memoised search of the states it
    reaches.

    Raises AssertionError naming the first bad state found: one the
    certificate has no move for, a move of the wrong length or with a
    target outside its cop's closed neighbourhood, a state that repeats
    on one line of play (the robber evades), or a start the robber
    survives for more than `certificate.bound` rounds.  The checks are
    raises, not asserts, so they also run under ``python -O``.
    """
    moves, rounds, line = certificate.moves, {}, set()

    def visit(cops, belief):
        key = (cops, sum(1 << v for v in belief))
        if key in rounds:
            return rounds[key]
        if key in line:
            raise AssertionError(
                f"{_state(cops, belief)} repeats: the robber evades"
            )
        move = moves.get(key)
        if move is None:
            raise AssertionError(
                f"the certificate has no move for {_state(cops, belief)}"
            )
        if len(move) != len(cops) or any(
            t != c and t not in graph.adj[c] for c, t in zip(cops, move)
        ):
            raise AssertionError(
                f"illegal move {tuple(move)} from {_state(cops, belief)}"
            )
        line.add(key)
        new = tuple(sorted(move))
        after = play_round(graph, rule, new, belief)
        rounds[key] = 1 + max((visit(new, b) for *_, b in after), default=0)
        line.remove(key)
        return rounds[key]

    placement = tuple(sorted(certificate.placement))
    worst = 0
    for _, belief in sightings(graph, rule, placement, range(graph.n)):
        took = visit(placement, belief)
        if took > certificate.bound:
            raise AssertionError(
                f"the robber survives {took} rounds from "
                f"{_state(placement, belief)}, above the bound {certificate.bound}"
            )
        worst = max(worst, took)
    return worst


def _state(cops, belief):
    return f"cops {cops} with belief {sorted(belief)}"

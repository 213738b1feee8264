"""Tests for the exact belief-state solver."""

import itertools
import random
import tracemalloc

import networkx as nx
import pytest

import oracles
from hyperopic.families import (
    all_trees,
    complete,
    complete_bipartite,
    cycle,
    g_k,
    path,
    t_family,
    t_hat,
    tree_diam10,
)
from hyperopic.game import (
    GameSpec,
    TransitionTable,
    chunk_union,
    full_visibility,
    hyperopic,
    zero_visibility,
)
from hyperopic.graph import Graph, diameter
from hyperopic import game, solver, strategies
from hyperopic.cache import ResultCache
from hyperopic.solver import (
    Certificate,
    UndecidedError,
    cop_number,
    extract_certificate,
    first_placement,
    search_cop_number,
    solve,
)
from hyperopic.strategies import Win, certificate_policy, verify_policy


def atlas_connected(n):
    """All connected graphs on n vertices, as (n, edges) with 0-based labels."""
    out = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() != n:
            continue
        if n > 1 and not nx.is_connected(g):
            continue
        relabel = {v: i for i, v in enumerate(sorted(g.nodes()))}
        out.append((n, sorted((relabel[a], relabel[b]) for a, b in g.edges())))
    return out


# ---------------------------------------------------------------------------
# single-placement decisions


def placement_result(spec, placement):
    """The solver's result for one sorted placement, at the default cap."""
    return solver._solve(spec, placement, game.STATE_CAP)


def test_placement_path_end_wins():
    cert = extract_certificate(GameSpec(path(4), hyperopic(2), 1), (0,))
    assert cert.placement == (0,)
    assert cert.bound == 3


def test_placement_rejects_wrong_arity():
    spec = GameSpec(path(4), hyperopic(2), 2)
    with pytest.raises(ValueError, match="must list 2 cop positions"):
        extract_certificate(spec, (0,))
    with pytest.raises(ValueError, match="must list 2 cop positions"):
        extract_certificate(spec, (0, 1, 2))


@pytest.mark.parametrize("vertex", [4, 7, -1])
def test_placement_vertex_out_of_range_is_rejected(vertex):
    spec = GameSpec(path(4), hyperopic(2), 1)
    with pytest.raises(ValueError, match=f"placement vertex {vertex} "):
        extract_certificate(spec, (vertex,))


def test_placement_order_is_irrelevant():
    spec = GameSpec(cycle(6), hyperopic(2), 2)
    a = extract_certificate(spec, (0, 3))
    b = extract_certificate(spec, (3, 0))
    assert a == b
    assert a.placement == (0, 3)


def test_single_cop_loses_everywhere_on_spider():
    g = t_hat()
    spec = GameSpec(g, hyperopic(3), 1)
    for v in range(g.n):
        res = placement_result(spec, (v,))
        assert res.status == "robber_win"
        assert res.placement is None
        assert res.certificate is None


# ---------------------------------------------------------------------------
# whole-game decisions


def test_triangle_one_blind_cop_loses():
    res = solve(GameSpec(complete(3), zero_visibility(), 1))
    assert res.status == "robber_win"
    assert not res.is_cop_win
    assert res.states_explored > 0


def test_five_cycle_two_cops_win():
    res = solve(GameSpec(cycle(5), hyperopic(3), 2))
    assert res.status == "cop_win"
    assert res.rounds == res.certificate.bound
    assert res.states_explored > 0


def test_five_cycle_one_cop_loses():
    res = solve(GameSpec(cycle(5), hyperopic(3), 1))
    assert res.status == "robber_win"


def test_complete_bipartite_two_cops_win():
    res = solve(GameSpec(complete_bipartite(2, 3), hyperopic(2), 2))
    assert res.status == "cop_win"


def test_solve_reports_winning_placement_consistently():
    res = solve(GameSpec(cycle(6), hyperopic(2), 2))
    assert res.status == "cop_win"
    assert res.placement == (0, 3)
    assert res.rounds == 3
    again = extract_certificate(GameSpec(cycle(6), hyperopic(2), 2), res.placement)
    assert again == res.certificate
    assert again.bound == res.rounds


# ---------------------------------------------------------------------------
# least winning cop counts


def test_cop_number_examples():
    assert cop_number(complete(6), hyperopic(1)) == 3
    assert cop_number(t_hat(), hyperopic(2)) == 2


def test_cop_number_pendant_clique_graph():
    # Two cops suffice on g_k(3, 1): opening on two different pendant tips
    # leaves no vertex simultaneously within distance 1 of both cops, so the
    # robber starts visible and stays pinned down to capture.
    assert cop_number(g_k(3, 1), hyperopic(1)) == 2


def test_cop_number_frozen_values():
    assert cop_number(path(6), hyperopic(2)) == 1
    assert cop_number(cycle(4), hyperopic(1)) == 2
    assert cop_number(cycle(7), hyperopic(2)) == 2
    assert cop_number(complete(4), hyperopic(1)) == 2
    assert cop_number(cycle(4), full_visibility()) == 2
    assert cop_number(path(5), zero_visibility()) == 1
    assert cop_number(complete(4), zero_visibility()) == 2


def test_search_cop_number_rejects_a_bound_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        search_cop_number(path(4), hyperopic(1), bound=0)


def test_search_cop_number_same_without_cache_and_with_cold_or_warm_cache(
    tmp_path, monkeypatch
):
    g, rule = cycle(7), hyperopic(3)
    plain = search_cop_number(g, rule)
    assert plain[0] == cop_number(g, rule) == 2
    assert plain[1]["status"] == "cop_win"
    path_ = str(tmp_path / "cache.jsonl")
    assert search_cop_number(g, rule, cache=ResultCache(path_)) == plain

    def no_solve(*args, **kwargs):
        raise AssertionError("a warm search must not solve")

    monkeypatch.setattr(solver, "solve", no_solve)
    warm = ResultCache(path_)
    assert search_cop_number(g, rule, cache=warm) == plain
    assert warm.hits == 2


def test_search_cop_number_reports_why_it_stopped():
    assert search_cop_number(cycle(4), full_visibility(), bound=1) == (
        1, {"status": "robber_win", "states": 3},
    )
    cops, record = search_cop_number(cycle(7), hyperopic(2), state_cap=3)
    assert (cops, record["status"]) == (1, "undecided")
    with pytest.raises(ValueError):
        search_cop_number(path(3), hyperopic(1), bound=0)


def test_losing_every_level_up_to_the_cap_is_an_assertion(monkeypatch):
    # cop_cap(n) cops always win, so a search that loses every level up to
    # it reports a solver fault, whichever caller asked
    from hyperopic.audits import _Ctx

    def lost(spec, **kw):
        return solver.SolveResult("robber_win", spec.num_cops, states_explored=1)

    monkeypatch.setattr(solver, "solve", lost)
    with pytest.raises(AssertionError, match="matching cap"):
        search_cop_number(path(3), hyperopic(1))
    with pytest.raises(AssertionError, match="matching cap"):
        cop_number(path(4), hyperopic(1))
    with pytest.raises(AssertionError, match="matching cap"):
        _Ctx().copnum(path(5), hyperopic(1), {})
    # below the cap a lost search only bounds the cop number from below
    assert search_cop_number(path(6), hyperopic(1), bound=2) == (
        2, {"status": "robber_win", "states": 1},
    )


# ---------------------------------------------------------------------------
# resource caps


def test_tiny_state_cap_yields_undecided():
    res = solve(GameSpec(cycle(7), hyperopic(2), 2), state_cap=3)
    assert res.status == "undecided"
    assert res.placement is None
    assert res.certificate is None
    assert res.states_explored == 3
    # the blind search caps its kept states the same way
    res = solve(GameSpec(cycle(7), zero_visibility(), 2), state_cap=3)
    assert res.status == "undecided"
    assert (res.placement, res.states_explored) == (None, 3)


@pytest.mark.parametrize(
    "graph", [cycle(7), g_k(4, 1), t_hat()], ids=["cycle7", "g_k41", "t_hat"]
)
def test_a_state_cap_decides_exactly_the_solves_within_it(graph):
    # both searches intern states in an order the cap does not change, so
    # a cap is hit exactly when the uncapped solve keeps more states
    for rule in (zero_visibility(), full_visibility(), hyperopic(1), hyperopic(2)):
        for cops in (1, 2):
            spec = GameSpec(graph, rule, cops)
            full = solve(spec, state_cap=10**9)
            for cap in (1, 2, 3, 5, 17, 40):
                res = solve(spec, state_cap=cap)
                if cap < full.states_explored:
                    assert (res.status, res.states_explored) == ("undecided", cap)
                else:
                    assert res == full


@pytest.mark.parametrize("cap", [0, -5])
def test_a_state_cap_below_one_is_rejected(cap):
    # a blind spec and one whose cops cover the graph are rejected too
    for spec in (GameSpec(cycle(7), hyperopic(2), 2),
                 GameSpec(cycle(7), zero_visibility(), 2),
                 GameSpec(path(2), hyperopic(1), 1)):
        with pytest.raises(ValueError, match="state cap must be at least 1"):
            solve(spec, state_cap=cap)


def test_cop_number_surfaces_cap_as_undecided_error():
    with pytest.raises(UndecidedError, match="undecided: limit"):
        cop_number(cycle(7), hyperopic(2), state_cap=3)


@pytest.mark.parametrize(
    "graph, k, cops, status, placement, rounds, states",
    [
        pytest.param(t_hat(), 2, 2, "cop_win", (2, 4), 4, 28, id="t_hat-hyp2-2"),
        pytest.param(
            g_k(3, 1), 1, 2, "cop_win", (9, 10), 3, 57, id="g_k(3,1)-hyp1-2"
        ),
        pytest.param(
            t_hat(), 3, 1, "robber_win", None, None, 27, id="t_hat-hyp3-1"
        ),
        pytest.param(
            cycle(7), 2, 1, "robber_win", None, None, 7, id="cycle(7)-hyp2-1"
        ),
        # blind: k = None is zero visibility, and k = 2 sees nothing on K8
        pytest.param(
            t_family(3), None, 2, "robber_win", None, None, 1122,
            id="t_family(3)-zero-2",
        ),
        pytest.param(
            complete(8), 2, 4, "cop_win", (0, 1, 2, 3), 1, 5,
            id="complete(8)-hyp2-4",
        ),
        # the paw (a triangle with a pendant vertex), a robber win settled
        # on its first placement alone
        pytest.param(
            Graph(4, [(0, 3), (1, 2), (1, 3), (2, 3)]), 1, 1,
            "robber_win", None, None, 8, id="paw-hyp1-1",
        ),
        # with t_family(3) and complete(8) above, the solve-big arenas
        pytest.param(
            tree_diam10(), 3, 2, "cop_win", (9, 18), 11, 893,
            id="tree_diam10-hyp3-2",
        ),
        pytest.param(
            g_k(3, 2), 2, 3, "cop_win", (10, 12, 14), 3, 234,
            id="g_k(3,2)-hyp2-3",
        ),
    ],
)
def test_pinned_solver_outputs(graph, k, cops, status, placement, rounds, states):
    rule = zero_visibility() if k is None else hyperopic(k)
    spec = GameSpec(graph, rule, cops)
    res = solve(spec)
    assert (res.status, res.placement, res.rounds, res.states_explored) == (
        status, placement, rounds, states,
    )
    # solved afresh: a cap other than solve's is another memo key
    first = first_placement(graph, cops)
    assert solver._solve(spec, first, 10**9) == res
    # a cap of exactly the states the answer took still decides it
    assert solve(spec, state_cap=res.states_explored) == res


def test_settling_stops_once_the_placement_is_decided(monkeypatch):
    # the first placement leaves the visible robber on one of 6 vertices,
    # and each of those initial states wins at its own first expansion
    calls = []
    expand = solver._Arena._expand

    def counted(arena, idx):
        calls.append(idx)
        return expand(arena, idx)

    monkeypatch.setattr(solver._Arena, "_expand", counted)
    spec = GameSpec(complete(8), full_visibility(), 2)
    res = solve(spec)
    assert (res.status, res.placement, res.rounds) == ("cop_win", (0, 1), 1)
    assert len(TransitionTable(spec).initial((0, 1))) == 6
    assert calls == list(range(6))


@pytest.mark.parametrize(
    "graph, k, placement, states, positions, waiters",
    [
        pytest.param(t_hat(), 2, (2, 4), 28, 34, 80, id="t_hat-hyp2"),
        pytest.param(g_k(3, 1), 1, (9, 10), 57, 127, 559, id="g_k(3,1)-hyp1"),
    ],
)
def test_the_arena_replies_once_per_position(
    monkeypatch, graph, k, placement, states, positions, waiters
):
    # moves reaching a position already replied to (one waiter edge per
    # undecided move) reuse its successors instead of running the kernel
    calls = []
    reply = TransitionTable.reply

    def counted(table, bf, free, vis):
        calls.append((bf, free))
        return reply(table, bf, free, vis)

    monkeypatch.setattr(TransitionTable, "reply", counted)
    table = TransitionTable(GameSpec(graph, hyperopic(k), 2))
    arena = solver._Arena(table, game.STATE_CAP)
    rep = table.frame(placement)[0]
    base = arena.base(rep)
    arena.settle([arena.intern(base | b) for b in table.initial(rep)])
    assert len(set(calls)) == len(calls) == len(arena.pos) == positions
    assert (len(arena.index), len(arena.owner)) == (states, waiters)


def test_blind_search_stops_at_the_capture_level(monkeypatch):
    calls = []
    reply = TransitionTable.reply

    def counted(table, bf, free, vis):
        out = reply(table, bf, free, vis)
        calls.append((bf, free, out))
        return out

    monkeypatch.setattr(TransitionTable, "reply", counted)
    # K8 with k = 2 is blind; the initial state captures at once: its moves
    # are tried in order up to the one onto the belief, each seen from its
    # new cops' representative, and no other state's are; the capture is
    # then replayed once in real labels
    spec = GameSpec(complete(8), hyperopic(2), 4)
    res = solve(spec)
    assert (res.status, res.rounds) == ("cop_win", 1)
    assert res.certificate.moves == {((0, 1, 2, 3), 0b11110000): (4, 5, 6, 7)}
    table = TransitionTable(spec)
    rows = table.frame_rows((0, 1, 2, 3))[:len(calls) - 1]
    assert tuple(sorted(rows[-1][0])) == (4, 5, 6, 7)
    for (_, rep, tables, free, rfree, _), (bf, seen, _) in zip(rows, calls):
        assert seen == rfree == table.masks(rep)[0]
        assert bf == (0b11110000 & free if tables is None
                      else chunk_union(tables, 0b11110000 & free))
    assert calls[-2] == (0, 0b11110000, []) and calls[-1] == (0, 0b1111, [])
    # capture at level 3: the states kept at level 4 are never expanded (the
    # states of levels 0-3 try 51 moves, the last one capturing, and the
    # 4-move path is replayed in real labels)
    calls.clear()
    res = solve(GameSpec(t_family(2), zero_visibility(), 2))
    assert (res.status, res.placement, res.rounds) == ("cop_win", (4, 5), 4)
    assert (len(calls), res.states_explored) == (55, 14)
    assert calls[-5][2] == [] and calls[-1][2] == []


def test_cop_win_interns_only_part_of_the_arena():
    # expanding the whole reachable arena interns 433 states (7523 without
    # the automorphism quotient)
    res = solve(GameSpec(g_k(3, 2), hyperopic(2), 3))
    assert res.status == "cop_win"
    assert res.states_explored < 433


def test_memory_per_state_stays_small():
    # the budget of 1000 B per state over the 3512 states this solve took
    # before the automorphism quotient (flat per-state storage took about
    # 650 B per state; a per-state memo of robber steps and tuple-keyed
    # reverse edges about 1800), as an absolute peak
    spec = GameSpec(g_k(3, 2), hyperopic(2), 3)
    tracemalloc.start()
    try:
        solve(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1000 * 3512


def test_generous_cap_changes_nothing():
    spec = GameSpec(cycle(5), hyperopic(3), 2)
    a = solve(spec, state_cap=10**9)
    b = solve(spec)
    assert (a.status, a.placement, a.rounds) == (b.status, b.placement, b.rounds)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_fields_on_single_edge():
    cert = extract_certificate(GameSpec(path(2), hyperopic(1), 1), (0,))
    assert isinstance(cert, Certificate)
    assert cert.placement == (0,)
    assert cert.bound == 1
    assert len(cert.moves) == 1


def test_certificate_on_short_path():
    cert = extract_certificate(GameSpec(path(3), hyperopic(1), 1), (1,))
    assert cert.placement == (1,)
    assert cert.bound == 3
    # moves are keyed by (sorted cops, belief mask), one target per cop
    for (cops, bmask), move in cert.moves.items():
        assert len(move) == len(cops) == 1
        assert bmask > 0 and not bmask >> cops[0] & 1


def test_certificate_requires_winning_placement():
    with pytest.raises(ValueError, match="not cop-winning"):
        extract_certificate(GameSpec(cycle(5), hyperopic(3), 1), (0,))


def test_certificate_replays_through_verifier():
    spec = GameSpec(cycle(6), hyperopic(2), 2)
    cert = extract_certificate(spec, (0, 3))
    policy = certificate_policy(spec.graph, spec.rule, cert)
    outcome = verify_policy(spec.graph, spec.rule, policy)
    assert isinstance(outcome, Win)
    assert outcome.rounds <= cert.bound


def test_certificates_replay_across_rules():
    cases = [
        (path(4), hyperopic(2), 1),
        (complete(4), zero_visibility(), 2),
        (cycle(4), full_visibility(), 2),
        (complete_bipartite(2, 3), hyperopic(2), 2),
    ]
    for graph, rule, cops in cases:
        res = solve(GameSpec(graph, rule, cops))
        assert res.status == "cop_win"
        policy = certificate_policy(graph, rule, res.certificate)
        outcome = verify_policy(graph, rule, policy)
        assert isinstance(outcome, Win)
        assert outcome.rounds <= res.certificate.bound


def relabelled(graph, seed):
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


@pytest.mark.parametrize(
    "graph, rule, cops",
    [
        pytest.param(t_hat(), hyperopic(2), 2, id="t_hat-hyp2-2"),
        pytest.param(cycle(6), hyperopic(1), 2, id="cycle(6)-hyp1-2"),
        pytest.param(
            complete_bipartite(3, 3), hyperopic(2), 3, id="K33-hyp2-3"
        ),
        pytest.param(g_k(3, 1), hyperopic(1), 2, id="g_k(3,1)-hyp1-2"),
        pytest.param(tree_diam10(), hyperopic(3), 2, id="tree_diam10-hyp3-2"),
    ],
)
def test_certificates_lift_to_real_labels_under_relabelling(graph, rule, cops):
    # every graph here has symmetries, so the solver works in
    # representative frames; its certificate must still be a strategy in
    # the graph's own labels, whatever they are.  Reading each real
    # state's move off the image its own frame gives it, instead of its
    # least-ranked image along the lifted moves, reaches states the arena
    # never interned on t_hat at seed 5 and tree_diam10 at seeds 4 and 6
    assert cop_number(graph, rule) == cops
    want = solve(GameSpec(graph, rule, cops))
    for seed in (4, 5, 6):
        g = relabelled(graph, seed)
        assert g.automorphisms()
        spec = GameSpec(g, rule, cops)
        res = solve(spec)
        assert (res.status, res.num_cops) == (want.status, want.num_cops)
        assert cop_number(g, rule) == cops
        cert = extract_certificate(spec, res.placement)
        assert res.rounds == cert.bound


def test_certifying_a_first_placement_win_reuses_the_solve(monkeypatch):
    # the round kernel's `reply` runs in every solve, arena or blind; the
    # replay steps its rounds through it too, so those calls are not counted
    calls = {"reply": 0, "verify_policy": 0}
    replaying = []
    reply = TransitionTable.reply
    replay = strategies.verify_policy

    def counted_reply(self, *args):
        if not replaying:
            calls["reply"] += 1
        return reply(self, *args)

    def counted_replay(*args, **kwargs):
        calls["verify_policy"] += 1
        replaying.append(True)
        try:
            return replay(*args, **kwargs)
        finally:
            replaying.pop()

    monkeypatch.setattr(TransitionTable, "reply", counted_reply)
    monkeypatch.setattr(strategies, "verify_policy", counted_replay)
    for spec in (
        GameSpec(g_k(3, 1), hyperopic(1), 2),  # the AND-OR arena
        GameSpec(complete(4), zero_visibility(), 2),  # the blind search
    ):
        res = solve(spec)
        assert res.placement == first_placement(spec.graph, 2)
        calls.update(reply=0, verify_policy=0)
        cert = extract_certificate(spec, res.placement)
        assert calls == {"reply": 0, "verify_policy": 1}
        assert cert == res.certificate

        # the one remembered result is handed out twice: moves are read-only
        key, move = next(iter(cert.moves.items()))
        with pytest.raises(TypeError):
            cert.moves[key] = None
        with pytest.raises(TypeError):
            del res.certificate.moves[key]
        assert extract_certificate(spec, res.placement).moves[key] == move

    # another cap, or another placement (which wins too), is solved afresh
    spec = GameSpec(g_k(3, 1), hyperopic(1), 2)
    res = solve(spec)
    calls["reply"] = 0
    assert solver._solve(spec, res.placement, 10**9) == res
    assert calls["reply"] > 0
    other = (0, 1)
    assert other != res.placement
    calls["reply"] = 0
    assert extract_certificate(spec, other).placement == other
    assert calls["reply"] > 0


def test_one_cop_wins_with_full_visibility_exactly_on_dismantlable_graphs():
    # Nowakowski and Winkler 1983, Quilliot 1978; a false robber win, which
    # no certificate can expose, breaks this
    graphs = [atlas_connected(n) for n in range(1, 8)]
    dismantlable = 0
    for nn, edges in itertools.chain.from_iterable(graphs):
        spec = GameSpec(Graph(nn, edges), full_visibility(), 1)
        expected = oracles.is_dismantlable(nn, edges)
        assert solve(spec).is_cop_win == expected, (nn, edges)
        dismantlable += expected
    assert (sum(map(len, graphs)), dismantlable) == (996, 496)


# ---------------------------------------------------------------------------
# structural properties


def test_extra_cop_never_hurts():
    cases = [
        (path(4), hyperopic(2), 1),
        (cycle(5), hyperopic(3), 2),
        (complete(4), zero_visibility(), 2),
        (t_hat(), hyperopic(2), 2),
    ]
    for graph, rule, cops in cases:
        res = solve(GameSpec(graph, rule, cops))
        assert res.status == "cop_win"
        # park the extra cop on top of an existing one: still a win
        bigger = tuple(sorted(res.placement + (res.placement[0],)))
        more = extract_certificate(GameSpec(graph, rule, cops + 1), bigger)
        assert more.placement == bigger


def test_visibility_chain_on_small_graphs():
    # less visibility can only increase the number of cops needed, and a
    # blindness radius covering the whole graph is total blindness
    for n in range(2, 6):
        for nn, edges in atlas_connected(n):
            g = Graph(nn, edges)
            diam = diameter(g)
            c_full = cop_number(g, full_visibility())
            c_h1 = cop_number(g, hyperopic(1))
            c_h2 = cop_number(g, hyperopic(2))
            c_zero = cop_number(g, zero_visibility())
            assert c_full <= c_h1 <= c_h2 <= c_zero
            assert cop_number(g, hyperopic(diam)) == c_zero


def test_full_visibility_matches_positional_oracle():
    for n in range(1, 6):
        for nn, edges in atlas_connected(n):
            g = Graph(nn, edges)
            assert cop_number(g, full_visibility()) == \
                oracles.fullvis_cop_number(nn, edges), (nn, edges)


def test_placements_match_belief_oracle_and_certificates_replay():
    # every placement, every rule: the solver's verdict equals a brute-force
    # attractor over the set-based transitions, and each cop win's
    # certificate replays within its bound, which is never below optimal;
    # the bound, which is the solver's rounds, is above optimal on 44
    # placements (never a blind one).  One placement decides the spec: the
    # oracle gives every placement the same verdict, and `solve`, which
    # settles only the first, agrees with it
    rules = [
        full_visibility(), zero_visibility(),
        hyperopic(1), hyperopic(2), hyperopic(3),
    ]
    above = 0
    for n in range(1, 6):
        for nn, edges in atlas_connected(n):
            g = Graph(nn, edges)
            for rule in rules:
                for cops in (1, 2):
                    spec = GameSpec(g, rule, cops)
                    expected = oracles.belief_placement_rounds(spec)
                    wins = {best is not None for best in expected.values()}
                    assert wins == {solve(spec).is_cop_win}, (nn, edges, rule)
                    for placement, best in expected.items():
                        case = (nn, edges, rule, placement)
                        res = placement_result(spec, placement)
                        if best is None:
                            assert res.status == "robber_win", case
                            continue
                        assert res.status == "cop_win", case
                        policy = certificate_policy(g, rule, res.certificate)
                        outcome = verify_policy(g, rule, policy)
                        assert isinstance(outcome, Win), case
                        assert best <= outcome.rounds <= res.certificate.bound, case
                        assert res.rounds == res.certificate.bound, case
                        above += res.rounds > best
    assert above == 44


def test_blind_rounds_equal_the_belief_oracle():
    # with k at least the diameter, or zero visibility, the robber is never
    # seen, and the breadth-first search's rounds are the exact optimum
    rules = [zero_visibility(), hyperopic(1), hyperopic(2), hyperopic(3)]
    checked = 0
    for n in range(1, 7):
        for nn, edges in atlas_connected(n):
            g = Graph(nn, edges)
            for rule in rules:
                for cops in (1, 2) if n <= 5 else (1,):
                    spec = GameSpec(g, rule, cops)
                    if not TransitionTable(spec).blind:
                        continue
                    expected = oracles.belief_placement_rounds(spec)
                    for placement, best in expected.items():
                        res = placement_result(spec, placement)
                        assert res.rounds == best, (nn, edges, rule, placement)
                        checked += 1
    assert checked == 3139


def vertex_separation_number(g):
    """Pathwidth, as the least over vertex orders of the largest number of
    placed vertices with a neighbour not yet placed (subset DP)."""
    nbr = g.neighbor_masks()
    best = {0: 0}
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            s = sum(1 << v for v in subset)
            boundary = sum(1 for v in subset if nbr[v] & ~s)
            best[s] = max(boundary, min(best[s & ~(1 << v)] for v in subset))
    return best[(1 << g.n) - 1]


def test_zero_visibility_cop_number_is_at_most_the_pathwidth():
    # cops sweeping a path decomposition clear the graph blind; the bound
    # is tight on most of these graphs, so a false robber win breaks it
    graphs = [
        Graph(nn, edges)
        for n in range(2, 7) for nn, edges in atlas_connected(n)
    ]
    graphs += [t for n in range(7, 11) for t in all_trees(n)]
    tight = 0
    for g in graphs:
        pw = vertex_separation_number(g)
        c = cop_number(g, zero_visibility())
        assert c <= pw, (g.n, g.edges)
        tight += c == pw
    assert (len(graphs), tight) == (329, 266)

"""Tests for the exact belief-state solver."""

import itertools

import networkx as nx
import pytest

import oracles
from hyperopic.families import (
    complete,
    complete_bipartite,
    cycle,
    g_k,
    path,
    t_hat,
)
from hyperopic.game import (
    GameSpec,
    full_visibility,
    hyperopic,
    zero_visibility,
)
from hyperopic.graph import Graph
from hyperopic import solver
from hyperopic.cache import ResultCache
from hyperopic.solver import (
    Certificate,
    UndecidedError,
    cop_number,
    extract_certificate,
    search_cop_number,
    solve,
    solve_placement,
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


def test_placement_path_end_wins():
    res = solve_placement(GameSpec(path(4), hyperopic(2), 1), (0,))
    assert res.status == "cop_win"
    assert res.placement == (0,)
    assert res.rounds == 3
    assert res.certificate is not None
    assert res.certificate.bound == 3


def test_placement_rejects_wrong_arity():
    spec = GameSpec(path(4), hyperopic(2), 2)
    with pytest.raises(ValueError):
        solve_placement(spec, (0,))
    with pytest.raises(ValueError):
        solve_placement(spec, (0, 1, 2))


def test_placement_order_is_irrelevant():
    spec = GameSpec(cycle(6), hyperopic(2), 2)
    a = solve_placement(spec, (0, 3))
    b = solve_placement(spec, (3, 0))
    assert a.status == b.status == "cop_win"
    assert a.placement == b.placement == (0, 3)


def test_single_cop_loses_everywhere_on_spider():
    g = t_hat()
    for v in range(g.n):
        res = solve_placement(GameSpec(g, hyperopic(3), 1), (v,))
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
    again = solve_placement(GameSpec(cycle(6), hyperopic(2), 2), res.placement)
    assert again.status == "cop_win"
    assert again.rounds == res.rounds


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


def test_cop_number_rejects_bad_max_cops():
    with pytest.raises(ValueError):
        cop_number(path(4), hyperopic(1), max_cops=0)


def test_cop_number_exhausted_budget_is_undecided():
    with pytest.raises(UndecidedError, match="max_cops"):
        cop_number(complete(4), zero_visibility(), max_cops=1)


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
        1, {"status": "robber_win", "states": 12},
    )
    cops, record = search_cop_number(cycle(7), hyperopic(2), state_cap=3)
    assert (cops, record["status"]) == (1, "undecided")
    with pytest.raises(ValueError):
        search_cop_number(path(3), hyperopic(1), bound=0)


# ---------------------------------------------------------------------------
# resource caps


def test_tiny_state_cap_yields_undecided():
    res = solve(GameSpec(cycle(7), hyperopic(2), 2), state_cap=3)
    assert res.status == "undecided"
    assert res.placement is None
    assert res.certificate is None
    assert 0 < res.states_explored <= 3


def test_cop_number_surfaces_cap_as_undecided_error():
    with pytest.raises(UndecidedError, match="undecided: limit"):
        cop_number(cycle(7), hyperopic(2), state_cap=3)


@pytest.mark.parametrize(
    "graph, k, cops, status, placement, rounds, states",
    [
        (t_hat(), 2, 2, "cop_win", (2, 4), 4, 166),
        (g_k(3, 1), 1, 2, "cop_win", (9, 10), 3, 591),
        (t_hat(), 3, 1, "robber_win", None, None, 67),
        (cycle(7), 2, 1, "robber_win", None, None, 49),
    ],
)
def test_pinned_solver_outputs(graph, k, cops, status, placement, rounds, states):
    spec = GameSpec(graph, hyperopic(k), cops)
    expect = (status, placement, rounds, states)
    res = solve(spec)
    assert (res.status, res.placement, res.rounds, res.states_explored) == expect
    one = solve_placement(spec, placement or (0,) * cops)
    assert (one.status, one.placement, one.rounds, one.states_explored) == expect


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
    # every prescribed joint move lists one target per cop
    for state, move in cert.moves.items():
        assert len(move) == len(state.cops) == 1


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
        more = solve_placement(GameSpec(graph, rule, cops + 1), bigger)
        assert more.status == "cop_win"


def test_visibility_chain_on_small_graphs():
    # less visibility can only increase the number of cops needed, and a
    # blindness radius covering the whole graph is total blindness
    for n in range(2, 6):
        for nn, edges in atlas_connected(n):
            g = Graph(nn, edges)
            diam = max(
                g.dist(u, v) for u in range(nn) for v in range(nn)
            )
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

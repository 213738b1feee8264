"""The certificate checker: solver certificates pass it, at exactly their
bound, and mutated ones are refused with the bad state named."""

import re
from types import MappingProxyType

import networkx as nx
import pytest

from hyperopic.check import check_certificate
from hyperopic.families import cycle, path, t_hat
from hyperopic.game import (
    GameSpec,
    full_visibility,
    hyperopic,
    mask_to_set,
    zero_visibility,
)
from hyperopic.graph import build_graph
from hyperopic.solver import Certificate, cop_number, solve


def _connected_graphs(max_n):
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if n <= max_n and nx.is_connected(g):
            yield build_graph(n, list(g.edges()))


def test_every_small_cop_win_checks_at_its_bound():
    # the cop win at the cop number, on every connected graph with n <= 6
    rules = (full_visibility(), zero_visibility(), hyperopic(1), hyperopic(2),
             hyperopic(3))
    checked = 0
    for g in _connected_graphs(6):
        for rule in rules:
            cert = solve(GameSpec(g, rule, cop_number(g, rule))).certificate
            assert check_certificate(g, rule, cert) == cert.bound, (g.edges, rule)
            checked += 1
    assert checked == 715


def test_a_covering_placement_checks_to_zero():
    cert = solve(GameSpec(path(2), zero_visibility(), 2)).certificate
    assert (cert.placement, dict(cert.moves), cert.bound) == ((0, 1), {}, 0)
    assert check_certificate(path(2), zero_visibility(), cert) == 0


def _with(cert, moves=None, bound=None):
    return Certificate(
        cert.placement,
        MappingProxyType(dict(cert.moves) if moves is None else moves),
        cert.bound if bound is None else bound,
    )


def _state(key):
    cops, bmask = key
    return re.escape(f"cops {cops} with belief {sorted(mask_to_set(bmask))}")


MUTATED = [
    pytest.param(path(5), zero_visibility(), 1, id="path5-zero-1"),
    pytest.param(cycle(6), hyperopic(2), 2, id="cycle6-hyp2-2"),
    pytest.param(t_hat(), hyperopic(2), 2, id="t_hat-hyp2-2"),
]


@pytest.mark.parametrize("graph, rule, cops", MUTATED)
def test_a_dropped_entry_is_named(graph, rule, cops):
    # every entry is reached, so dropping any one leaves its state moveless
    cert = solve(GameSpec(graph, rule, cops)).certificate
    for key in cert.moves:
        moves = dict(cert.moves)
        del moves[key]
        with pytest.raises(AssertionError,
                           match=f"no move for {_state(key)}$"):
            check_certificate(graph, rule, _with(cert, moves))


@pytest.mark.parametrize("graph, rule, cops", MUTATED)
def test_a_target_off_the_closed_neighbourhood_is_named(graph, rule, cops):
    cert = solve(GameSpec(graph, rule, cops)).certificate
    for key, move in cert.moves.items():
        c = key[0][0]
        far = min(v for v in range(graph.n)
                  if v != c and v not in graph.adj[c])
        bad = (far, *move[1:])
        with pytest.raises(
            AssertionError,
            match=f"illegal move {re.escape(str(bad))} from {_state(key)}$",
        ):
            check_certificate(graph, rule, _with(cert, {**cert.moves, key: bad}))


def test_a_legal_move_that_lets_the_robber_loop_is_named():
    # the blind sweep of P_5 from vertex 0; a cop that stays on 2 instead of
    # stepping to 3 faces the same belief again
    graph, rule = path(5), zero_visibility()
    cert = solve(GameSpec(graph, rule, 1)).certificate
    key = ((2,), 0b11000)
    assert cert.moves[key] == (3,)
    with pytest.raises(AssertionError,
                       match=f"^{_state(key)} repeats: the robber evades$"):
        check_certificate(graph, rule, _with(cert, {**cert.moves, key: (2,)}))


@pytest.mark.parametrize("graph, rule, cops", MUTATED)
def test_a_bound_below_the_worst_case_is_refused(graph, rule, cops):
    cert = solve(GameSpec(graph, rule, cops)).certificate
    assert check_certificate(graph, rule, cert) == cert.bound
    with pytest.raises(
        AssertionError,
        match=f"survives {cert.bound} rounds from cops {re.escape(str(cert.placement))} "
        f"with belief .*, above the bound {cert.bound - 1}$",
    ):
        check_certificate(graph, rule, _with(cert, bound=cert.bound - 1))

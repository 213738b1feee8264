"""Acceptance gate: thirteen workbench-level checks, one verdict line each.

Every test prints exactly one `criterion NN: PASS|FAIL` line (bypassing
capture, so the lines appear in any pytest run) and then asserts the
artifact's actual measured behavior.  Criterion 08 prints FAIL: the pinned
value for that instance is wrong, the exact solver proves a smaller cop
number and backs it with a replayed certificate; the assertions pin the
measured truth so a solver regression would be caught.
"""

import math

import networkx as nx
import pytest

import oracles
from hyperopic.audits import CLAIMS, DOCUMENTED_CLAIMS, claim_verdict, run_claim
from hyperopic.families import (
    all_trees,
    all_two_connected_outerplanar,
    complete,
    complete_bipartite,
    cycle,
    g_k,
    path,
)
from hyperopic.game import GameSpec, full_visibility, hyperopic, zero_visibility
from hyperopic.graph import Graph, diameter, is_caterpillar, maximum_matching
from hyperopic.solver import (
    cop_number,
    extract_certificate,
    search_cop_number,
    solve,
)
from hyperopic.strategies import (
    Win,
    certificate_policy,
    matching_policy,
    outerplanar_k2_policy,
    stationary_pair_policy,
    tree_k2_policy,
    tree_near_diam_policy,
    verify_policy,
)

_ATLAS = None


def connected_graphs(n_max):
    """All connected graphs on 1..n_max vertices (n_max <= 7)."""
    global _ATLAS
    if _ATLAS is None:
        _ATLAS = {}
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if n < 1 or (n > 1 and not nx.is_connected(g)):
                continue
            relabel = {v: i for i, v in enumerate(sorted(g.nodes()))}
            _ATLAS.setdefault(n, []).append(
                Graph(n, sorted((relabel[a], relabel[b]) for a, b in g.edges()))
            )
    for n in range(1, n_max + 1):
        yield from _ATLAS[n]


def report(capsys, num, ok, text):
    with capsys.disabled():
        print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {text}")
    return ok


def test_criterion_01_basic_families(capsys):
    ok = True
    for k in (1, 2, 3, 4):
        rule = hyperopic(k)
        ok &= all(cop_number(path(n), rule) == 1 for n in range(2, 13))
        ok &= all(cop_number(cycle(n), rule) == 2 for n in range(3, 11))
        ok &= all(
            cop_number(complete(n), rule) == (n + 1) // 2 for n in range(1, 9)
        )
    assert report(
        capsys, 1, ok,
        "paths need 1 cop, cycles 2, cliques ceil(n/2) (k in 1..4)",
    )


def test_criterion_02_complete_bipartite(capsys):
    ok = True
    for k in (2, 3):
        for m in (1, 2, 3):
            for n in range(m, 6):
                ok &= cop_number(complete_bipartite(m, n), hyperopic(k)) == m
    assert report(
        capsys, 2, ok,
        "complete bipartite graphs need exactly min-side many cops (k in {2,3})",
    )


def test_criterion_03_caterpillar_iff(capsys):
    ok = True
    count = 0
    for n in range(1, 10):
        for t in all_trees(n):
            count += 1
            cat = is_caterpillar(t)
            for k in (2, 3):
                one_cop = solve(GameSpec(t, hyperopic(k), 1)).is_cop_win
                ok &= one_cop == cat
    ok &= count == 95
    for g in connected_graphs(6):
        if solve(GameSpec(g, hyperopic(2), 1)).is_cop_win:
            ok &= is_caterpillar(g)
    assert report(
        capsys, 3, ok,
        "one cop wins on a tree iff caterpillar (95 trees, k in {2,3});"
        " on any graph up to n=6 a one-cop win forces a caterpillar",
    )


def test_criterion_04_visibility_chain(capsys):
    ok = True
    for g in connected_graphs(6):
        d = diameter(g)
        chain = [
            cop_number(g, full_visibility()),
            cop_number(g, hyperopic(1)),
            cop_number(g, hyperopic(2)),
            cop_number(g, hyperopic(3)),
            cop_number(g, zero_visibility()),
        ]
        ok &= chain == sorted(chain)
        for k in (1, 2, 3):
            if d <= k:
                ok &= chain[k] == chain[4]
    assert report(
        capsys, 4, ok,
        "cop numbers grow along the visibility chain and blindness radius >="
        " diameter equals total blindness (all connected graphs n <= 6)",
    )


def test_criterion_05_matching_bound(capsys):
    ok = True
    for g in connected_graphs(7):
        pol = matching_policy(g)
        nu = len(maximum_matching(g).edges)
        ok &= pol.num_cops == nu + (1 if 2 * nu < g.n else 0)
        ok &= pol.num_cops <= (g.n + 1) // 2
        ok &= isinstance(verify_policy(g, zero_visibility(), pol), Win)
    assert report(
        capsys, 5, ok,
        "edge-oscillation wins blind with matching-number many cops"
        " (all connected graphs n <= 7)",
    )


def test_criterion_06_tree_strategy(capsys):
    ok = True
    count = 0
    for n in range(1, 13):
        for t in all_trees(n):
            count += 1
            pol = tree_k2_policy(t)
            ok &= pol.num_cops == 2
            ok &= isinstance(verify_policy(t, hyperopic(2), pol), Win)
    ok &= count == 987
    assert report(
        capsys, 6, ok,
        "two cops clear every tree at blindness radius 2 (987 trees, n <= 12)",
    )


def test_criterion_07_long_and_near_diameter_trees(capsys):
    ok = True
    n_long = n_near = 0
    for n in range(2, 13):
        for t in all_trees(n):
            d = diameter(t)
            for k in (3, 4):
                if d >= 2 * k - 1:
                    pol = stationary_pair_policy(t, k)
                    ok &= pol.num_cops == 2
                    ok &= isinstance(verify_policy(t, hyperopic(k), pol), Win)
                    n_long += 1
                elif 2 * k - 3 <= d <= 2 * k - 2:
                    pol = tree_near_diam_policy(t, k)
                    ok &= pol.num_cops == 3
                    ok &= isinstance(verify_policy(t, hyperopic(k), pol), Win)
                    n_near += 1
    ok &= n_long > 1000 and n_near > 600
    assert report(
        capsys, 7, ok,
        "parked-pair wins with 2 cops on long trees, 3 cops suffice near the"
        " diameter threshold (k in {3,4}, trees n <= 12)",
    )


def test_criterion_08_pendant_clique_value(capsys):
    g = g_k(3, 1)
    rule = hyperopic(1)
    one = solve(GameSpec(g, rule, 1))
    measured = cop_number(g, rule)
    replayed = False
    if measured == 2:
        res = solve(GameSpec(g, rule, 2))
        cert = extract_certificate(GameSpec(g, rule, 2), res.placement)
        outcome = verify_policy(g, rule, certificate_policy(g, rule, cert))
        replayed = isinstance(outcome, Win) and outcome.rounds <= cert.bound
    report(
        capsys, 8, measured == 3,
        f"pendant-clique instance pinned at 3 cops, exact search proves"
        f" {measured} (one cop loses: {one.status == 'robber_win'}; certificate"
        f" replayed: {replayed}) — opening on two pendant tips keeps the robber"
        f" permanently visible, so the pin overstates the requirement",
    )
    # the honest measured value, backed by an independently replayed strategy
    assert one.status == "robber_win"
    assert measured == 2
    assert replayed


def test_criterion_09_diameter_bound(capsys):
    ok = True
    checked = 0
    for g in connected_graphs(7):
        d = diameter(g)
        for k in (1, 2):
            if d < 2 * k + 1:
                continue
            classic = cop_number(g, full_visibility())
            _, record = search_cop_number(g, hyperopic(k), bound=classic + 2)
            ok &= record["status"] == "cop_win"
            checked += 1
    ok &= checked == 549
    assert report(
        capsys, 9, ok,
        "blindness costs at most 2 extra cops when diameter >= 2k+1"
        " (549 instances, n <= 7, k in {1,2})",
    )


def test_criterion_10_outerplanar_strategy(capsys):
    ok = True
    count = 0
    for n in range(4, 11):
        for g in all_two_connected_outerplanar(n):
            count += 1
            pol = outerplanar_k2_policy(g)
            ok &= pol.num_cops == 2
            ok &= isinstance(verify_policy(g, hyperopic(2), pol), Win)
    ok &= count == 1488
    assert report(
        capsys, 10, ok,
        "territory strategy wins with 2 cops on every 2-connected outerplanar"
        " graph (1488 graphs, 4 <= n <= 10)",
    )


def test_criterion_11_outerplanar_sqrt_bound(capsys):
    ok = True
    count = 0
    for n in range(5, 10):
        bound = math.sqrt(2 * n)
        for g in all_two_connected_outerplanar(n):
            count += 1
            _, record = search_cop_number(g, hyperopic(3), bound=int(bound))
            ok &= record["status"] == "cop_win"
    ok &= count == 369
    assert report(
        capsys, 11, ok,
        "exact cop numbers stay below sqrt(2n) on 2-connected outerplanar"
        " graphs (369 graphs, 5 <= n <= 9, blindness radius 3)",
    )


def test_criterion_12_audit_verdicts(capsys):
    verdicts = {name: claim_verdict(run_claim(name)) for name in sorted(CLAIMS)}
    documented = {n for n, v in verdicts.items() if v == "violation-documented"}
    passing = {n for n, v in verdicts.items() if v == "pass"}
    ok = documented == set(DOCUMENTED_CLAIMS) == {"tfamily-diam", "diam4-bound"}
    ok &= passing == set(CLAIMS) - documented
    assert report(
        capsys, 12, ok,
        "audits flag exactly the two documented discrepancies"
        " (recursive-spider diameters; blind floor(diam/4) bound)"
        " and pass the other 13 claims at full default scope",
    )


def test_criterion_13_solver_self_consistency(capsys):
    ok = True
    wins = 0
    for g in connected_graphs(5):
        value = cop_number(g, full_visibility())
        ok &= value == oracles.fullvis_cop_number(g.n, g.edges)
        res = solve(GameSpec(g, full_visibility(), value))
        ok &= res.is_cop_win
        if res.is_cop_win:
            wins += 1
            pol = certificate_policy(g, full_visibility(), res.certificate)
            outcome = verify_policy(g, full_visibility(), pol)
            ok &= isinstance(outcome, Win) and outcome.rounds <= res.certificate.bound
    ok &= wins == 31
    assert report(
        capsys, 13, ok,
        "exact solver matches an independent positional solver on all 31"
        " connected graphs n <= 5, and every winning verdict replays its"
        " certificate to capture",
    )

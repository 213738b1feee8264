"""Tests for the theorem-audit claim runners."""

import gc
import itertools
import json

import pytest

from hyperopic import audits
from hyperopic.audits import (
    CLAIMS,
    DOCUMENTED_CLAIMS,
    PASS,
    UNDECIDED,
    VIOLATION,
    VIOLATION_DOCUMENTED,
    AuditReport,
    claim_verdict,
    run_claim,
)
from hyperopic.cache import ResultCache
from hyperopic.graph import build_graph, verify_retraction

# small-but-meaningful scope per claim, so the whole registry runs in seconds
SMALL_SCOPE = {
    "prop-classes": 6,
    "bipartite": 4,
    "monotonicity": 5,
    "zerovis-eq": 5,
    "diam-bound": 5,
    "retract": 5,
    "caterpillar": 7,
    "matching-bound": 5,
    "tree2": 8,
    "pendant": 8,
    "tree-lemmas": 8,
    "tfamily-diam": None,
    "diam4-bound": 8,
    "outerplanar2": 7,
    "outerplanar-sqrt": 7,
}


def test_claim_registry():
    assert len(CLAIMS) == 15
    assert set(SMALL_SCOPE) == set(CLAIMS)
    assert DOCUMENTED_CLAIMS == {"tfamily-diam", "diam4-bound"}
    assert DOCUMENTED_CLAIMS <= set(CLAIMS)


def test_unknown_claim_is_rejected():
    with pytest.raises(ValueError, match="unknown claim"):
        run_claim("flat-earth")


def test_caterpillar_claim_covers_all_small_trees():
    reports = run_claim("caterpillar")
    assert len(reports) == 95  # non-isomorphic trees on 1..9 vertices
    assert all(r.verdict == PASS for r in reports)
    assert claim_verdict(reports) == PASS
    # both directions appear in the observations
    cats = [r for r in reports if r.observed["is_caterpillar"]]
    lobsters = [r for r in reports if not r.observed["is_caterpillar"]]
    assert cats and lobsters
    for r in cats:
        assert r.observed["one_cop_wins_k2"] and r.observed["one_cop_wins_k3"]
    for r in lobsters:
        assert not r.observed["one_cop_wins_k2"]
        assert not r.observed["one_cop_wins_k3"]


def test_recursive_spider_diameters_are_documented_violations():
    reports = run_claim("tfamily-diam")
    assert len(reports) == 3
    assert [r.verdict for r in reports] == [VIOLATION_DOCUMENTED] * 3
    assert sorted(r.observed["diameter"] for r in reports) == [0, 4, 8]
    assert sorted(r.observed["claimed_min_diameter"] for r in reports) == [4, 8, 12]
    assert claim_verdict(reports) == VIOLATION_DOCUMENTED


def test_blind_diameter_quarter_bound_violations_are_documented():
    reports = run_claim("diam4-bound")
    assert len(reports) == 31
    bad = [r for r in reports if r.verdict == VIOLATION_DOCUMENTED]
    good = [r for r in reports if r.verdict == PASS]
    assert len(bad) == 4 and len(good) == 27
    for r in bad:
        assert r.observed["zero_cop_number"] > r.observed["bound"]
    # the 7-vertex spider is among the witnesses: two blind cops needed
    # against a claimed bound of one
    assert any(
        r.instance["n"] == 7
        and r.observed["diameter"] == 4
        and r.observed["zero_cop_number"] == 2
        for r in bad
    )
    assert claim_verdict(reports) == VIOLATION_DOCUMENTED


def test_every_other_claim_passes_at_reduced_scope():
    for name in sorted(CLAIMS):
        reports = run_claim(name, n_max=SMALL_SCOPE[name])
        assert reports, name
        expect = VIOLATION_DOCUMENTED if name in DOCUMENTED_CLAIMS else PASS
        assert claim_verdict(reports) == expect, name
        assert not any(r.verdict == VIOLATION for r in reports), name


def test_reports_come_out_sorted_and_json_clean():
    reports = run_claim("bipartite", n_max=4)
    assert reports == sorted(reports, key=AuditReport.sort_key)
    for r in reports:
        obj = json.loads(r.to_json())
        assert set(obj) == {"claim", "instance", "expected", "observed", "verdict"}
        assert obj["claim"] == "bipartite"
        assert "graph6" in obj["instance"]


def test_claims_reuse_the_result_cache(tmp_path):
    cache = ResultCache(str(tmp_path / "cache.jsonl"))
    first = run_claim("caterpillar", n_max=6, cache=cache)
    assert len(cache) > 0
    warm = ResultCache(str(tmp_path / "cache.jsonl"))
    second = run_claim("caterpillar", n_max=6, cache=warm)
    assert warm.hits > 0
    assert [r.to_json() for r in first] == [r.to_json() for r in second]


def test_tiny_state_cap_surfaces_as_undecided():
    reports = run_claim("caterpillar", n_max=4, state_cap=2)
    assert any(r.verdict == UNDECIDED for r in reports)
    assert claim_verdict(reports) == UNDECIDED


def _mk(verdict):
    return AuditReport("c", {"graph6": "?"}, "e", {}, verdict)


def test_claim_verdict_takes_the_worst():
    assert claim_verdict([]) == PASS
    assert claim_verdict([_mk(PASS)]) == PASS
    assert claim_verdict([_mk(PASS), _mk(UNDECIDED)]) == UNDECIDED
    assert claim_verdict([_mk(UNDECIDED), _mk(VIOLATION_DOCUMENTED)]) == \
        VIOLATION_DOCUMENTED
    assert claim_verdict(
        [_mk(PASS), _mk(VIOLATION_DOCUMENTED), _mk(VIOLATION)]
    ) == VIOLATION


def test_retraction_search_leaves_no_reference_cycles():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    gc.collect()
    gc.disable()
    try:
        found = [audits._find_retraction(g, hs)
                 for hs in itertools.combinations(range(5), 3)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    # the first map in ascending (vertex, target) order, as the rows pin it
    assert found[0] == {0: 0, 1: 1, 2: 2, 3: 0, 4: 0}
    assert found[6] == {0: 1, 1: 1, 2: 2, 3: 3, 4: 2}
    assert [i for i, m in enumerate(found) if m is None] == [1, 7, 8]
    for hs, m in zip(itertools.combinations(range(5), 3), found):
        assert m is None or verify_retraction(g, hs, m)


def test_connected_graphs_are_converted_once_without_reference_cycles():
    audits._connected_graphs(7)  # the first call converts the atlas
    gc.collect()
    gc.disable()
    try:
        found = [audits._connected_graphs(n) for n in (5, 6, 7)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert [len(graphs) for graphs in found] == [31, 143, 996]
    # smaller bounds give prefixes of the same list, in atlas order
    shapes = [[(g.n, g.edges) for g in graphs] for graphs in found]
    assert shapes[2][:143] == shapes[1] and shapes[1][:31] == shapes[0]
    assert [n for n, _ in shapes[2]] == sorted(n for n, _ in shapes[2])


def test_retract_rows_check_every_map(monkeypatch):
    reports = run_claim("retract", n_max=4)
    assert reports and all(r.verdict == PASS for r in reports)

    found = audits._find_retraction

    def broken(g, hs):
        # the found map, but moving a vertex of the retract: no retraction
        m = found(g, hs)
        return None if m is None else {**m, hs[0]: hs[-1]}

    monkeypatch.setattr(audits, "_find_retraction", broken)
    reports = run_claim("retract", n_max=4)
    assert reports and all(r.verdict == VIOLATION for r in reports)
    assert all(r.observed["note"] == "map is not a retraction" for r in reports)

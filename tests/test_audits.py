"""Tests for the theorem-audit claim runners."""

import json

import pytest

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

"""Tests for the theorem-audit claim runners."""

import dataclasses
import gc
import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

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
from hyperopic.families import all_trees
from hyperopic.formats import encode_graph6
from hyperopic.game import STATE_CAP, hyperopic, zero_visibility
from hyperopic.graph import Matching, build_graph, verify_retraction
from hyperopic.strategies import Evaded, Timeout

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


@pytest.fixture
def serial(monkeypatch):
    """Run every shard in this process: forked workers see a test's patches,
    but count calls in their own memory, which the test never reads."""
    monkeypatch.setattr(audits, "_shard_count", lambda: 1)


def test_claim_registry():
    assert len(CLAIMS) == 15
    assert set(SMALL_SCOPE) == set(CLAIMS)
    assert DOCUMENTED_CLAIMS == {"tfamily-diam", "diam4-bound"}
    assert DOCUMENTED_CLAIMS <= set(CLAIMS)


def test_unknown_claim_is_rejected():
    with pytest.raises(ValueError, match="unknown claim"):
        run_claim("flat-earth")


def test_a_scope_below_one_is_rejected():
    # an audit of nothing would pass
    for name in CLAIMS:
        for n_max in (0, -1):
            with pytest.raises(ValueError, match="n_max must be at least 1"):
                run_claim(name, n_max=n_max)


def test_outerplanar2_at_scope_one_checks_its_cut_vertex_examples():
    reports = run_claim("outerplanar2", n_max=1)
    assert sorted(r.instance["name"] for r in reports) == [
        "bowtie", "square-bridge-triangle", "triangle-chain", "triangle-tail",
        "two-squares",
    ]
    assert claim_verdict(reports) == PASS


@pytest.mark.parametrize(
    "name, default, hard",
    [("pendant", 9, 12), ("diam4-bound", 8, 9), ("outerplanar-sqrt", 9, 10)],
)
def test_run_claim_clamps_the_scope_once(serial, monkeypatch, name, default,
                                          hard):
    scopes = []

    def family(n):
        scopes.append(n)
        return ()

    monkeypatch.setitem(CLAIMS, name, dataclasses.replace(
        CLAIMS[name], family=family, rows=lambda item, ctx: ()))
    for n_max in (None, 100, hard, 3):
        assert run_claim(name, n_max=n_max) == []
    assert scopes == [default, hard, hard, 3]


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


# per claim at SMALL_SCOPE: row count and a sha256 prefix over the rows'
# to_json() lines, in run_claim order, joined by newlines
SMALL_SCOPE_ROWS = {
    "bipartite": (18, "6cee174552f1"),
    "caterpillar": (25, "896173c16d46"),
    "diam-bound": (7, "56d2b5eff8a6"),
    "diam4-bound": (31, "61dde3a34ae9"),
    "matching-bound": (31, "412bc763694f"),
    "monotonicity": (31, "e1dcf4f9b2e9"),
    "outerplanar-sqrt": (32, "4ba1e361f6fd"),
    "outerplanar2": (39, "c1ecff4e7c68"),
    "pendant": (58, "48aef8e0053a"),
    "prop-classes": (64, "e8c97d13406a"),
    "retract": (812, "917b6ee1b7b0"),
    "tfamily-diam": (3, "fbe1df3dbbd6"),
    "tree-lemmas": (60, "1ca134b583b5"),
    "tree2": (47, "692d11c5f11c"),
    "zerovis-eq": (31, "045b8d5f0cb6"),
}


def test_every_other_claim_passes_at_reduced_scope():
    assert set(SMALL_SCOPE_ROWS) == set(CLAIMS)
    for name in sorted(CLAIMS):
        reports = run_claim(name, n_max=SMALL_SCOPE[name])
        assert reports, name
        expect = VIOLATION_DOCUMENTED if name in DOCUMENTED_CLAIMS else PASS
        assert claim_verdict(reports) == expect, name
        assert not any(r.verdict == VIOLATION for r in reports), name
        text = "\n".join(r.to_json() for r in reports)
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        assert (len(reports), digest) == SMALL_SCOPE_ROWS[name], name


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
    assert len(cache.entries) > 0
    warm = ResultCache(str(tmp_path / "cache.jsonl"))
    second = run_claim("caterpillar", n_max=6, cache=warm)
    assert warm.hits > 0
    assert [r.to_json() for r in first] == [r.to_json() for r in second]


@pytest.mark.usefixtures("serial")
def test_one_shard_appends_its_new_records_once(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(str(path))
    opened = []
    real_open = open
    monkeypatch.setattr(
        "builtins.open", lambda *a, **kw: opened.append(a) or real_open(*a, **kw)
    )
    run_claim("bipartite", n_max=4, cache=cache)
    monkeypatch.undo()
    assert [a for a in opened if a[0] == str(path)] == [(str(path), "a")]
    assert len(path.read_text().splitlines()) == len(cache.entries) > 1


def test_tiny_state_cap_surfaces_as_undecided():
    reports = run_claim("caterpillar", n_max=4, state_cap=2)
    assert any(r.verdict == UNDECIDED for r in reports)
    assert claim_verdict(reports) == UNDECIDED


@pytest.mark.filterwarnings("error")
def test_a_state_cap_below_one_fails_the_claim(monkeypatch):
    # from the calling process, and raised again from a forked worker
    for k in (1, 2):
        _shards(monkeypatch, k)
        with pytest.raises(ValueError, match="state cap must be at least 1"):
            run_claim("caterpillar", n_max=3, state_cap=0)


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
    from hyperopic.formats import decode_graph6

    list(audits._connected_graphs(7))  # the first call imports the table
    found = [list(audits._connected_graphs(n)) for n in (5, 6, 7)]
    assert [len(strings) for strings in found] == [31, 143, 996]
    # smaller bounds give prefixes of the same list, in atlas order
    assert found[2][:143] == found[1] and found[1][:31] == found[0]
    gc.collect()
    gc.disable()
    try:
        graphs = [decode_graph6(s) for s in found[2]]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert [g.n for g in graphs] == sorted(g.n for g in graphs)


def test_the_atlas_table_is_the_networkx_atlas():
    import networkx as nx

    from hyperopic._atlas import CONNECTED

    expected = []
    for G in nx.graph_atlas_g()[1:]:
        if nx.is_connected(G):
            g = build_graph(G.number_of_nodes(), G.edges())
            expected.append(encode_graph6(g))
    assert len(expected) == 996
    assert list(CONNECTED) == expected
    assert list(audits._connected_graphs(7)) == expected
    assert list(audits._connected_graphs(5)) == expected[:31]


def _run_script(script, *options):
    """Run a `-c` script in a fresh interpreter that imports this library."""
    import hyperopic

    src = str(Path(hyperopic.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *options, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_solver_claims_run_without_networkx():
    # the atlas, the trees and the blossom matching all come from the repo;
    # gen --stats prints the matching number and verify plays the matching
    # policy
    script = (
        "import sys\n"
        "import hyperopic\n"
        "from hyperopic import audits, cli\n"
        "audits._shard_count = lambda: 1\n"
        f"for name, n_max in {sorted(SMALL_SCOPE.items())!r}:\n"
        "    assert audits.run_claim(name, n_max=n_max), name\n"
        "for argv in (['copnum', 'Dhc', '--rule', 'zero'],\n"
        "             ['gen', '--family', 'cycle', '--n', '5', '--stats'],\n"
        "             ['verify', 'Dhc', '--policy', 'matching']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.startswith('networkx')))\n"
    )
    done = _run_script(script)
    assert done.returncode == 0, done.stderr
    assert '"matching_number": 2' in done.stdout
    assert done.stdout.endswith("\n[]\n")


@pytest.mark.usefixtures("serial")
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


def _fake_search(statuses):
    """A stand-in for search_cop_number that finds no winning cop count:
    statuses maps each rule's k to "robber_win" or "undecided"."""

    def search(g, rule, *, bound, cache, state_cap):
        return None, {"status": statuses[rule.k]}

    return search


@pytest.mark.usefixtures("serial")
def test_a_decided_caterpillar_mismatch_is_not_hidden_by_an_undecided_k(
    monkeypatch,
):
    # k = 2 decided (one cop loses everywhere), k = 3 undecided: every
    # caterpillar is a decided counterexample, every other tree undecided
    monkeypatch.setattr(
        audits,
        "search_cop_number",
        _fake_search({2: "robber_win", 3: "undecided"}),
    )
    reports = run_claim("caterpillar", n_max=7)
    cats = [r for r in reports if r.observed["is_caterpillar"]]
    assert cats and len(cats) < len(reports)
    for r in reports:
        assert r.observed["one_cop_wins_k2"] is False
        assert r.observed["one_cop_wins_k3"] is None
        assert r.verdict == (
            VIOLATION if r.observed["is_caterpillar"] else UNDECIDED
        )
    # the same mismatch on k = 3 with k = 2 undecided
    monkeypatch.setattr(
        audits,
        "search_cop_number",
        _fake_search({2: "undecided", 3: "robber_win"}),
    )
    reports = run_claim("caterpillar", n_max=7)
    assert [r.verdict for r in reports] == [
        VIOLATION if r.observed["is_caterpillar"] else UNDECIDED
        for r in reports
    ]


@pytest.mark.usefixtures("serial")
def test_policy_rows_report_an_evasion_as_a_violation(monkeypatch):
    loop = (((0, 1), frozenset({3, 2})), ((0, 1), frozenset({2, 3})))
    monkeypatch.setattr(audits, "verify_policy", lambda g, r, p: Evaded(loop))
    reports = run_claim("tree2", n_max=4)
    assert reports
    for r in reports:
        assert r.verdict == VIOLATION
        assert r.observed["outcome"] == "evaded"
        assert r.observed["witness"] == [[[0, 1], [2, 3]], [[0, 1], [2, 3]]]
        assert r.observed["cops_used"] == 2
        assert "rounds" not in r.observed


@pytest.mark.usefixtures("serial")
def test_policy_rows_report_a_timeout_as_undecided(monkeypatch):
    monkeypatch.setattr(audits, "verify_policy", lambda g, r, p: Timeout(5))
    reports = run_claim("tree-lemmas", n_max=6)
    policy_rows = [r for r in reports if r.instance["kind"] != "midrange-bound"]
    assert policy_rows
    for r in policy_rows:
        assert r.verdict == UNDECIDED
        assert r.observed["outcome"] == "timeout"
        assert r.observed["nodes"] == 5
        assert r.observed["rule"] == "hyperopic"
        assert r.observed["k"] == r.instance["k"]


@pytest.mark.usefixtures("serial")
def test_a_winning_policy_with_the_wrong_cop_count_is_a_violation(
    monkeypatch,
):
    # claim one vertex more than the graph has: every perfect matching looks
    # imperfect, so its policy wins with one cop fewer than expected
    real = audits.maximum_matching
    monkeypatch.setattr(
        audits,
        "maximum_matching",
        lambda g: Matching(edges=real(g).edges, n=g.n + 1),
    )
    reports = run_claim("matching-bound", n_max=4)
    assert all(r.observed["outcome"] == "win" for r in reports)
    assert all("k" not in r.observed for r in reports)
    verdicts = [
        PASS
        if r.observed["cops_used"] == r.observed["expected_cops"]
        else VIOLATION
        for r in reports
    ]
    assert VIOLATION in verdicts and PASS in verdicts
    assert [r.verdict for r in reports] == verdicts


@pytest.mark.usefixtures("serial")
def test_the_matching_claim_matches_each_graph_once(monkeypatch):
    # the claim and the policy it verifies share one blossom run per graph
    from hyperopic import graph

    calls = []
    real = graph._blossom_matching

    def counted(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(graph, "_blossom_matching", counted)
    reports = run_claim("matching-bound", n_max=4)
    assert len(calls) == len(reports) == 10
    assert {r.verdict for r in reports} == {PASS}


def test_bound_rows_report_a_state_cap_as_undecided():
    reports = run_claim("outerplanar-sqrt", n_max=5, state_cap=2)
    assert reports
    for r in reports:
        assert r.verdict == UNDECIDED
        assert r.observed["cop_number"] is None
        assert r.observed["note"] == "undecided (state cap)"
        assert r.observed["bound"] == 3


@pytest.mark.usefixtures("serial")
def test_bound_rows_report_an_exceeded_bound_as_a_violation(monkeypatch):
    monkeypatch.setattr(
        audits, "search_cop_number", _fake_search({3: "robber_win"})
    )
    reports = run_claim("outerplanar-sqrt", n_max=6)
    assert reports
    for r in reports:
        assert r.verdict == VIOLATION
        assert r.observed["cop_number_exceeds"] == r.observed["bound"]
        assert "cop_number" not in r.observed


@pytest.mark.usefixtures("serial")
def test_exact_bound_rows_need_the_exact_value(monkeypatch):
    def one_cop(g, rule, *, bound, cache, state_cap):
        return 1, {"status": "cop_win"}

    monkeypatch.setattr(audits, "search_cop_number", one_cop)
    reports = run_claim("bipartite", n_max=4)
    assert {r.observed["expected_value"] for r in reports} == {1, 2, 3}
    for r in reports:
        assert r.observed["cop_number"] == 1
        assert r.verdict == (
            PASS if r.observed["expected_value"] == 1 else VIOLATION
        )


# ---------------------------------------------------------------------------
# Sharded claims: with two shards, each shard runs in a worker forked for
# the claim.


def _shards(monkeypatch, k):
    monkeypatch.setattr(audits, "_shard_count", lambda: k)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


# SMALL_SCOPE_ROWS again with every solve capped at 5 states, so that most
# solver-backed rows are undecided
CAPPED_SCOPE_ROWS = {
    "bipartite": (18, "4a81cd52648d"),
    "caterpillar": (25, "df0cc05aaf42"),
    "diam-bound": (7, "356c9e5172d6"),
    "diam4-bound": (31, "86aaeaf11d3f"),
    "matching-bound": (31, "412bc763694f"),
    "monotonicity": (31, "923932649f01"),
    "outerplanar-sqrt": (32, "076ff172620e"),
    "outerplanar2": (39, "2fad23acbee7"),
    "pendant": (58, "48aef8e0053a"),
    "prop-classes": (64, "99a11097762f"),
    "retract": (812, "136ab7cf76e3"),
    "tfamily-diam": (3, "fbe1df3dbbd6"),
    "tree-lemmas": (60, "53ece256768b"),
    "tree2": (47, "692d11c5f11c"),
    "zerovis-eq": (31, "ffd10b6064e2"),
}


@pytest.mark.filterwarnings("error")
def test_two_shards_give_the_rows_of_one(monkeypatch):
    for state_cap, pinned in ((STATE_CAP, SMALL_SCOPE_ROWS),
                              (5, CAPPED_SCOPE_ROWS)):
        assert set(pinned) == set(CLAIMS)
        for name in sorted(CLAIMS):
            rows = {}
            for k in (1, 2):
                _shards(monkeypatch, k)
                reports = run_claim(
                    name, n_max=SMALL_SCOPE[name], state_cap=state_cap
                )
                rows[k] = [r.to_json() for r in reports]
            assert rows[2] == rows[1], (name, state_cap)
            assert (len(rows[2]), _digest(rows[2])) == pinned[name], (
                name, state_cap)


@pytest.mark.filterwarnings("error")
def test_two_shards_write_the_cache_lines_of_one(monkeypatch, tmp_path):
    # zerovis-eq's workers start from the entries monotonicity left, and
    # retract solves some retracts in both shards
    lines = {}
    for k in (1, 2):
        _shards(monkeypatch, k)
        path = tmp_path / f"cache-{k}.jsonl"
        cache = ResultCache(str(path))
        for name in ("monotonicity", "zerovis-eq", "retract"):
            run_claim(name, n_max=5, cache=cache)
        lines[k] = path.read_text().splitlines()
    assert lines[1] and sorted(lines[2]) == sorted(lines[1])


@pytest.mark.filterwarnings("error")
def test_each_shard_decodes_only_its_own_atlas_graphs(monkeypatch, tmp_path):
    # the workers append each graph6 string they decode to one file
    log = tmp_path / "decoded.txt"
    decode = audits.decode_graph6

    def logged(s):
        with open(log, "a") as out:
            out.write(s + "\n")
        return decode(s)

    monkeypatch.setattr(audits, "decode_graph6", logged)
    for k in (1, 2):
        _shards(monkeypatch, k)
        log.write_text("")
        assert run_claim("retract", n_max=4)
        decoded = log.read_text().splitlines()
        assert sorted(decoded) == sorted(audits._connected_graphs(4)), k


@pytest.mark.filterwarnings("error")
def test_worker_cache_hits_are_counted(monkeypatch, tmp_path):
    path = str(tmp_path / "cache.jsonl")
    run_claim("caterpillar", n_max=6, cache=ResultCache(path))
    hits = {}
    for k in (1, 2):
        _shards(monkeypatch, k)
        warm = ResultCache(path)
        run_claim("caterpillar", n_max=6, cache=warm)
        hits[k] = warm.hits
    assert hits[2] == hits[1] > 0


@pytest.mark.filterwarnings("error")
def test_a_failure_in_a_worker_shard_raises_from_run_claim(monkeypatch):
    _shards(monkeypatch, 2)
    # trees on 1..4 vertices, dealt in order: shard 1 runs the tree on 2
    # vertices and the first tree on 4 vertices, and a record without a
    # status fails the search of the latter
    tree = all_trees(4)[0]
    cache = ResultCache(None)
    for rule in (hyperopic(2), hyperopic(3), zero_visibility()):
        cache.put((encode_graph6(tree), rule.kind, rule.k, 1), {})
    with pytest.raises(KeyError, match="status") as raised:
        run_claim("caterpillar", n_max=4, cache=cache)
    assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"
    # the next claim runs
    assert len(run_claim("caterpillar", n_max=4)) == 5


def _numbered(claim, rows):
    """claim with each instance numbered by its place in the family and
    checked by rows, which so knows its shard: item i goes to shard
    i % shards."""
    return dataclasses.replace(
        claim, family=lambda n: enumerate(claim.family(n)), rows=rows
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shards", [1, 2])
def test_a_claim_that_raises_stores_none_of_its_records(
    monkeypatch, tmp_path, shards
):
    _shards(monkeypatch, shards)
    claim = CLAIMS["bipartite"]

    def fails_in_the_last_shard(item, ctx):
        i, instance = item
        yield from claim.rows(instance, ctx)
        if i % shards == shards - 1:
            raise RuntimeError("last shard failed")

    monkeypatch.setitem(
        CLAIMS, "bipartite", _numbered(claim, fails_in_the_last_shard))
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(str(path))
    with pytest.raises(RuntimeError, match="last shard failed"):
        run_claim("bipartite", n_max=3, cache=cache)
    assert (path.read_text(), len(cache.entries), cache.hits) == ("", 0, 0)


@pytest.mark.filterwarnings("error")
def test_the_shards_run_outside_the_calling_process(monkeypatch):
    _shards(monkeypatch, 2)

    def pids(i, ctx):
        pid = {"pid": os.getpid()}
        yield AuditReport("pids", {"shard": i}, "", pid, PASS)

    monkeypatch.setitem(CLAIMS, "bipartite", dataclasses.replace(
        CLAIMS["bipartite"], family=lambda n: range(2), rows=pids))
    reports = run_claim("bipartite")
    assert [r.instance["shard"] for r in reports] == [0, 1]
    assert os.getpid() not in {r.observed["pid"] for r in reports}


@pytest.mark.filterwarnings("error")
def test_a_dead_worker_fails_its_claim_and_the_next_claim_runs(monkeypatch):
    _shards(monkeypatch, 2)
    expect = run_claim("bipartite", n_max=3)
    claim = CLAIMS["bipartite"]

    def dies_in_shard_1(item, ctx):
        i, instance = item
        if i % 2 == 1:
            os._exit(1)
        return claim.rows(instance, ctx)

    monkeypatch.setitem(CLAIMS, "bipartite", _numbered(claim, dies_in_shard_1))
    with pytest.raises(BrokenProcessPool):
        run_claim("bipartite", n_max=3)
    monkeypatch.setitem(CLAIMS, "bipartite", claim)
    assert run_claim("bipartite", n_max=3) == expect


@pytest.mark.filterwarnings("error")
def test_no_worker_outlives_its_claim(monkeypatch):
    _shards(monkeypatch, 2)
    assert run_claim("bipartite", n_max=3)
    assert multiprocessing.active_children() == []

    def fails_in_shard_1(i, ctx):
        if i % 2 == 1:
            raise RuntimeError("shard 1 failed")
        return []

    monkeypatch.setitem(CLAIMS, "bipartite", dataclasses.replace(
        CLAIMS["bipartite"], family=lambda n: range(2), rows=fails_in_shard_1))
    with pytest.raises(RuntimeError, match="shard 1 failed"):
        run_claim("bipartite", n_max=3)
    assert multiprocessing.active_children() == []


# Runs a two-shard claim twice at top level, the second time in a process
# that has forked before, and prints the row counts and the children left.
UNGUARDED_SCRIPT = (
    "import multiprocessing\n"
    "from hyperopic import audits\n"
    "audits._shard_count = lambda: 2\n"
    "for _ in range(2):\n"
    "    rows = audits.run_claim('bipartite', n_max=4)\n"
    "    print(len(rows), multiprocessing.active_children())\n"
)


def test_a_script_without_a_main_guard_runs_sharded_claims():
    # forked workers do not import the script's main module again
    done = _run_script(UNGUARDED_SCRIPT, "-W", "error")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "18 []\n" * 2

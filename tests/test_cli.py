"""End-to-end tests of the command-line interface via main(argv)."""

import io
import json

import networkx as nx
import pytest

from hyperopic import game
from hyperopic.audits import CLAIMS, AuditReport, run_claim
from hyperopic.cache import SCHEMA_VERSION
from hyperopic.cli import build_parser, main
from hyperopic.families import complete, cycle, path, t_hat
from hyperopic.formats import encode_graph6
from hyperopic.graph import Graph


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def nx_of(g6):
    return nx.from_graph6_bytes(g6.encode("ascii"))


# ---------------------------------------------------------------------------
# copnum


def test_copnum_path(capsys):
    code, out, err = run(
        capsys, ["copnum", encode_graph6(path(5)), "--rule", "hyperopic", "--k", "2"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1"
    rec = json.loads(lines[1])
    assert rec["cop_number"] == 1
    assert rec["rule"] == "hyperopic" and rec["k"] == 2
    assert rec["graph6"] == encode_graph6(path(5))
    assert len(rec["placement"]) == 1
    assert rec["states_explored"] > 0


def test_copnum_more_examples(capsys):
    code, out, _ = run(
        capsys, ["copnum", encode_graph6(cycle(7)), "--rule", "hyperopic", "--k", "3"]
    )
    assert code == 0 and out.strip().splitlines()[0] == "2"

    code, out, _ = run(
        capsys, ["copnum", encode_graph6(complete(7)), "--rule", "hyperopic", "--k", "1"]
    )
    assert code == 0 and out.strip().splitlines()[0] == "4"

    code, out, _ = run(capsys, ["copnum", encode_graph6(path(5)), "--rule", "zero"])
    assert code == 0 and out.strip().splitlines()[0] == "1"

    code, out, _ = run(capsys, ["copnum", encode_graph6(cycle(4)), "--rule", "classic"])
    assert code == 0 and out.strip().splitlines()[0] == "2"


def test_copnum_full_is_the_classic_rule(capsys):
    # the library's name for the rule, and the older CLI name, give the
    # same answer; the record echoes the name asked for
    outs = {}
    for name in ("full", "classic"):
        code, out, _ = run(capsys, ["copnum", encode_graph6(cycle(4)), "--rule", name])
        assert code == 0
        value, rec = out.strip().splitlines()
        outs[name] = (value, json.loads(rec))
    assert outs["full"][0] == outs["classic"][0] == "2"
    assert outs["full"][1]["rule"] == "full"
    assert outs["classic"][1]["rule"] == "classic"
    assert outs["full"][1]["k"] is None
    del outs["full"][1]["rule"], outs["classic"][1]["rule"]
    assert outs["full"][1] == outs["classic"][1]

    code, _, err = run(
        capsys, ["copnum", encode_graph6(cycle(4)), "--rule", "full", "--k", "2"]
    )
    assert code == 2 and "--rule full takes no --k" in err


def test_copnum_reads_edge_lists_and_files(tmp_path, capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["copnum", "0 1\n1 2", "--format", "edges", "--rule", "hyperopic", "--k", "1"],
    )
    assert code == 0 and out.strip().splitlines()[0] == "1"

    f = tmp_path / "g.g6"
    f.write_text(encode_graph6(cycle(5)) + "\n")
    code, out, _ = run(capsys, ["copnum", str(f), "--rule", "hyperopic", "--k", "3"])
    assert code == 0 and out.strip().splitlines()[0] == "2"

    monkeypatch.setattr("sys.stdin", io.StringIO(encode_graph6(path(4)) + "\n"))
    code, out, _ = run(capsys, ["copnum", "-", "--rule", "hyperopic", "--k", "2"])
    assert code == 0 and out.strip().splitlines()[0] == "1"


def test_copnum_usage_errors(capsys):
    code, _, err = run(capsys, ["copnum", encode_graph6(path(5))])  # missing --k
    assert code == 2 and "requires --k" in err

    code, _, err = run(
        capsys, ["copnum", encode_graph6(path(5)), "--rule", "zero", "--k", "2"]
    )
    assert code == 2 and "takes no --k" in err

    code, _, err = run(capsys, ["copnum", "##garbage##", "--rule", "zero"])
    assert code == 2 and "error" in err

    # trailing characters after the edge bits are not graph6
    code, out, err = run(capsys, ["copnum", "BwAAAA", "--k", "1"])
    assert (code, out) == (2, "") and "needs 1 characters" in err

    code, _, err = run(
        capsys,
        ["copnum", encode_graph6(path(5)), "--rule", "zero", "--max-cops", "0"],
    )
    assert code == 2 and "max-cops" in err

    for cap in ("0", "-5"):
        code, out, err = run(
            capsys,
            ["copnum", encode_graph6(path(5)), "--rule", "zero",
             "--state-cap", cap],
        )
        assert (code, out) == (2, "")
        assert err == "error: --state-cap must be at least 1\n"


def test_copnum_undecided_exits_three(capsys):
    code, out, err = run(
        capsys,
        ["copnum", encode_graph6(cycle(4)), "--rule", "classic", "--max-cops", "1"],
    )
    assert code == 3 and out == "" and "no win with up to" in err

    code, out, err = run(
        capsys,
        ["copnum", encode_graph6(cycle(7)), "--rule", "hyperopic", "--k", "2",
         "--state-cap", "3"],
    )
    assert code == 3 and out == "" and "state cap" in err


def test_state_cap_defaults_to_the_library_cap():
    parser = build_parser()
    for argv in (["copnum", "Dhc"], ["audit"]):
        assert parser.parse_args(argv).state_cap == game.STATE_CAP


def test_copnum_rejects_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["copnum", encode_graph6(cycle(5)), "--k", "2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_copnum_cache_hit_reruns_identically(tmp_path, capsys):
    cache = str(tmp_path / "cache.jsonl")
    argv = ["copnum", encode_graph6(cycle(7)), "--rule", "hyperopic", "--k", "3",
            "--cache", cache]
    code1, out1, err1 = run(capsys, argv)
    code2, out2, err2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "cache hit" not in err1
    assert "cache hits: 2" in err2


# The cache lines `copnum Dhc --rule zero --cache F` wrote at schema
# version 5, whose cop wins also stored a placement and a round bound.
VERSION_5_LINES = (
    '{"check":"75a064927c598b24","key":{"cops":1,"graph6":"Dhc","k":null,'
    '"rule":"zero","version":5},"result":{"states":1,"status":"robber_win"}}\n'
    '{"check":"f41412ef70d438cb","key":{"cops":2,"graph6":"Dhc","k":null,'
    '"rule":"zero","version":5},"result":{"placement":[0,2],"rounds":2,'
    '"states":5,"status":"cop_win"}}\n'
)


def test_copnum_on_a_version_5_cache_solves_afresh(tmp_path, capsys):
    argv = ["copnum", "Dhc", "--rule", "zero", "--cache"]
    fresh = tmp_path / "fresh.jsonl"
    code, cold, _ = run(capsys, argv + [str(fresh)])
    assert code == 0
    old = tmp_path / "old.jsonl"
    old.write_text(VERSION_5_LINES)
    with pytest.warns(UserWarning) as caught:
        code, out, err = run(capsys, argv + [str(old)])
    assert [str(w.message) for w in caught] == [
        f"cache {old}: 2 line(s) of a schema version other than"
        f" {SCHEMA_VERSION}; each stale line skipped"
    ]
    assert code == 0 and out == cold and "cache hit" not in err
    lines = old.read_text().splitlines(keepends=True)
    assert "".join(lines[:2]) == VERSION_5_LINES
    assert lines[2:] == fresh.read_text().splitlines(keepends=True)
    for line in lines[2:]:
        rec = json.loads(line)
        assert rec["key"]["version"] == SCHEMA_VERSION
        assert set(rec["result"]) == {"status", "states"}


# ---------------------------------------------------------------------------
# verify


def test_verify_tree_policy(capsys):
    code, out, _ = run(
        capsys, ["verify", encode_graph6(t_hat()), "--policy", "tree2"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec == {
        "policy": "tree2",
        "cops_used": 2,
        "outcome": "win",
        "rounds_or_witness": 3,
    }


def test_verify_matching_policy(capsys):
    code, out, _ = run(
        capsys, ["verify", encode_graph6(cycle(5)), "--policy", "matching"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["outcome"] == "win" and rec["cops_used"] == 3


def test_verify_parametrized_policies(capsys):
    code, out, _ = run(
        capsys, ["verify", encode_graph6(path(10)), "--policy", "pendant", "--k", "4"]
    )
    assert code == 0
    assert json.loads(out)["rounds_or_witness"] == 6

    code, out, _ = run(
        capsys, ["verify", encode_graph6(cycle(8)), "--policy", "outerplanar"]
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "win"

    # a relabelled graph the policy loses on: a verdict, not a hang
    code, out, _ = run(capsys, ["verify", "G?{{eO", "--policy", "outerplanar"])
    assert code == 0
    assert json.loads(out)["outcome"] == "evaded"


def test_verify_precondition_violations_exit_four(capsys):
    code, out, err = run(
        capsys, ["verify", encode_graph6(cycle(9)), "--policy", "stationary", "--k", "2"]
    )
    assert code == 4 and out == ""
    assert "precondition violated" in err and "diameter 4 too small" in err

    code, _, err = run(
        capsys, ["verify", encode_graph6(path(5)), "--policy", "neardiam", "--k", "4"]
    )
    assert code == 4 and "outside" in err

    # three cops exceed cop_cap(2) on the edge, and the lone vertex has no
    # diametral pair
    for graph6, k in (("A_", "2"), ("@", "1")):
        code, out, err = run(
            capsys, ["verify", graph6, "--policy", "neardiam", "--k", k]
        )
        assert (code, out) == (4, "")
        assert "requires at least 3 vertices" in err


def test_verify_k_flag_handling(capsys):
    code, _, err = run(
        capsys, ["verify", encode_graph6(path(10)), "--policy", "pendant"]
    )
    assert code == 2 and "requires --k" in err

    code, _, err = run(
        capsys, ["verify", encode_graph6(t_hat()), "--policy", "tree2", "--k", "3"]
    )
    assert code == 2 and "takes no --k" in err

    for k in ("0", "-3"):
        code, out, err = run(
            capsys, ["verify", "FkE?G", "--policy", "stationary", "--k", k]
        )
        assert code == 2 and out == ""
        assert err == "error: --k must be at least 1\n"


# ---------------------------------------------------------------------------
# gen


def test_gen_spider_with_stats(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "that", "--stats"])
    assert code == 0
    g6, stats_line = out.strip().splitlines()
    assert g6 == encode_graph6(t_hat())
    stats = json.loads(stats_line)
    assert stats == {
        "n": 7,
        "diameter": 4,
        "radius": 2,
        "matching_number": 3,
        "caterpillar": False,
    }


def test_gen_pendant_clique_family(capsys):
    code, out, _ = run(
        capsys, ["gen", "--family", "gk", "--m", "3", "--k", "2", "--stats"]
    )
    assert code == 0
    stats = json.loads(out.strip().splitlines()[1])
    assert stats["n"] == 15 and stats["diameter"] == 5


def test_gen_recursive_spider_matches_fixed_one(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "tfamily", "--m", "2"])
    assert code == 0
    assert nx.is_isomorphic(nx_of(out.strip()), nx_of(encode_graph6(t_hat())))


def test_gen_edge_format_and_subdivision(capsys):
    code, out, _ = run(
        capsys, ["gen", "--family", "path", "--n", "4", "--format", "edges"]
    )
    assert code == 0
    pairs = [tuple(map(int, ln.split())) for ln in out.strip().splitlines()]
    assert pairs == [(0, 1), (1, 2), (2, 3)]

    code, out, _ = run(
        capsys, ["gen", "--family", "cycle", "--n", "3", "--subdivide", "1"]
    )
    assert code == 0
    assert nx.is_isomorphic(nx_of(out.strip()), nx_of(encode_graph6(cycle(6))))


def test_gen_caterpillar_and_attach_modes(capsys):
    code, out, _ = run(
        capsys, ["gen", "--family", "caterpillar", "--leaves", "2,0,3", "--stats"]
    )
    assert code == 0
    stats = json.loads(out.strip().splitlines()[1])
    assert stats["caterpillar"] is True and stats["n"] == 8

    code, out, _ = run(
        capsys, ["gen", "--family", "tfamily", "--m", "2", "--attach", "eccentric",
                 "--stats"]
    )
    assert code == 0
    assert json.loads(out.strip().splitlines()[1])["diameter"] >= 4


def test_gen_usage_errors(capsys):
    code, _, err = run(capsys, ["gen", "--family", "gk", "--m", "3"])
    assert code == 2 and "requires --k" in err

    code, _, err = run(capsys, ["gen", "--family", "path", "--n", "4", "--m", "2"])
    assert code == 2 and "takes no --m" in err

    code, _, err = run(
        capsys, ["gen", "--family", "caterpillar", "--leaves", "a,b"]
    )
    assert code == 2 and "comma-separated" in err

    code, out, err = run(
        capsys, ["gen", "--family", "caterpillar", "--leaves=-2,1"]
    )
    assert (code, out) == (2, "") and "leaf counts must be >= 0" in err

    code, _, err = run(capsys, ["gen", "--family", "gk", "--m", "2", "--k", "1"])
    assert code == 2  # family constructor rejects m < 3

    # only the recursive spider family has an attachment point
    for family in (["path", "--n", "3"], ["that"], ["gk", "--m", "3", "--k", "1"]):
        code, out, err = run(
            capsys, ["gen", "--family", *family, "--attach", "eccentric"]
        )
        assert (code, out) == (2, "")
        assert err == f"error: family {family[0]!r} takes no --attach\n"


def test_argparse_failures_exit_two(capsys):
    for argv in [[], ["frobnicate"], ["gen", "--family", "moebius"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# audit


def test_audit_single_claim(capsys):
    code, out, err = run(capsys, ["audit", "--claim", "caterpillar", "--n-max", "6"])
    assert code == 0
    rows = [json.loads(ln) for ln in out.strip().splitlines()]
    assert rows and all(r["claim"] == "caterpillar" for r in rows)
    assert all(r["verdict"] == "pass" for r in rows)
    # summary table on stderr, with the claim's wall time in seconds
    header, line = err.splitlines()[-2:]
    assert header.split()[:3] == ["claim", "instances", "seconds"]
    name, count, seconds = line.split()[:3]
    assert (name, int(count)) == ("caterpillar", len(rows))
    assert float(seconds) >= 0


def test_audit_summary_reports_the_clamped_scope(capsys):
    # pendant's ceiling is 12 vertices, so --n-max 100 runs at 12; the
    # spider claim ignores the scope
    code, out, err = run(capsys, ["audit", "--claim", "pendant", "--n-max", "100"])
    assert code == 0
    header, line = err.splitlines()[-2:]
    assert header.split() == [
        "claim", "instances", "seconds", "scope", "verdict", "breakdown"]
    name, count, _, scope = line.split()[:4]
    assert (name, int(count), scope) == ("pendant", 1455, "12")
    assert len(out.splitlines()) == 1455
    code, _, err = run(capsys, ["audit", "--claim", "tfamily-diam", "--n-max", "100"])
    name, _, _, scope = err.splitlines()[-1].split()[:4]
    assert (code, name, scope) == (0, "tfamily-diam", "-")


def test_audit_documented_discrepancy_exits_zero(capsys):
    code, out, _ = run(capsys, ["audit", "--claim", "tfamily-diam"])
    assert code == 0
    rows = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [r["verdict"] for r in rows] == ["violation-documented"] * 3


def test_audit_all_claims_small(capsys):
    code, out, err = run(capsys, ["audit", "--n-max", "4"])
    assert code == 0
    rows = [json.loads(ln) for ln in out.strip().splitlines()]
    claims_seen = {r["claim"] for r in rows}
    assert claims_seen <= set(CLAIMS)
    assert "caterpillar" in claims_seen and "tfamily-diam" in claims_seen
    assert not any(r["verdict"] == "violation" for r in rows)
    # stdout rows are sorted by (claim, instance)
    keys = [(r["claim"], json.dumps(r["instance"], sort_keys=True)) for r in rows]
    assert keys == sorted(keys)


def test_audit_unknown_claim_exits_two(capsys):
    code, _, err = run(capsys, ["audit", "--claim", "flat-earth"])
    assert code == 2 and "unknown claim" in err


def test_audit_rejects_an_n_max_below_one(capsys):
    # a bound of 0 would run no instance and report a pass
    for n_max in ("0", "-3"):
        code, out, err = run(
            capsys, ["audit", "--claim", "caterpillar", "--n-max", n_max]
        )
        assert (code, out) == (2, "")
        assert err == "error: --n-max must be at least 1\n"


def test_audit_rejects_a_state_cap_below_one(capsys):
    # a cap of 0 would turn every row undecided instead of failing fast
    for cap in ("0", "-5"):
        code, out, err = run(
            capsys, ["audit", "--claim", "caterpillar", "--state-cap", cap]
        )
        assert (code, out) == (2, "")
        assert err == "error: --state-cap must be at least 1\n"


def test_audit_plain_violation_exits_one(capsys, monkeypatch):
    def fake_run_claim(claim, **kw):
        return [
            AuditReport(claim, {"graph6": "Bw"}, "always true", {}, "violation")
        ]

    monkeypatch.setattr("hyperopic.audits.run_claim", fake_run_claim)
    code, out, _ = run(capsys, ["audit", "--claim", "caterpillar"])
    assert code == 1
    assert json.loads(out)["verdict"] == "violation"


def test_audit_with_undecided_rows_exits_three(capsys):
    code, out, _ = run(
        capsys,
        ["audit", "--claim", "caterpillar", "--n-max", "4", "--state-cap", "2"],
    )
    assert code == 3
    reports = run_claim("caterpillar", n_max=4, state_cap=2)
    assert out == "".join(r.to_json() + "\n" for r in reports)
    assert [r.verdict for r in reports] == ["pass"] * 2 + ["undecided"] * 3


def test_audit_exit_code_follows_the_worst_genuine_verdict(capsys, monkeypatch):
    def fake_run_claim(verdicts):
        def run_claim(claim, **kw):
            return [
                AuditReport(claim, {"graph6": "Bw", "i": i}, "always true", {}, v)
                for i, v in enumerate(verdicts)
            ]

        return run_claim

    # a documented violation does not hide an undecided row, and a genuine
    # violation outranks one
    for verdicts, expected in (
        (["violation-documented", "undecided"], 3),
        (["undecided", "violation", "pass"], 1),
        (["violation-documented", "pass"], 0),
    ):
        monkeypatch.setattr("hyperopic.audits.run_claim", fake_run_claim(verdicts))
        code, _, _ = run(capsys, ["audit", "--claim", "caterpillar"])
        assert code == expected

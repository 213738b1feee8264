"""The benchmark's own checks.  From the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

They run whole benchmark passes, so they take a few minutes.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    """(exit code, stdout lines) of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    """Two traced runs at one seed: every count identical, checks passing."""
    runs = []
    for _ in range(2):
        code, lines = bench("--workload", workload, "--seed", "3",
                            "--seconds", "0", "--trace", "1")
        assert code == 0, lines
        res = result(lines)
        assert res["correct"] and res["failed"] == 0
        runs.append({k: m["value"] for k, m in res["metrics"].items()
                     if m["unit"] == "count"})
    assert runs[0] == runs[1]
    assert runs[0]["solver.undecided"] == 0


def test_seed_relabels_solve_big_but_keeps_its_answers():
    hyperopic = workloads.import_hyperopic(ROOT)
    g0 = workloads.solve_big_queries(hyperopic, 0)
    g1 = workloads.solve_big_queries(hyperopic, 1)
    assert [q[2] for q in g0] != [q[2] for q in g1]
    # Both seeds are checked against the same pinned statuses and cop numbers.
    for seed in ("0", "1"):
        code, lines = bench("--workload", "solve-big", "--seed", seed,
                            "--seconds", "0")
        assert code == 0, lines
        assert result(lines)["failed"] == 0


def test_each_changed_or_missing_audit_row_is_one_failure():
    hyperopic = workloads.import_hyperopic(ROOT)
    import hyperopic.audits

    ref = json.loads(workloads.REFERENCE.read_text())
    reports = hyperopic.audits.run_claim("pendant")
    rows = len(reports)
    assert workloads.check_audits({"pendant": (0.0, reports)}, ref)[:2] == (rows, 0)
    wrong = [dataclasses.replace(reports[0], verdict="violation")] + reports[2:]
    assert workloads.check_audits({"pendant": (0.0, wrong)}, ref)[:2] == (rows, 2)
    raised = {"pendant": (0.0, RuntimeError("boom"))}
    assert workloads.check_audits(raised, ref)[:2] == (rows, rows)


def test_without_the_library_no_result_is_printed(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("--workload", "audit-verify", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_a_wrong_answer_fails_the_run(tmp_path):
    """A build whose cop_number is off by one must not report metrics."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "src" / "hyperopic" / "solver.py"
    text = solver.read_text()
    assert text.count("            return c\n") == 1
    solver.write_text(text.replace("            return c\n",
                                   "            return c + 1\n"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "solve-big", "--seconds", "0",
                        cwd=tmp_path)
    res = result(lines)
    assert code == 1
    assert not res["correct"] and res["metrics"] == {}
    # One of the four queries fails in every pass.
    assert res["failed"] * 4 == res["attempted"]

"""The hyperopic benchmark: one workload, a closed loop of fresh processes.

    python3 perfbench/run.py --workload audit-solve --seed 0 --seconds 35 --trace 0

Run it from the root of a checkout; the library is imported from `src/`.
One client issues one pass at a time and starts the next only when the
previous one has exited, each pass in a fresh interpreter (workloads.py),
with no threads and no pool.  Passes repeat while another one is expected to
end within `--seconds` (at least MIN_PASSES of them), and every pass's
outputs are checked against `reference.json`.

With `--trace 0` the end-to-end metrics are reported: medians over the
passes of wall_s, items_per_s and peak_rss_mb, and setup_s as the median
over every process started (passes plus SETUP_PROBES set-up-only ones).
With `--trace 1` untraced and traced passes alternate, and the per-layer
metrics are reported; every integer count must repeat exactly across the
traced passes.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Any failed output check, or a
count that does not repeat, exits 1 with `"correct": false` and no metric
values.  See README.md for why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import AUDIT_SOLVE, AUDIT_VERIFY, WORKLOADS  # noqa: E402

# Every run must end within this many seconds, child processes included.
RUN_BUDGET_S = 170.0
SETUP_PROBES = 10
# An audit-solve pass takes about 20 s, so one pass would be one sample.
MIN_PASSES = 2

END_TO_END = [
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _layer_metrics():
    out = []

    def timed(prefix, *extra):
        out.append((f"{prefix}.calls", "count"))
        out.extend((f"{prefix}.{name}", "count") for name in extra)
        out.append((f"{prefix}.self_s", "s"))

    timed("game.cop_step")
    timed("game.joint_moves", "distinct")
    timed("game.robber_step", "distinct")
    out += [("game.table.builds", "count"), ("game.table.build_s", "s")]
    timed("solver.solve")
    out += [
        ("solver.states", "count"),
        ("solver.states_per_s", "1/s"),
        ("solver.bytes_per_state", "B"),
    ]
    timed("solver.extract_certificate")
    out += [("solver.cop_number.calls", "count"), ("solver.undecided", "count")]
    timed("strategies.verify_policy")
    timed("strategies.policy_step")
    timed("strategies.policy_build")
    timed("families.all_trees")
    timed("families.all_two_connected_outerplanar")
    out.append(("families.graphs", "count"))
    timed("graph.build_graph")
    timed("formats.encode_graph6")
    out += [
        ("cache.get.calls", "count"),
        ("cache.hits", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.put.calls", "count"),
        ("cache.put.self_s", "s"),
        ("cache.file_bytes", "B"),
    ]
    for claim in AUDIT_SOLVE + AUDIT_VERIFY:
        out.append((f"audits.claim_s.{claim}", "s"))
    for claim in AUDIT_SOLVE + AUDIT_VERIFY:
        out.append((f"audits.rows.{claim}", "count"))
    out += [("audits.self_s", "s"), ("trace.overhead", "ratio")]
    return out


PER_LAYER = _layer_metrics()


class RunFailed(Exception):
    """A pass crashed or timed out: no result may be printed."""


def spawn(workload, seed, deadline, *flags):
    """One fresh-interpreter pass; returns its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("run budget exhausted")
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), *flags,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(started)],
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} pass exceeded the run budget") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunFailed(f"{workload} pass exited with {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["elapsed_s"] = time.monotonic() - started
    return rec


def fits(passes, stop, per_round=1):
    """Whether another round of passes, as long as the mean so far, ends
    before `stop`; a run then lasts at most `--seconds` unless its first
    round alone is longer."""
    mean = sum(p["elapsed_s"] for p in passes) / len(passes)
    return time.monotonic() + per_round * mean <= stop


def items(rec):
    return sum(rec["rows"].values()) if "rows" in rec else rec["attempted"]


def end_to_end(workload, seed, seconds, deadline):
    setups = [
        spawn(workload, seed, deadline, "--setup-only")["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    passes = []
    stop = time.monotonic() + seconds
    while len(passes) < MIN_PASSES or fits(passes, stop):
        passes.append(spawn(workload, seed, deadline))
    setups += [p["setup_s"] for p in passes]
    med = statistics.median
    metrics = {
        "wall_s": med(p["wall_s"] for p in passes),
        "items_per_s": med(items(p) / p["wall_s"] for p in passes),
        "setup_s": med(setups),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    return passes, metrics, [], END_TO_END


def per_layer(workload, seed, seconds, deadline):
    plain, traced = [], []
    stop = time.monotonic() + seconds
    while not traced or fits(plain + traced, stop, per_round=2):
        plain.append(spawn(workload, seed, deadline))
        traced.append(spawn(workload, seed, deadline, "--trace"))
    med = statistics.median
    problems = []
    counts = {k: v for k, v in traced[0]["trace"].items() if isinstance(v, int)}
    for rec in traced[1:]:
        again = {k: v for k, v in rec["trace"].items() if isinstance(v, int)}
        if again != counts:
            diff = sorted(k for k in counts.keys() | again.keys()
                          if counts.get(k) != again.get(k))
            problems.append(f"counts differ between traced passes: {diff}")

    def layer(name):
        """An exact count as counted, or the median of a time."""
        value = traced[0]["trace"].get(name, 0)
        if isinstance(value, int):
            return value
        return med(rec["trace"].get(name, 0.0) for rec in traced)

    states = layer("solver.states")
    growth = med(p["rss_growth_mb"] for p in plain) * 2**20
    solve_s = layer("solver.solve.incl_s")
    gets = layer("cache.get.calls")
    metrics = {}
    for name, _ in PER_LAYER:
        metrics[name] = layer(name)
    metrics.update({
        "game.table.builds": layer("game.table.calls"),
        "game.table.build_s": layer("game.table.incl_s"),
        "solver.states_per_s": states / solve_s if solve_s else 0.0,
        "solver.bytes_per_state": growth / states if states else 0.0,
        "cache.hit_ratio": layer("cache.hits") / gets if gets else 0.0,
        "cache.file_bytes": plain[0].get("cache_file_bytes", 0),
        "audits.self_s": med(
            sum(v for k, v in rec["trace"].items()
                if k.startswith("audits.claim.") and k.endswith(".self_s"))
            for rec in traced
        ),
        "trace.overhead": med(p["wall_s"] for p in traced)
        / med(p["wall_s"] for p in plain),
    })
    for claim in AUDIT_SOLVE + AUDIT_VERIFY:
        metrics[f"audits.claim_s.{claim}"] = med(
            p["item_s"].get(claim, 0.0) for p in plain
        )
        metrics[f"audits.rows.{claim}"] = traced[0].get("rows", {}).get(claim, 0)
    return plain + traced, metrics, problems, PER_LAYER


def report(workload, seed, trace, seconds):
    """Measure one workload, print its table and result line; exit status."""
    deadline = time.monotonic() + RUN_BUDGET_S
    measure = per_layer if trace else end_to_end
    try:
        passes, metrics, problems, names = measure(
            workload, seed, seconds, deadline
        )
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and not problems
    for problem in problems:
        print(f"check failed: {workload}: {problem}", file=sys.stderr)
    print(f"workload {workload} seed {seed} trace {trace}: {len(passes)} passes")
    print(f"  {'failed_frac':<40} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    result = {}
    if correct:
        for name, unit in names:
            value = metrics[name]
            print(f"  {name:<40} {value:.6g} {unit}")
            result[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }), flush=True)
    return 0 if correct else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                   help="one workload, or all three in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (Path.cwd() / "src" / "hyperopic" / "__init__.py").is_file():
        print("error: run from the root of a hyperopic checkout (no src/hyperopic)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in names:
        status |= report(workload, args.seed, args.trace, args.seconds)
    return status


if __name__ == "__main__":
    sys.exit(main())

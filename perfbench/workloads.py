"""One pass of one benchmark workload, in a fresh interpreter.

run.py starts this file once per pass:

    python3 perfbench/workloads.py --workload audit-solve --seed 0 \
        --spawned <time.monotonic() just before the spawn> [--setup-only] [--trace]

It imports `hyperopic` from the checkout's `src/`, builds the workload's
inputs, runs the timed section with default library arguments only, checks
every output against `reference.json`, and prints one JSON object on its
last stdout line.  Output checks run after the timed section, with tracing
already removed, so neither their cost nor their calls are measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# Scratch files (the audit cache, span dumps) live in the checkout, never
# outside it.
RUN_DIR = Path(".perfbench_run")

# Solver-backed claims: thousands of small arenas sharing one on-disk cache.
AUDIT_SOLVE = (
    "prop-classes",
    "bipartite",
    "monotonicity",
    "zerovis-eq",
    "diam-bound",
    "retract",
    "caterpillar",
    "diam4-bound",
    "outerplanar-sqrt",
)
# Policy-backed claims: the verifier and the exhaustive enumerators.
AUDIT_VERIFY = (
    "matching-bound",
    "tree2",
    "pendant",
    "tree-lemmas",
    "outerplanar2",
    "tfamily-diam",
)
WORKLOADS = ("audit-solve", "audit-verify", "solve-big")


def import_hyperopic(root):
    """Import the package from `<root>/src`, refusing any installed copy."""
    src = root / "src"
    init = src / "hyperopic" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout root")
    sys.path.insert(0, str(src))
    import hyperopic

    if Path(hyperopic.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported {hyperopic.__file__}, not {init}")
    return hyperopic


def relabel(hyperopic, graph, seed):
    """The graph under a seeded vertex permutation; seed 0 is the identity.

    A relabelling changes every vertex id the solver sees (placement order,
    tie-breaks, masks) but not the cop number, so the pinned statuses and
    cop numbers hold at every seed.
    """
    perm = list(range(graph.n))
    if seed:
        random.Random(seed).shuffle(perm)
    return hyperopic.build_graph(
        graph.n, [(perm[u], perm[v]) for u, v in graph.edges]
    )


def solve_big_queries(hyperopic, seed):
    """(name, kind, graph, rule, cops) for the four large single arenas.

    g_k(3,2) keeps its construction labels at every seed.  Its solve stops
    expanding a state at the first all-winning move, in label order, so
    its time and memory depend on the labelling: over seeds 11-20 a
    relabelled g_k put solve-big's wall time between 10.3 and 13.8 s and
    its peak RSS between 127 and 178 MB, a run-to-run spread above the
    benchmark's bounds.  The other three graphs do the same work under
    every labelling (complete(8) is even unchanged by it).
    """
    h = hyperopic
    return [
        ("g_k(3,2)-hyp2-copnum", "copnum", h.g_k(3, 2), h.hyperopic(2), None),
        ("tree_diam10-hyp3-2cops", "certificate",
         relabel(h, h.tree_diam10(), seed), h.hyperopic(3), 2),
        ("complete8-hyp2-4cops", "certificate",
         relabel(h, h.complete(8), seed), h.hyperopic(2), 4),
        ("t_family3-zero-2cops", "solve", relabel(h, h.t_family(3), seed),
         h.zero_visibility(), 2),
    ]


def digest(lines):
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def row_hash(line):
    return hashlib.sha256(line.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Timed sections.  Library calls go through module attributes at call time
# so that the tracer's rebinding, when installed, sees them.


def run_audits(hyperopic, claims, cache):
    """{claim: (seconds, reports or the exception raised)}."""
    audits = hyperopic.audits
    out = {}
    for claim in claims:
        t0 = time.perf_counter()
        try:
            res = audits.run_claim(claim, cache=cache)
        except Exception as exc:  # a raised claim fails all its rows
            res = exc
        out[claim] = (time.perf_counter() - t0, res)
    return out


def run_solve_big(hyperopic, queries):
    """{query: (seconds, result tuple or the exception raised)}."""
    solver = hyperopic.solver
    out = {}
    for name, kind, graph, rule, cops in queries:
        t0 = time.perf_counter()
        try:
            if kind == "copnum":
                res = (solver.cop_number(graph, rule),)
            else:
                spec = hyperopic.GameSpec(graph, rule, cops)
                sol = solver.solve(spec)
                cert = None
                if kind == "certificate" and sol.is_cop_win:
                    cert = solver.extract_certificate(spec, sol.placement)
                res = (sol, cert)
        except Exception as exc:  # a raised query is a failed query
            res = exc
        out[name] = (time.perf_counter() - t0, res)
    return out


# ---------------------------------------------------------------------------
# Output checks.


def check_audits(results, ref):
    """(attempted, failed, notes): rows against the pinned reference.

    A row fails when it is undecided or a violation, or differs from the
    pinned rows; the pinned reference holds only passing and documented
    rows, so the first case is a special case of the second.
    """
    attempted = failed = 0
    notes = []
    for claim, (_, res) in results.items():
        pin = ref["claims"][claim]
        if isinstance(res, Exception):
            attempted += pin["rows"]
            failed += pin["rows"]
            notes.append(f"{claim}: raised {type(res).__name__}: {res}")
            continue
        lines = [r.to_json() for r in res]
        n = max(len(lines), pin["rows"])
        attempted += n
        if digest(lines) == pin["digest"]:
            continue
        common = Counter(map(row_hash, lines)) & Counter(pin["row_hashes"].split())
        matched = sum(common.values())
        bad = max(n - matched, 1)
        failed += bad
        notes.append(f"{claim}: {bad} of {n} rows differ from the reference")
    return attempted, failed, notes


def check_solve_big(hyperopic, results, queries, ref, seed):
    """(attempted, failed, notes): statuses, cop numbers, placements at
    seed 0, and an independent replay of every certificate."""
    failed = 0
    notes = []
    graphs = {name: (graph, rule) for name, _, graph, rule, _ in queries}
    for name, (_, res) in results.items():
        pin = ref["solve_big"][name]
        problem = None
        if isinstance(res, Exception):
            problem = f"raised {type(res).__name__}: {res}"
        elif len(res) == 1:
            if res[0] != pin["cop_number"]:
                problem = f"cop number {res[0]}, expected {pin['cop_number']}"
        else:
            sol, cert = res
            if (sol.status, sol.num_cops) != (pin["status"], pin["cop_number"]):
                problem = f"{sol.status} with {sol.num_cops} cops"
            elif (seed == 0 and "placement" in pin
                  and list(sol.placement) != pin["placement"]):
                problem = f"placement {sol.placement} at seed 0"
            elif "placement" in pin:
                problem = replay_problem(hyperopic, *graphs[name], sol, cert)
        if problem:
            failed += 1
            notes.append(f"{name}: {problem}")
    return len(results), failed, notes


def replay_problem(hyperopic, graph, rule, sol, cert):
    """Why a certificate is not a winning strategy within its bound, or None."""
    if cert is None or tuple(cert.placement) != tuple(sol.placement):
        return "no certificate for the winning placement"
    policy = hyperopic.certificate_policy(graph, rule, cert)
    try:
        outcome = hyperopic.verify_policy(graph, rule, policy)
    except (AssertionError, ValueError) as exc:
        return f"certificate replay raised: {exc}"
    if not isinstance(outcome, hyperopic.Win):
        return f"certificate replay: {outcome}"
    if outcome.rounds > cert.bound:
        return f"replay took {outcome.rounds} rounds, bound {cert.bound}"
    return None


# ---------------------------------------------------------------------------


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() of the parent just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    hyperopic = import_hyperopic(Path.cwd())
    import hyperopic.audits  # noqa: F401  (the audit registry)

    RUN_DIR.mkdir(exist_ok=True)
    cache_path = RUN_DIR / f"cache-{os.getpid()}.jsonl"
    try:
        return measure(hyperopic, args, cache_path)
    finally:
        cache_path.unlink(missing_ok=True)


def measure(hyperopic, args, cache_path):
    """Set up, run the timed section, check it, print the pass record."""
    cache = queries = None
    if args.workload == "solve-big":
        queries = solve_big_queries(hyperopic, args.seed)
    elif args.workload == "audit-solve":
        claims = AUDIT_SOLVE
        cache_path.unlink(missing_ok=True)
        cache = hyperopic.ResultCache(str(cache_path))
    else:
        claims = AUDIT_VERIFY
    rss_setup = peak_rss_mb()
    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        import trace_layers

        tracer = trace_layers.Tracer(hyperopic)
        tracer.install()
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    t0 = time.perf_counter()
    if queries is not None:
        results = run_solve_big(hyperopic, queries)
    else:
        results = run_audits(hyperopic, claims, cache)
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    rss_end = peak_rss_mb()

    ref = json.loads(REFERENCE.read_text())
    if queries is not None:
        attempted, failed, notes = check_solve_big(
            hyperopic, results, queries, ref, args.seed
        )
    else:
        attempted, failed, notes = check_audits(results, ref)
    for note in notes:
        print(f"check failed: {args.workload}: {note}", file=sys.stderr)

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": rss_end,
        "rss_growth_mb": rss_end - rss_setup,
        "item_s": {name: r[0] for name, r in results.items()},
    }
    if queries is None:
        out["rows"] = {
            c: (0 if isinstance(r, Exception) else len(r))
            for c, (_, r) in results.items()
        }
    if cache is not None:
        out["cache_file_bytes"] = cache_path.stat().st_size
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write_spans(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

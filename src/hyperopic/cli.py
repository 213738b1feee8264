"""Command-line surface: exact cop numbers, strategy verification, family
generation, and claim audits, all emitting JSON for scripting.

Exit codes: 0 success, 1 an audit found a genuine (undocumented)
violation, 2 unparseable input or bad parameters, 3 a decision hit a
resource cap (undecided), 4 a policy precondition was violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

from .cache import open_cache
from .families import (
    caterpillar,
    complete,
    complete_bipartite,
    cycle,
    g_k,
    path,
    subdivide,
    t_family,
    t_hat,
    tree_diam10,
)
from .formats import decode_graph6, emit_edge_list, encode_graph6, parse_edge_list
from .game import STATE_CAP, full_visibility, hyperopic, zero_visibility
from .graph import diameter, is_caterpillar, maximum_matching, radius
from .solver import first_placement, search_cop_number
from .strategies import (
    matching_policy,
    outcome_fields,
    outerplanar_k2_policy,
    pendant_path_policy,
    stationary_pair_policy,
    tree_k2_policy,
    tree_near_diam_policy,
    verify_policy,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_PRECONDITION = 4


class _UsageError(Exception):
    """Bad input or parameters: `main` prints it and exits 2."""


@contextmanager
def _parsing():
    """Report a ValueError raised while reading the arguments as a usage
    error."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(exc) from None


def _read_text(arg):
    if arg == "-":
        return sys.stdin.read()
    if os.path.isfile(arg):
        with open(arg, "r", encoding="utf8") as fh:
            return fh.read()
    return arg


def _parse_graph(arg, fmt):
    """GRAPH argument: a literal string, a file path, or '-' for stdin."""
    text = _read_text(arg)
    if fmt == "edges":
        return parse_edge_list(text)
    line = next((ln for ln in text.splitlines() if ln.strip()), "")
    return decode_graph6(line)


def _rule_of(args):
    if args.rule == "hyperopic":
        if args.k is None:
            raise _UsageError("--rule hyperopic requires --k")
        return hyperopic(args.k)
    if args.k is not None:
        raise _UsageError(f"--rule {args.rule} takes no --k")
    return zero_visibility() if args.rule == "zero" else full_visibility()


# ---------------------------------------------------------------------------
# copnum


def _cmd_copnum(args):
    with _parsing():
        g = _parse_graph(args.graph, args.format)
        rule = _rule_of(args)
    if args.max_cops is not None and args.max_cops < 1:
        raise _UsageError("--max-cops must be at least 1")
    _check_state_cap(args)
    cache = open_cache(args.cache)
    value, record = search_cop_number(
        g, rule, bound=args.max_cops, cache=cache, state_cap=args.state_cap
    )
    if cache.hits:
        print(f"cache hits: {cache.hits}", file=sys.stderr)
    if record["status"] == "undecided":
        print(
            f"undecided: state cap {args.state_cap} hit at {value} cops",
            file=sys.stderr,
        )
        return EXIT_UNDECIDED
    if record["status"] == "robber_win":
        print(f"undecided: no win with up to max-cops={value}", file=sys.stderr)
        return EXIT_UNDECIDED
    print(value)
    print(
        json.dumps(
            {
                "graph6": encode_graph6(g),
                "rule": args.rule,
                "k": args.k,
                "cop_number": value,
                "states_explored": record["states"],
                "placement": list(first_placement(g, value)),
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

# CLI policy name -> (constructor, the rule it is verified under); None
# for a policy that takes --k, built with it and verified under hyperopic(--k)
_POLICIES = {
    "matching": (matching_policy, zero_visibility()),
    "tree2": (tree_k2_policy, hyperopic(2)),
    "pendant": (pendant_path_policy, None),
    "stationary": (stationary_pair_policy, None),
    "neardiam": (tree_near_diam_policy, None),
    "outerplanar": (outerplanar_k2_policy, hyperopic(2)),
}


def _cmd_verify(args):
    build, rule = _POLICIES[args.policy]
    with _parsing():
        g = _parse_graph(args.graph, args.format)
    if rule is None and args.k is None:
        raise _UsageError(f"policy {args.policy!r} requires --k")
    if rule is not None and args.k is not None:
        raise _UsageError(f"policy {args.policy!r} takes no --k")
    if args.k is not None and args.k < 1:
        raise _UsageError("--k must be at least 1")
    try:
        if rule is None:
            policy, rule = build(g, args.k), hyperopic(args.k)
        else:
            policy = build(g)
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    result, _, detail = outcome_fields(verify_policy(g, rule, policy))
    print(
        json.dumps(
            {
                "policy": args.policy,
                "cops_used": policy.num_cops,
                "outcome": result,
                "rounds_or_witness": detail,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen

# CLI family name -> (constructor, the flags it takes, in argument order);
# every flag but --attach is required
_FAMILIES = {
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "complete": (complete, ("n",)),
    "bipartite": (complete_bipartite, ("m", "n")),
    "caterpillar": (caterpillar, ("leaves",)),
    "that": (t_hat, ()),
    "gk": (g_k, ("m", "k")),
    "tfamily": (t_family, ("m", "attach")),
    "tree-diam10": (tree_diam10, ()),
}


def _family_graph(args):
    """The family's constructor applied to its flags, subdivided when
    --subdivide is given."""
    build, takes = _FAMILIES[args.family]
    for flag in ("n", "m", "k", "leaves", "attach"):
        given = getattr(args, flag) is not None
        if given and flag not in takes:
            raise _UsageError(f"family {args.family!r} takes no --{flag}")
        if not given and flag in takes and flag != "attach":
            raise _UsageError(f"family {args.family!r} requires --{flag}")
    values = [getattr(args, f) for f in takes if getattr(args, f) is not None]
    if args.leaves is not None:
        try:
            values = [[int(x) for x in args.leaves.split(",")]]
        except ValueError:
            raise _UsageError(
                "--leaves must be comma-separated integers"
            ) from None
    g = build(*values)
    return subdivide(g, args.subdivide) if args.subdivide else g


def _cmd_gen(args):
    with _parsing():
        g = _family_graph(args)
    if args.format == "edges":
        sys.stdout.write(emit_edge_list(g))
    else:
        print(encode_graph6(g))
    if args.stats:
        print(
            json.dumps(
                {
                    "n": g.n,
                    "diameter": diameter(g),
                    "radius": radius(g),
                    "matching_number": maximum_matching(g).size,
                    "caterpillar": is_caterpillar(g),
                },
                sort_keys=True,
            )
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit


def _cmd_audit(args):
    from .audits import CLAIMS, UNDECIDED, VIOLATION, claim_verdict, run_claim

    names = list(CLAIMS) if args.claim == "all" else [args.claim]
    for name in names:
        if name not in CLAIMS:
            raise _UsageError(f"unknown claim {name!r}")
    if args.n_max is not None and args.n_max < 1:
        raise _UsageError("--n-max must be at least 1")
    _check_state_cap(args)
    cache = open_cache(args.cache)
    rows = []
    summary = []
    for name in names:
        started = time.perf_counter()
        reports = run_claim(
            name,
            n_max=args.n_max,
            cache=cache,
            state_cap=args.state_cap,
        )
        seconds = time.perf_counter() - started
        rows.extend(reports)
        verdict = claim_verdict(reports)
        counts = Counter(r.verdict for r in reports)
        summary.append((name, len(reports), seconds, counts, verdict))
    for r in sorted(rows, key=lambda r: r.sort_key()):
        print(r.to_json())
    width = max(len(name) for name, *_ in summary)
    print(
        f"{'claim':<{width}}  instances  seconds  verdict  breakdown",
        file=sys.stderr,
    )
    for name, total, seconds, counts, verdict in summary:
        breakdown = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(
            f"{name:<{width}}  {total:>9}  {seconds:>7.2f}  {verdict:<22} "
            f"{breakdown}",
            file=sys.stderr,
        )
    seen = {r.verdict for r in rows}
    if VIOLATION in seen:
        return EXIT_VIOLATION
    return EXIT_UNDECIDED if UNDECIDED in seen else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common_graph_flags(p):
    p.add_argument("graph", help="graph6 string, edge-list text, file path, or -")
    p.add_argument(
        "--format",
        choices=("graph6", "edges"),
        default="graph6",
        help="how to read GRAPH (default graph6)",
    )


def _add_state_cap_flag(p):
    p.add_argument(
        "--state-cap",
        type=int,
        default=STATE_CAP,
        help="max explored states per solve (default %(default)s)",
    )


def _check_state_cap(args):
    if args.state_cap < 1:
        raise _UsageError("--state-cap must be at least 1")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperopic",
        description="Exact solver and strategy workbench for distance-limited"
        " pursuit games on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("copnum", help="exact minimum winning cop count")
    _add_common_graph_flags(p)
    p.add_argument(
        "--rule",
        choices=("hyperopic", "zero", "full", "classic"),
        default="hyperopic",
        help="visibility rule (default hyperopic; requires --k); classic is"
        " another name for full",
    )
    p.add_argument("--k", type=int, help="hyperopic distance parameter")
    p.add_argument("--max-cops", type=int, help="stop after this many cops")
    p.add_argument("--cache", help="JSON-lines result cache path")
    _add_state_cap_flag(p)
    p.set_defaults(fn=_cmd_copnum)

    p = sub.add_parser("verify", help="play a named strategy to a verdict")
    _add_common_graph_flags(p)
    p.add_argument("--policy", required=True, choices=tuple(_POLICIES))
    p.add_argument("--k", type=int, help="hyperopic distance parameter")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gen", help="emit a named family member")
    p.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--leaves", help="comma-separated leaf counts per spine vertex")
    p.add_argument(
        "--attach",
        choices=("hub", "eccentric"),
        help="attachment point for the recursive spider family (default hub)",
    )
    p.add_argument(
        "--subdivide", type=int, help="subdivide every edge this many times"
    )
    p.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    p.add_argument(
        "--stats",
        action="store_true",
        help="append a JSON line with n, diameter, radius, matching number,"
        " caterpillar flag",
    )
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("audit", help="run a claim audit and emit JSON lines")
    p.add_argument("--claim", default="all", help="claim id, or 'all'")
    p.add_argument("--n-max", type=int, help="bound instance sizes")
    p.add_argument("--cache", help="JSON-lines result cache path")
    _add_state_cap_flag(p)
    p.set_defaults(fn=_cmd_audit)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

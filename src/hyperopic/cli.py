"""Command-line surface: exact cop numbers, strategy verification, family
generation, and claim audits, all emitting JSON for scripting.

Exit codes: 0 success, 2 unparseable input or bad parameters, 3 a decision
hit a resource cap (undecided), 4 a policy precondition was violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .cache import open_cache
from .families import FamilySpec, generate
from .formats import decode_graph6, emit_edge_list, encode_graph6, parse_edge_list
from .game import cop_cap, full_visibility, hyperopic, zero_visibility
from .graph import diameter, is_caterpillar, maximum_matching, radius
from .solver import search_cop_number
from .strategies import (
    Evaded,
    Timeout,
    Win,
    matching_policy,
    outerplanar_k2_policy,
    pendant_path_policy,
    stationary_pair_policy,
    tree_k2_policy,
    tree_near_diam_policy,
    verify_policy,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_PRECONDITION = 4


class _UsageError(Exception):
    pass


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
    try:
        g = _parse_graph(args.graph, args.format)
        rule = _rule_of(args)
    except (ValueError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.max_cops is not None and args.max_cops < 1:
        print("error: --max-cops must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.state_cap < 1:
        print("error: --state-cap must be at least 1", file=sys.stderr)
        return EXIT_USAGE
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
        if value < cop_cap(g.n):
            print(
                f"undecided: no win with up to max-cops={value}", file=sys.stderr
            )
            return EXIT_UNDECIDED
        raise AssertionError("no winning cop count below the matching cap")
    print(value)
    print(
        json.dumps(
            {
                "graph6": encode_graph6(g),
                "rule": args.rule,
                "k": args.k,
                "cop_number": value,
                "states_explored": record["states"],
                "placement": record["placement"],
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

_POLICY_NEEDS_K = {"pendant", "stationary", "neardiam"}


def _build_policy(name, g, k):
    if name == "matching":
        return matching_policy(g), zero_visibility()
    if name == "tree2":
        return tree_k2_policy(g), hyperopic(2)
    if name == "outerplanar":
        return outerplanar_k2_policy(g), hyperopic(2)
    if name == "pendant":
        return pendant_path_policy(g, k), hyperopic(k)
    if name == "stationary":
        return stationary_pair_policy(g, k), hyperopic(k)
    if name == "neardiam":
        return tree_near_diam_policy(g, k), hyperopic(k)
    raise _UsageError(f"unknown policy {name!r}")


def _cmd_verify(args):
    try:
        g = _parse_graph(args.graph, args.format)
        if args.policy in _POLICY_NEEDS_K and args.k is None:
            raise _UsageError(f"policy {args.policy!r} requires --k")
        if args.policy not in _POLICY_NEEDS_K and args.k is not None:
            raise _UsageError(f"policy {args.policy!r} takes no --k")
    except (ValueError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        policy, rule = _build_policy(args.policy, g, args.k)
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    outcome = verify_policy(g, rule, policy)
    if isinstance(outcome, Win):
        result, detail = "win", outcome.rounds
    elif isinstance(outcome, Evaded):
        result = "evaded"
        detail = [[list(c), sorted(b)] for c, b in outcome.witness]
    else:
        result, detail = "timeout", outcome.nodes
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

# CLI family name -> (library family id, required flags)
_FAMILIES = {
    "path": ("path", ("n",)),
    "cycle": ("cycle", ("n",)),
    "complete": ("complete", ("n",)),
    "bipartite": ("complete_bipartite", ("m", "n")),
    "caterpillar": ("caterpillar", ("leaves",)),
    "that": ("t_hat", ()),
    "gk": ("g_k", ("m", "k")),
    "tfamily": ("t_family", ("m",)),
    "tree-diam10": ("tree_diam10", ()),
}


def _family_spec(args):
    try:
        family, needed = _FAMILIES[args.family]
    except KeyError:
        raise _UsageError(f"unknown family {args.family!r}") from None
    for flag in needed:
        if getattr(args, flag) is None:
            raise _UsageError(f"family {args.family!r} requires --{flag}")
    for flag in ("n", "m", "k", "leaves"):
        if getattr(args, flag) is not None and flag not in needed:
            raise _UsageError(f"family {args.family!r} takes no --{flag}")
    if args.family == "bipartite":
        params = (args.m, args.n)
    elif args.family == "caterpillar":
        try:
            params = tuple(int(x) for x in args.leaves.split(","))
        except ValueError:
            raise _UsageError(
                "--leaves must be comma-separated integers"
            ) from None
    elif args.family == "gk":
        params = (args.m, args.k)
    elif args.family == "tfamily":
        params = (args.m,)
    elif args.family in ("that", "tree-diam10"):
        params = ()
    else:
        params = (args.n,)
    spec = FamilySpec(family=family, params=params, mode=args.attach)
    if args.subdivide:
        spec = FamilySpec(family="subdivision", params=(args.subdivide,), base=spec)
    return spec


def _cmd_gen(args):
    try:
        spec = _family_spec(args)
        g = generate(spec)
    except (ValueError, TypeError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    from .audits import CLAIMS, claim_verdict, run_claim

    names = list(CLAIMS) if args.claim == "all" else [args.claim]
    for name in names:
        if name not in CLAIMS:
            print(f"error: unknown claim {name!r}", file=sys.stderr)
            return EXIT_USAGE
    if args.state_cap < 1:
        print("error: --state-cap must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    cache = open_cache(args.cache)
    exit_code = EXIT_OK
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
        counts = {}
        for r in reports:
            counts[r.verdict] = counts.get(r.verdict, 0) + 1
        summary.append((name, len(reports), seconds, counts, verdict))
        if any(r.verdict == "violation" for r in reports):
            exit_code = 1
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
    return exit_code


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
    p.add_argument(
        "--state-cap",
        type=int,
        default=1_000_000,
        help="max explored states per cop level",
    )
    p.set_defaults(fn=_cmd_copnum)

    p = sub.add_parser("verify", help="play a named strategy to a verdict")
    _add_common_graph_flags(p)
    p.add_argument(
        "--policy",
        required=True,
        choices=(
            "matching",
            "tree2",
            "pendant",
            "stationary",
            "neardiam",
            "outerplanar",
        ),
    )
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
        default="hub",
        help="attachment point for the recursive spider family",
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
    p.add_argument(
        "--state-cap",
        type=int,
        default=1_000_000,
        help="max explored states per solve",
    )
    p.set_defaults(fn=_cmd_audit)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

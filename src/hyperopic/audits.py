"""Machine-checked audits of the workbench's theorem claims.

Each claim names a statement about cop numbers or strategy outcomes over an
exhaustive family of small instances.  Running a claim evaluates every
instance with the exact solver or the policy verifier and emits one
AuditReport per instance; verdicts are pure functions of those outputs, so
reruns, with a cold or a warm result cache, produce identical reports.

Every row comes from one builder, `_Ctx.row`, which knows the claim it
runs and decides the verdict: "undecided" when a state cap or a node cap
blocked the decision, else "pass" when the claim's check holds, else a
violation.  Two claims, those in DOCUMENTED_CLAIMS, are *documented
discrepancies*: their statements fail on concrete small instances, the
failures are expected, and their violating rows carry the verdict
"violation-documented" instead of "violation".  DOCUMENTED_CLAIMS alone
decides this; every other claim is expected to hold on everything it
enumerates.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .cache import ResultCache
from .families import (
    all_trees,
    all_two_connected_outerplanar,
    complete,
    complete_bipartite,
    cycle,
    path,
    t_family,
)
from .formats import decode_graph6, encode_graph6
from .game import STATE_CAP, full_visibility, hyperopic, zero_visibility
from .graph import (
    build_graph,
    diameter,
    is_caterpillar,
    maximum_matching,
    verify_retraction,
)
# `solve` stays bound here because perfbench/trace_layers.py rebinds it.
from .solver import search_cop_number, solve  # noqa: F401
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

DOCUMENTED_CLAIMS = frozenset({"tfamily-diam", "diam4-bound"})

PASS = "pass"
VIOLATION = "violation"
VIOLATION_DOCUMENTED = "violation-documented"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class AuditReport:
    """One audited instance: what was checked, what was measured, the verdict.

    instance always includes a graph6 string (plus family parameters when the
    instance came from a generator), and observed carries the rule and cop
    counts involved, so any violation is reproducible from the report alone.
    """

    claim: str
    instance: dict
    expected: str
    observed: dict
    verdict: str

    def to_json(self):
        return json.dumps(
            {
                "claim": self.claim,
                "instance": self.instance,
                "expected": self.expected,
                "observed": self.observed,
                "verdict": self.verdict,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def sort_key(self):
        return (self.claim, json.dumps(self.instance, sort_keys=True))


_UNDECIDED_NOTE = "undecided (state cap)"


class _Ctx:
    """Shared evaluation context: the claim it runs, the state cap, a result
    cache, which an in-memory cache stands in for when none is given, so
    each level is solved at most once per shard, and the shard this context
    runs."""

    def __init__(
        self, claim=None, cache=None, state_cap=STATE_CAP, shard=0, shards=1
    ):
        self.claim = claim
        self.cache = ResultCache(None) if cache is None else cache
        self.state_cap = state_cap
        self.shard = shard
        self.shards = shards

    def share(self, items):
        """This shard's part of a claim's instance list: every shards-th
        item, starting at the shard's index."""
        return items[self.shard::self.shards]

    def copnum(self, g, rule, observed, bound=None):
        """The least winning cop count up to bound (the matching cap when
        None), or None when every level up to it loses or a state cap
        blocked the decision; a blocked decision writes the undecided note
        into observed, the row's observations."""
        cops, record = search_cop_number(
            g, rule, bound=bound, cache=self.cache, state_cap=self.state_cap
        )
        if record["status"] == "undecided":
            observed["note"] = _UNDECIDED_NOTE
        return cops if record["status"] == "cop_win" else None

    def row(self, inst, expected, observed, decided, ok):
        """The claim's report on one instance: undecided, else a pass when ok
        holds, else a violation, documented when the claim is."""
        if not decided:
            verdict = UNDECIDED
        elif ok:
            verdict = PASS
        elif self.claim in DOCUMENTED_CLAIMS:
            verdict = VIOLATION_DOCUMENTED
        else:
            verdict = VIOLATION
        return AuditReport(self.claim, inst, expected, observed, verdict)


def _atlas_connected(n_max):
    """graph6 strings of every connected graph on 1..n_max vertices
    (n_max <= 7), in the order of Read and Wilson's graph atlas, read from
    the table in `_atlas` on first use."""
    if n_max > 7:
        raise ValueError("connected-graph enumeration capped at n = 7")
    from ._atlas import CONNECTED

    # graph6 gives n <= 62 vertices in its first character, chr(n + 63)
    top = chr(n_max + 63)
    return [s for s in CONNECTED if s[0] <= top]


def _connected_graphs(n_max, ctx):
    """This shard's connected graphs on 1..n_max vertices (n_max <= 7), in
    atlas order; only they are decoded."""
    return [decode_graph6(s) for s in ctx.share(_atlas_connected(n_max))]


def _inst(g, **extra):
    d = {"graph6": encode_graph6(g)}
    d.update(extra)
    return d


def _rule_fields(rule):
    d = {"rule": rule.kind}
    if rule.k is not None:
        d["k"] = rule.k
    return d


def _policy_row(ctx, inst, expected, g, rule, policy, ok=True, **fields):
    """Verify a policy: a Win passes when ok holds, an evasion is a
    violation, a timeout is undecided."""
    name, field, value = outcome_fields(verify_policy(g, rule, policy))
    observed = {"outcome": name, field: value}
    observed.update(_rule_fields(rule), cops_used=policy.num_cops, **fields)
    decided = name != "timeout"
    return ctx.row(inst, expected, observed, decided, ok and name == "win")


def _bound_row(ctx, inst, expected, g, rule, limit, exact=False, **fields):
    """Check that the cop number is at most limit (exactly limit when exact)."""
    observed = _rule_fields(rule)
    observed.update(fields)
    value = ctx.copnum(g, rule, observed, limit)
    decided = "note" not in observed
    if decided and value is None:
        observed["cop_number_exceeds"] = limit
    else:
        observed["cop_number"] = value
    ok = value == limit if exact else value is not None
    return ctx.row(inst, expected, observed, decided, ok)


def _clamp(n_max, default, hard):
    return min(n_max if n_max is not None else default, hard)


# ---------------------------------------------------------------------------
# Exact-value claims on named families.


def _claim_prop_classes(n_max, ctx):
    """Paths need one cop, cycles two, complete graphs ceil(n/2), any k."""
    rows = []
    for k in (1, 2, 3, 4):
        for n in range(1, _clamp(n_max, 12, 12) + 1):
            rows.append(("path", n, k, path(n), 1))
        for n in range(3, _clamp(n_max, 10, 10) + 1):
            rows.append(("cycle", n, k, cycle(n), 2))
        for n in range(1, _clamp(n_max, 8, 8) + 1):
            rows.append(("complete", n, k, complete(n), (n + 1) // 2))
    for family, n, k, g, expect in ctx.share(rows):
        yield _bound_row(
            ctx,
            _inst(g, family=family, n=n, k=k),
            f"cop_number == {expect}",
            g,
            hyperopic(k),
            expect,
            exact=True,
            expected_value=expect,
        )


def _claim_bipartite(n_max, ctx):
    """Complete bipartite graphs with k >= 2 need exactly min-side cops."""
    top = _clamp(n_max, 5, 5)
    for m in range(1, 4):
        for n in ctx.share(range(m, top + 1)):
            g = complete_bipartite(m, n)
            for k in (2, 3):
                yield _bound_row(
                    ctx,
                    _inst(g, family="complete_bipartite", m=m, n=n, k=k),
                    f"cop_number == {m}",
                    g,
                    hyperopic(k),
                    m,
                    exact=True,
                    expected_value=m,
                )


# ---------------------------------------------------------------------------
# Order relations between the visibility rules.


def _claim_monotonicity(n_max, ctx):
    """More visibility never hurts: full <= hyp(1) <= hyp(2) <= hyp(3) <= zero."""
    rules = [
        ("full", full_visibility()),
        ("hyperopic-1", hyperopic(1)),
        ("hyperopic-2", hyperopic(2)),
        ("hyperopic-3", hyperopic(3)),
        ("zero", zero_visibility()),
    ]
    for g in _connected_graphs(_clamp(n_max, 6, 6), ctx):
        observed = {}
        for name, rule in rules:
            v = ctx.copnum(g, rule, observed)
            if v is None:
                break
            observed[name] = v
        chain = [observed.get(name) for name, _ in rules]
        decided = "note" not in observed
        yield ctx.row(
            _inst(g, n=g.n),
            "cop numbers weakly increase from full to zero visibility",
            observed,
            decided,
            decided and all(a <= b for a, b in zip(chain, chain[1:])),
        )


def _claim_zerovis_eq(n_max, ctx):
    """Once k reaches the diameter, hyperopic play equals zero visibility."""
    for g in _connected_graphs(_clamp(n_max, 6, 6), ctx):
        d = diameter(g)
        k = max(d, 1)
        observed = {"diameter": d, "k": k}
        hv = ctx.copnum(g, hyperopic(k), observed)
        zv = ctx.copnum(g, zero_visibility(), observed)
        observed.update(hyperopic=hv, zero=zv)
        yield ctx.row(
            _inst(g, n=g.n),
            "cop_number(hyperopic(diam)) == cop_number(zero)",
            observed,
            "note" not in observed,
            hv == zv,
        )


def _claim_diam_bound(n_max, ctx):
    """On graphs of diameter >= 2k+1, hyperopic costs at most 2 extra cops."""
    expected = "cop_number(hyperopic(k)) <= cop_number(full) + 2"
    for g in _connected_graphs(_clamp(n_max, 7, 7), ctx):
        d = diameter(g)
        for k in (1, 2):
            if d < 2 * k + 1:
                continue
            inst = _inst(g, n=g.n, k=k, diameter=d)
            observed = {"k": k}
            classic = ctx.copnum(g, full_visibility(), observed)
            if classic is None:
                yield ctx.row(inst, expected, observed, False, False)
                continue
            yield _bound_row(
                ctx,
                inst,
                expected,
                g,
                hyperopic(k),
                classic + 2,
                full=classic,
            )


# ---------------------------------------------------------------------------
# Retracts.


def _find_retraction(g, h_vertices):
    """Some map fixing h_vertices that folds the rest of g into them, or None.

    Backtracking over the outside vertices in ascending order, each trying
    the targets in ascending order, so the first map found is the least in
    that order; a partial map is kept consistent on every already-assigned
    edge (endpoints mapped equal or adjacent inside the target set).
    """
    hset = set(h_vertices)
    targets = sorted(hset)
    outside = [v for v in range(g.n) if v not in hset]

    def compatible(a, b):
        return a == b or g.has_edge(a, b)

    assign = {v: v for v in hset}
    tried = [0] * len(outside)  # per outside vertex: targets tried so far
    i = 0
    while i < len(outside):
        v = outside[i]
        assign.pop(v, None)
        for t in range(tried[i], len(targets)):
            target = targets[t]
            if all(
                w not in assign or compatible(target, assign[w])
                for w in g.adj[v]
            ):
                assign[v] = target
                tried[i] = t + 1
                i += 1
                break
        else:
            tried[i] = 0
            i -= 1
            if i < 0:
                return None
    return assign


def _induced_subgraph(g, vertices):
    order = sorted(vertices)
    idx = {v: i for i, v in enumerate(order)}
    edges = [
        (idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx
    ]
    return build_graph(len(order), edges)


def _claim_retract(n_max, ctx):
    """A retract never needs more cops than the graph it folds out of.

    Every map the search returns is checked by `verify_retraction`; a map
    that fails makes its rows violations."""
    from itertools import combinations

    for g in _connected_graphs(_clamp(n_max, 5, 5), ctx):
        if g.n < 3:
            continue
        for size in range(2, g.n):
            for hs in combinations(range(g.n), size):
                mapping = _find_retraction(g, hs)
                if mapping is None:
                    continue
                checked = verify_retraction(g, hs, mapping)
                h = _induced_subgraph(g, hs)
                for k in (1, 2):
                    rule = hyperopic(k)
                    observed = _rule_fields(rule)
                    cg = ctx.copnum(g, rule, observed)
                    chh = ctx.copnum(h, rule, observed)
                    solved = "note" not in observed
                    observed.update(
                        graph_cop_number=cg,
                        retract_cop_number=chh,
                        retraction=[mapping[v] for v in range(g.n)],
                    )
                    # a map that is no retraction fails the row, solved or not
                    if not checked:
                        observed["note"] = "map is not a retraction"
                    yield ctx.row(
                        _inst(
                            g,
                            n=g.n,
                            retract_vertices=list(hs),
                            retract_graph6=encode_graph6(h),
                            k=k,
                        ),
                        "cop_number(retract) <= cop_number(graph)",
                        observed,
                        solved or not checked,
                        checked and solved and chh <= cg,
                    )


# ---------------------------------------------------------------------------
# One-cop characterization.


def _claim_caterpillar(n_max, ctx):
    """One cop suffices on a tree (k in {2,3}) exactly for caterpillars.

    A decided mismatch on either k is a violation, whether or not the other
    k was decided."""
    for n in range(1, _clamp(n_max, 9, 9) + 1):
        for t in ctx.share(all_trees(n)):
            cat = is_caterpillar(t)
            observed = {"is_caterpillar": cat}
            for k in (2, 3):
                # these rows carry no undecided note: None says it
                blocked = {}
                value = ctx.copnum(t, hyperopic(k), blocked, 1)
                observed[f"one_cop_wins_k{k}"] = None if blocked else value == 1
            wins = [observed["one_cop_wins_k2"], observed["one_cop_wins_k3"]]
            mismatch = any(w is not None and w != cat for w in wins)
            yield ctx.row(
                _inst(t, n=n),
                "one cop wins iff the tree is a caterpillar (k in {2,3})",
                observed,
                mismatch or None not in wins,
                not mismatch,
            )


# ---------------------------------------------------------------------------
# Policy-backed claims.


def _claim_matching_bound(n_max, ctx):
    """The alternating-pairs policy wins blind with matching-number many cops."""
    for g in _connected_graphs(_clamp(n_max, 7, 7), ctx):
        matching = maximum_matching(g)
        expect = matching.size + (0 if matching.is_perfect else 1)
        policy = matching_policy(g)
        yield _policy_row(
            ctx,
            _inst(g, n=g.n),
            "policy wins blind with matching-size (+1 if imperfect) cops",
            g,
            zero_visibility(),
            policy,
            ok=policy.num_cops == expect and expect <= (g.n + 1) // 2,
            matching_number=matching.size,
            expected_cops=expect,
            ceil_half_n=(g.n + 1) // 2,
        )


def _claim_tree2(n_max, ctx):
    """Two cops beat any tree at hyperopic distance two."""
    for n in range(2, _clamp(n_max, 12, 12) + 1):
        for t in ctx.share(all_trees(n)):
            yield _policy_row(
                ctx,
                _inst(t, n=n),
                "two-cop tree policy wins under hyperopic(2)",
                t,
                hyperopic(2),
                tree_k2_policy(t),
            )


def _claim_pendant(n_max, ctx):
    """Two cops win on trees that carry a long-enough pendant path."""
    for n in range(2, _clamp(n_max, 9, 12) + 1):
        for t in ctx.share(all_trees(n)):
            for k in (3, 4, 5):
                try:
                    policy = pendant_path_policy(t, k)
                except ValueError:
                    continue
                yield _policy_row(
                    ctx,
                    _inst(t, n=n, k=k),
                    "pendant-path policy wins with two cops",
                    t,
                    hyperopic(k),
                    policy,
                )


def _claim_tree_lemmas(n_max, ctx):
    """Diameter-stratified tree strategies: two cops on long trees, three on
    near-diameter trees, and the solver-checked bound in the middle band."""
    top = _clamp(n_max, 12, 12)
    for n in range(2, top + 1):
        for t in ctx.share(all_trees(n)):
            d = diameter(t)
            for k in (3, 4):
                if d >= 2 * k - 1:
                    policy = stationary_pair_policy(t, k)
                    expect_cops = 2
                    kind = "stationary"
                elif 2 * k - 3 <= d <= 2 * k - 2:
                    policy = tree_near_diam_policy(t, k)
                    expect_cops = 3
                    kind = "neardiam"
                else:
                    continue
                yield _policy_row(
                    ctx,
                    _inst(t, n=n, k=k, kind=kind),
                    f"{kind} policy wins with {expect_cops} cops",
                    t,
                    hyperopic(k),
                    policy,
                    ok=policy.num_cops <= expect_cops,
                    diameter=d,
                )
            # Middle band k+1 <= diam <= 2k-4 on at most 10 vertices: no
            # constructive policy, so the bound 2 + floor((2k - diam)/4) is
            # checked against the exact solver.
            for k in (5, 6):
                if n > 10 or not k + 1 <= d <= 2 * k - 4:
                    continue
                bound = 2 + (2 * k - d) // 4
                yield _bound_row(
                    ctx,
                    _inst(t, n=n, k=k, kind="midrange-bound"),
                    "cop_number <= 2 + floor((2k - diam)/4)",
                    t,
                    hyperopic(k),
                    bound,
                    diameter=d,
                    bound=bound,
                )


# ---------------------------------------------------------------------------
# Documented discrepancies.


def _claim_tfamily_diam(n_max, ctx):
    """The recursive spider family's claimed diameter growth of 4 per level
    fails: measured diameters run 0, 4, 8 against claimed minima 4, 8, 12."""
    for m in ctx.share((1, 2, 3)):
        t = t_family(m)
        d = diameter(t)
        claimed = 4 * m
        observed = {"n": t.n, "diameter": d, "claimed_min_diameter": claimed}
        yield ctx.row(
            _inst(t, family="t_family", m=m),
            f"diameter >= {claimed}",
            observed,
            True,
            d >= claimed,
        )


def _claim_diam4_bound(n_max, ctx):
    """The floor(diam/4) bound on the blind cop number of trees fails already
    on the 7-vertex spider (blind cop number 2, floor(4/4) = 1)."""
    for n in range(5, _clamp(n_max, 8, 9) + 1):
        for t in ctx.share(all_trees(n)):
            d = diameter(t)
            if d < 4:
                continue
            bound = d // 4
            rule = zero_visibility()
            observed = _rule_fields(rule)
            observed.update(diameter=d, bound=bound)
            c0 = ctx.copnum(t, rule, observed)
            observed["zero_cop_number"] = c0
            yield ctx.row(
                _inst(t, n=n),
                "zero-visibility cop_number <= floor(diam/4)",
                observed,
                c0 is not None,
                c0 is not None and c0 <= bound,
            )


# ---------------------------------------------------------------------------
# Outerplanar claims.


def _cut_vertex_outerplanar_examples():
    """Small connected outerplanar graphs that are not 2-connected."""
    specs = [
        ("bowtie", 5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]),
        ("triangle-tail", 5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
        (
            "two-squares",
            7,
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
        ),
        (
            "square-bridge-triangle",
            7,
            [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 4)],
        ),
        (
            "triangle-chain",
            7,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (4, 5),
                (5, 6),
                (4, 6),
            ],
        ),
    ]
    return [(name, build_graph(n, edges)) for name, n, edges in specs]


def _claim_outerplanar2(n_max, ctx):
    """Two cops win hyperopic(2) on every 2-connected outerplanar graph, and
    the exact solver confirms the bound on small cut-vertex examples too."""
    for n in range(4, _clamp(n_max, 10, 10) + 1):
        for g in ctx.share(all_two_connected_outerplanar(n)):
            yield _policy_row(
                ctx,
                _inst(g, n=n, kind="two-connected"),
                "territory policy wins with two cops under hyperopic(2)",
                g,
                hyperopic(2),
                outerplanar_k2_policy(g),
            )
    for name, g in ctx.share(_cut_vertex_outerplanar_examples()):
        yield _bound_row(
            ctx,
            _inst(g, n=g.n, kind="cut-vertex", name=name),
            "cop_number(hyperopic(2)) <= 2",
            g,
            hyperopic(2),
            2,
        )


def _claim_outerplanar_sqrt(n_max, ctx):
    """On 2-connected outerplanar graphs, hyperopic(3) needs at most
    sqrt(2n) cops."""
    for n in range(5, _clamp(n_max, 9, 10) + 1):
        bound = math.isqrt(2 * n)
        for g in ctx.share(all_two_connected_outerplanar(n)):
            yield _bound_row(
                ctx,
                _inst(g, n=n),
                "cop_number(hyperopic(3)) <= floor(sqrt(2n))",
                g,
                hyperopic(3),
                bound,
                bound=bound,
            )


CLAIMS = {
    "prop-classes": _claim_prop_classes,
    "bipartite": _claim_bipartite,
    "monotonicity": _claim_monotonicity,
    "zerovis-eq": _claim_zerovis_eq,
    "diam-bound": _claim_diam_bound,
    "retract": _claim_retract,
    "caterpillar": _claim_caterpillar,
    "matching-bound": _claim_matching_bound,
    "tree2": _claim_tree2,
    "pendant": _claim_pendant,
    "tree-lemmas": _claim_tree_lemmas,
    "tfamily-diam": _claim_tfamily_diam,
    "diam4-bound": _claim_diam4_bound,
    "outerplanar2": _claim_outerplanar2,
    "outerplanar-sqrt": _claim_outerplanar_sqrt,
}


def _shard_count():
    """How many shards a claim's instances are split into: one per CPU this
    process may run on, or 1 where a worker cannot be forked."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    if cpus > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return cpus


# The (n_max, ctx) of the claim `run_claim` is running.  A forked worker
# reads it from the memory it shares with the calling process, so nothing
# is pickled for it.
_job = None


def _run_shard(shard):
    """One shard of the claim `_job` holds, solved against an in-memory copy
    of its cache: (rows, new cache records in solve order, cache hits)."""
    n_max, ctx = _job
    cache = ResultCache(None)
    cache.entries = dict(ctx.cache.entries)
    known = len(cache.entries)
    shard_ctx = _Ctx(ctx.claim, cache, ctx.state_cap, shard, ctx.shards)
    rows = list(CLAIMS[ctx.claim](n_max, shard_ctx))
    return rows, list(cache.entries.items())[known:], cache.hits


def _run_shards(ctx):
    """Every shard's `_run_shard` result, in shard order: in this process
    for one shard, else each in a worker forked for this claim."""
    if ctx.shards == 1:
        return [_run_shard(0)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        ctx.shards, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        futures = [pool.submit(_run_shard, s) for s in range(ctx.shards)]
        return [future.result() for future in futures]


def run_claim(claim, *, n_max=None, cache=None, state_cap=STATE_CAP):
    """All reports for one claim, sorted by instance key.

    The instances are split into `_shard_count()` shards, each run by
    `_run_shard`, at once in worker processes forked for the claim when
    there are several; the rows, sorted, do not depend on the shard count.
    Only this process writes the cache: once every shard has finished, each
    shard's new records are stored in shard order, one `put_many` per
    shard, so a claim that raises stores none of them."""
    global _job
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    ctx = _Ctx(claim, cache, state_cap, shards=_shard_count())
    _job = (n_max, ctx)
    try:
        results = _run_shards(ctx)
    finally:
        _job = None
    rows = []
    for shard_rows, records, hits in results:
        rows += shard_rows
        ctx.cache.put_many(records)
        ctx.cache.hits += hits
    return sorted(rows, key=AuditReport.sort_key)


def claim_verdict(reports):
    """Worst verdict across a claim's reports."""
    order = [VIOLATION, VIOLATION_DOCUMENTED, UNDECIDED, PASS]
    seen = {r.verdict for r in reports}
    for v in order:
        if v in seen:
            return v
    return PASS

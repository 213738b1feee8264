"""Machine-checked audits of the workbench's theorem claims.

Each claim names a statement about cop numbers or strategy outcomes over an
exhaustive family of small instances.  Running a claim evaluates every
instance with the exact solver or the policy verifier and emits one
AuditReport per instance; verdicts are pure functions of those outputs, so
reruns, with a cold or a warm result cache, produce identical reports.

A claim is data: a `Claim` in CLAIMS holds the family of its instances up
to a scope, the scope's default and ceiling, and the rows one instance
yields.  `run_claim` clamps the scope, and `_run_shard` deals the family's
instances round-robin among the shards; no claim does either itself.

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

import itertools
import json
import math
import os
from collections.abc import Callable
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


@dataclass(frozen=True)
class Claim:
    """One entry of CLAIMS.

    family(n) lazily yields the claim's instances up to scope n, always in
    the same order.  The scope is default when no n_max is given, and never
    above hard; both are None for a family that ignores it.  rows(item,
    ctx) yields one instance's reports, and its docstring states the claim.
    """

    family: Callable
    default: int | None
    hard: int | None
    rows: Callable


_UNDECIDED_NOTE = "undecided (state cap)"


class _Ctx:
    """Shared evaluation context: the claim it runs, the state cap, and a
    result cache, which an in-memory cache stands in for when none is
    given, so each level is solved at most once per shard."""

    def __init__(self, claim=None, cache=None, state_cap=STATE_CAP):
        self.claim = claim
        self.cache = ResultCache(None) if cache is None else cache
        self.state_cap = state_cap

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


# ---------------------------------------------------------------------------
# The shared families.  The tree and outerplanar families look their
# enumerator up in this module's globals when they run, where
# perfbench/trace_layers.py rebinds it, and hold one order's graphs at a
# time, each graph with its memoised tables.


def _connected_graphs(n):
    """graph6 strings of every connected graph on 1..n vertices (n <= 7),
    in the order of Read and Wilson's graph atlas, read from the table in
    `_atlas` on first use; a claim's rows decode their own."""
    if n > 7:
        raise ValueError("connected-graph enumeration capped at n = 7")
    from ._atlas import CONNECTED

    # graph6 gives n <= 62 vertices in its first character, chr(n + 63)
    top = chr(n + 63)
    return (s for s in CONNECTED if s[0] <= top)


def _trees(lo):
    """The family of every tree on lo..n vertices, in `all_trees` order."""

    def family(n):
        for order in range(lo, n + 1):
            yield from all_trees(order)

    return family


def _outerplanar(lo):
    """The family of every 2-connected outerplanar graph on lo..n vertices,
    in `all_two_connected_outerplanar` order."""

    def family(n):
        for order in range(lo, n + 1):
            yield from all_two_connected_outerplanar(order)

    return family


# ---------------------------------------------------------------------------
# Exact-value claims on named families.


def _prop_classes_family(n):
    """(family, order, k, graph, cop number) for paths on up to n vertices,
    cycles on up to min(n, 10) and complete graphs on up to min(n, 8)."""
    for k in (1, 2, 3, 4):
        for m in range(1, n + 1):
            yield "path", m, k, path(m), 1
        for m in range(3, min(n, 10) + 1):
            yield "cycle", m, k, cycle(m), 2
        for m in range(1, min(n, 8) + 1):
            yield "complete", m, k, complete(m), (m + 1) // 2


def _prop_classes_rows(item, ctx):
    """Paths need one cop, cycles two, complete graphs ceil(n/2), any k."""
    family, n, k, g, expect = item
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


def _bipartite_family(n):
    """The sides (m, n') of K_{m,n'} for m in 1..3 and m <= n' <= n."""
    for m in range(1, 4):
        for side in range(m, n + 1):
            yield m, side


def _bipartite_rows(item, ctx):
    """Complete bipartite graphs with k >= 2 need exactly min-side cops."""
    m, n = item
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


def _monotonicity_rows(graph6, ctx):
    """More visibility never hurts: full <= hyp(1) <= hyp(2) <= hyp(3) <= zero."""
    g = decode_graph6(graph6)
    rules = [
        ("full", full_visibility()),
        ("hyperopic-1", hyperopic(1)),
        ("hyperopic-2", hyperopic(2)),
        ("hyperopic-3", hyperopic(3)),
        ("zero", zero_visibility()),
    ]
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


def _zerovis_eq_rows(graph6, ctx):
    """Once k reaches the diameter, hyperopic play equals zero visibility."""
    g = decode_graph6(graph6)
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


def _diam_bound_rows(graph6, ctx):
    """On graphs of diameter >= 2k+1, hyperopic costs at most 2 extra cops."""
    expected = "cop_number(hyperopic(k)) <= cop_number(full) + 2"
    g = decode_graph6(graph6)
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


def _retract_rows(graph6, ctx):
    """A retract never needs more cops than the graph it folds out of.

    Every map the search returns is checked by `verify_retraction`; a map
    that fails makes its rows violations."""
    g = decode_graph6(graph6)
    if g.n < 3:
        return
    for size in range(2, g.n):
        for hs in itertools.combinations(range(g.n), size):
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


def _caterpillar_rows(t, ctx):
    """One cop suffices on a tree (k in {2,3}) exactly for caterpillars.

    A decided mismatch on either k is a violation, whether or not the other
    k was decided."""
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
        _inst(t, n=t.n),
        "one cop wins iff the tree is a caterpillar (k in {2,3})",
        observed,
        mismatch or None not in wins,
        not mismatch,
    )


# ---------------------------------------------------------------------------
# Policy-backed claims.


def _matching_bound_rows(graph6, ctx):
    """The alternating-pairs policy wins blind with matching-number many cops."""
    g = decode_graph6(graph6)
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


def _tree2_rows(t, ctx):
    """Two cops beat any tree at hyperopic distance two."""
    yield _policy_row(
        ctx,
        _inst(t, n=t.n),
        "two-cop tree policy wins under hyperopic(2)",
        t,
        hyperopic(2),
        tree_k2_policy(t),
    )


def _pendant_rows(t, ctx):
    """Two cops win on trees that carry a long-enough pendant path."""
    for k in (3, 4, 5):
        try:
            policy = pendant_path_policy(t, k)
        except ValueError:
            continue
        yield _policy_row(
            ctx,
            _inst(t, n=t.n, k=k),
            "pendant-path policy wins with two cops",
            t,
            hyperopic(k),
            policy,
        )


def _tree_lemmas_rows(t, ctx):
    """Diameter-stratified tree strategies: two cops on long trees, three on
    near-diameter trees, and the solver-checked bound in the middle band."""
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
            _inst(t, n=t.n, k=k, kind=kind),
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
        if t.n > 10 or not k + 1 <= d <= 2 * k - 4:
            continue
        bound = 2 + (2 * k - d) // 4
        yield _bound_row(
            ctx,
            _inst(t, n=t.n, k=k, kind="midrange-bound"),
            "cop_number <= 2 + floor((2k - diam)/4)",
            t,
            hyperopic(k),
            bound,
            diameter=d,
            bound=bound,
        )


# ---------------------------------------------------------------------------
# Documented discrepancies.


def _tfamily_diam_rows(m, ctx):
    """The recursive spider family's claimed diameter growth of 4 per level
    fails: measured diameters run 0, 4, 8 against claimed minima 4, 8, 12."""
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


def _diam4_bound_rows(t, ctx):
    """The floor(diam/4) bound on the blind cop number of trees fails already
    on the 7-vertex spider (blind cop number 2, floor(4/4) = 1)."""
    d = diameter(t)
    if d < 4:
        return
    bound = d // 4
    rule = zero_visibility()
    observed = _rule_fields(rule)
    observed.update(diameter=d, bound=bound)
    c0 = ctx.copnum(t, rule, observed)
    observed["zero_cop_number"] = c0
    yield ctx.row(
        _inst(t, n=t.n),
        "zero-visibility cop_number <= floor(diam/4)",
        observed,
        c0 is not None,
        c0 is not None and c0 <= bound,
    )


# ---------------------------------------------------------------------------
# Outerplanar claims.


def _outerplanar2_family(n):
    """(None, g) for every 2-connected outerplanar g on 4..n vertices, then
    (name, g) for five small connected outerplanar graphs with a cut
    vertex."""
    for g in _outerplanar(4)(n):
        yield None, g
    cut_vertex_examples = [
        ("bowtie", 5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]),
        ("triangle-tail", 5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
        ("two-squares", 7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5),
                            (5, 6), (6, 0)]),
        ("square-bridge-triangle", 7, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4),
                                       (4, 5), (5, 6), (6, 4)]),
        ("triangle-chain", 7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4),
                               (4, 5), (5, 6), (4, 6)]),
    ]
    for name, order, edges in cut_vertex_examples:
        yield name, build_graph(order, edges)


def _outerplanar2_rows(item, ctx):
    """Two cops win hyperopic(2) on every 2-connected outerplanar graph, and
    the exact solver confirms the bound on small cut-vertex examples too."""
    name, g = item
    if name is None:
        yield _policy_row(
            ctx,
            _inst(g, n=g.n, kind="two-connected"),
            "territory policy wins with two cops under hyperopic(2)",
            g,
            hyperopic(2),
            outerplanar_k2_policy(g),
        )
    else:
        yield _bound_row(
            ctx,
            _inst(g, n=g.n, kind="cut-vertex", name=name),
            "cop_number(hyperopic(2)) <= 2",
            g,
            hyperopic(2),
            2,
        )


def _outerplanar_sqrt_rows(g, ctx):
    """On 2-connected outerplanar graphs, hyperopic(3) needs at most
    sqrt(2n) cops."""
    bound = math.isqrt(2 * g.n)
    yield _bound_row(
        ctx,
        _inst(g, n=g.n),
        "cop_number(hyperopic(3)) <= floor(sqrt(2n))",
        g,
        hyperopic(3),
        bound,
        bound=bound,
    )


CLAIMS = {
    "prop-classes": Claim(_prop_classes_family, 12, 12, _prop_classes_rows),
    "bipartite": Claim(_bipartite_family, 5, 5, _bipartite_rows),
    "monotonicity": Claim(_connected_graphs, 6, 6, _monotonicity_rows),
    "zerovis-eq": Claim(_connected_graphs, 6, 6, _zerovis_eq_rows),
    "diam-bound": Claim(_connected_graphs, 7, 7, _diam_bound_rows),
    "retract": Claim(_connected_graphs, 5, 5, _retract_rows),
    "caterpillar": Claim(_trees(1), 9, 9, _caterpillar_rows),
    "matching-bound": Claim(_connected_graphs, 7, 7, _matching_bound_rows),
    "tree2": Claim(_trees(2), 12, 12, _tree2_rows),
    "pendant": Claim(_trees(2), 9, 12, _pendant_rows),
    "tree-lemmas": Claim(_trees(2), 12, 12, _tree_lemmas_rows),
    # the spider family's first three levels, whatever the scope
    "tfamily-diam": Claim(lambda n: (1, 2, 3), None, None, _tfamily_diam_rows),
    "diam4-bound": Claim(_trees(5), 8, 9, _diam4_bound_rows),
    "outerplanar2": Claim(_outerplanar2_family, 10, 10, _outerplanar2_rows),
    "outerplanar-sqrt": Claim(_outerplanar(5), 9, 10, _outerplanar_sqrt_rows),
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


# The (Claim, scope, ctx, shard count) of the claim `run_claim` is running.
# A forked worker reads it from the memory it shares with the calling
# process, so nothing is pickled for it.
_job = None


def _run_shard(shard):
    """One shard of the claim `_job` holds, solved against an in-memory copy
    of its cache: (rows, new cache records in solve order, cache hits).

    The shard's instances are every shards-th item of the claim's family,
    starting at the shard's index; the family is enumerated here, in the
    worker, and only the shard's own items are checked."""
    claim, n, ctx, shards = _job
    cache = ResultCache(None)
    cache.entries = dict(ctx.cache.entries)
    known = len(cache.entries)
    shard_ctx = _Ctx(ctx.claim, cache, ctx.state_cap)
    rows = [
        row
        for item in itertools.islice(claim.family(n), shard, None, shards)
        for row in claim.rows(item, shard_ctx)
    ]
    return rows, list(cache.entries.items())[known:], cache.hits


def _run_shards(shards):
    """Every shard's `_run_shard` result, in shard order: in this process
    for one shard, else each in a worker forked for this claim."""
    if shards == 1:
        return [_run_shard(0)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        shards, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        futures = [pool.submit(_run_shard, s) for s in range(shards)]
        return [future.result() for future in futures]


def run_claim(claim, *, n_max=None, cache=None, state_cap=STATE_CAP):
    """All reports for one claim, sorted by instance key.

    The scope is n_max, or the claim's default without one, clamped to the
    claim's ceiling; an n_max below 1 is a ValueError.  The instances are
    split into `_shard_count()` shards, each run by `_run_shard`, at once in
    worker processes forked for the claim when there are several; the
    rows, sorted, do not depend on the shard count.  Only this process
    writes the cache: once every shard has finished, each shard's new
    records are stored in shard order, one `put_many` per shard, so a claim
    that raises stores none of them."""
    global _job
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    spec = CLAIMS[claim]
    n = spec.default if n_max is None else n_max
    if spec.hard is not None:
        n = min(n, spec.hard)
    ctx = _Ctx(claim, cache, state_cap)
    shards = _shard_count()
    _job = (spec, n, ctx, shards)
    try:
        results = _run_shards(shards)
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

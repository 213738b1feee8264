"""Machine-checked audits of the workbench's theorem claims.

Each claim names a statement about cop numbers or strategy outcomes over an
exhaustive family of small instances.  Running a claim evaluates every
instance with the exact solver or the policy verifier and emits one
AuditReport per instance; verdicts are pure functions of those outputs, so
reruns, with a cold or a warm result cache, produce identical reports.

Two claims are *documented discrepancies*: their statements fail on concrete
small instances, the failures are expected, and their violating rows carry
the verdict "violation-documented" instead of "violation".  Every other
claim is expected to hold on everything it enumerates.
"""

from __future__ import annotations

import json
import math
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
from .formats import encode_graph6
from .game import full_visibility, hyperopic, zero_visibility
from .graph import build_graph, diameter, is_caterpillar, maximum_matching
# `solve` stays bound here because perfbench/trace_layers.py rebinds it.
from .solver import search_cop_number, solve  # noqa: F401
from .strategies import (
    Evaded,
    Win,
    matching_policy,
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


class _Ctx:
    """Shared evaluation context: the state cap and a result cache, which
    an in-memory cache stands in for when none is given, so each level is
    solved at most once per claim."""

    def __init__(self, cache=None, state_cap=1_000_000):
        self.cache = ResultCache(None) if cache is None else cache
        self.state_cap = state_cap

    def bounded_copnum(self, g, rule, bound):
        """(least winning cop count <= bound or None, decided flag).

        A None value with decided=True means every level up to the bound is
        a robber win, i.e. the cop number strictly exceeds the bound.  A
        None bound searches up to the matching cap.
        """
        cops, record = search_cop_number(
            g, rule, bound=bound, cache=self.cache, state_cap=self.state_cap
        )
        if record["status"] == "undecided":
            return None, False
        return (cops if record["status"] == "cop_win" else None), True

    def exact_copnum(self, g, rule):
        """The cop number, or None when a state cap blocked the decision."""
        value, decided = self.bounded_copnum(g, rule, None)
        if not decided:
            return None
        if value is None:
            raise AssertionError("no winning cop count below the matching cap")
        return value


def _connected_graphs(n_max):
    """All connected graphs on 1..n_max vertices (n_max <= 7), atlas order."""
    if n_max > 7:
        raise ValueError("connected-graph enumeration capped at n = 7")
    import networkx as nx

    out = []
    for G in nx.graph_atlas_g()[1:]:
        n = G.number_of_nodes()
        if 1 <= n <= n_max and nx.is_connected(G):
            out.append(build_graph(n, [tuple(sorted(e)) for e in G.edges()]))
    return out


def _inst(g, **extra):
    d = {"graph6": encode_graph6(g)}
    d.update(extra)
    return d


def _copnum_observed(value, decided, bound):
    if not decided:
        return {"cop_number": None, "note": "undecided (state cap)"}
    if value is None:
        return {"cop_number_exceeds": bound}
    return {"cop_number": value}


def _outcome_observed(outcome):
    if isinstance(outcome, Win):
        return {"outcome": "win", "rounds": outcome.rounds}
    if isinstance(outcome, Evaded):
        return {
            "outcome": "evaded",
            "witness": [[list(c), sorted(b)] for c, b in outcome.witness],
        }
    return {"outcome": "timeout", "nodes": outcome.nodes}


def _clamp(n_max, default, hard):
    return min(n_max if n_max is not None else default, hard)


# ---------------------------------------------------------------------------
# Exact-value claims on named families.


def _claim_prop_classes(n_max, ctx):
    """Paths need one cop, cycles two, complete graphs ceil(n/2), any k."""
    rows = []
    for k in (1, 2, 3, 4):
        rule = hyperopic(k)
        for n in range(1, _clamp(n_max, 12, 12) + 1):
            rows.append(("path", n, k, rule, path(n), 1))
        for n in range(3, _clamp(n_max, 10, 10) + 1):
            rows.append(("cycle", n, k, rule, cycle(n), 2))
        for n in range(1, _clamp(n_max, 8, 8) + 1):
            rows.append(("complete", n, k, rule, complete(n), (n + 1) // 2))
    for family, n, k, rule, g, expect in rows:
        value, decided = ctx.bounded_copnum(g, rule, expect)
        observed = _copnum_observed(value, decided, expect)
        observed.update({"rule": "hyperopic", "k": k, "expected_value": expect})
        if not decided:
            verdict = UNDECIDED
        else:
            verdict = PASS if value == expect else VIOLATION
        yield AuditReport(
            "prop-classes",
            _inst(g, family=family, n=n, k=k),
            f"cop_number == {expect}",
            observed,
            verdict,
        )


def _claim_bipartite(n_max, ctx):
    """Complete bipartite graphs with k >= 2 need exactly min-side cops."""
    top = _clamp(n_max, 5, 5)
    for m in range(1, 4):
        for n in range(m, top + 1):
            g = complete_bipartite(m, n)
            for k in (2, 3):
                rule = hyperopic(k)
                value, decided = ctx.bounded_copnum(g, rule, m)
                observed = _copnum_observed(value, decided, m)
                observed.update(
                    {"rule": "hyperopic", "k": k, "expected_value": m}
                )
                if not decided:
                    verdict = UNDECIDED
                else:
                    verdict = PASS if value == m else VIOLATION
                yield AuditReport(
                    "bipartite",
                    _inst(g, family="complete_bipartite", m=m, n=n, k=k),
                    f"cop_number == {m}",
                    observed,
                    verdict,
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
    for g in _connected_graphs(_clamp(n_max, 6, 6)):
        values = {}
        undecided = False
        for name, rule in rules:
            v = ctx.exact_copnum(g, rule)
            if v is None:
                undecided = True
                break
            values[name] = v
        if undecided:
            verdict = UNDECIDED
            observed = dict(values)
            observed["note"] = "undecided (state cap)"
        else:
            chain = [values[name] for name, _ in rules]
            ok = all(a <= b for a, b in zip(chain, chain[1:]))
            verdict = PASS if ok else VIOLATION
            observed = values
        yield AuditReport(
            "monotonicity",
            _inst(g, n=g.n),
            "cop numbers weakly increase from full to zero visibility",
            observed,
            verdict,
        )


def _claim_zerovis_eq(n_max, ctx):
    """Once k reaches the diameter, hyperopic play equals zero visibility."""
    for g in _connected_graphs(_clamp(n_max, 6, 6)):
        k = max(diameter(g), 1)
        hv = ctx.exact_copnum(g, hyperopic(k))
        zv = ctx.exact_copnum(g, zero_visibility())
        observed = {"diameter": diameter(g), "k": k, "hyperopic": hv, "zero": zv}
        if hv is None or zv is None:
            verdict = UNDECIDED
            observed["note"] = "undecided (state cap)"
        else:
            verdict = PASS if hv == zv else VIOLATION
        yield AuditReport(
            "zerovis-eq",
            _inst(g, n=g.n),
            "cop_number(hyperopic(diam)) == cop_number(zero)",
            observed,
            verdict,
        )


def _claim_diam_bound(n_max, ctx):
    """On graphs of diameter >= 2k+1, hyperopic costs at most 2 extra cops."""
    for g in _connected_graphs(_clamp(n_max, 7, 7)):
        d = diameter(g)
        for k in (1, 2):
            if d < 2 * k + 1:
                continue
            classic = ctx.exact_copnum(g, full_visibility())
            if classic is None:
                yield AuditReport(
                    "diam-bound",
                    _inst(g, n=g.n, k=k, diameter=d),
                    "cop_number(hyperopic(k)) <= cop_number(full) + 2",
                    {"note": "undecided (state cap)", "k": k},
                    UNDECIDED,
                )
                continue
            bound = classic + 2
            value, decided = ctx.bounded_copnum(g, hyperopic(k), bound)
            observed = _copnum_observed(value, decided, bound)
            observed.update({"rule": "hyperopic", "k": k, "full": classic})
            if not decided:
                verdict = UNDECIDED
            else:
                verdict = PASS if value is not None else VIOLATION
            yield AuditReport(
                "diam-bound",
                _inst(g, n=g.n, k=k, diameter=d),
                "cop_number(hyperopic(k)) <= cop_number(full) + 2",
                observed,
                verdict,
            )


# ---------------------------------------------------------------------------
# Retracts.


def _find_retraction(g, h_vertices):
    """Some map fixing h_vertices that folds the rest of g into them, or None.

    Backtracking over the outside vertices; a partial map is kept consistent
    on every already-assigned edge (endpoints mapped equal or adjacent inside
    the target set).
    """
    hset = set(h_vertices)
    outside = [v for v in range(g.n) if v not in hset]
    eset = set(g.edges)

    def compatible(a, b):
        return a == b or (min(a, b), max(a, b)) in eset

    assign = {v: v for v in hset}

    def rec(i):
        if i == len(outside):
            return dict(assign)
        v = outside[i]
        for target in sorted(hset):
            ok = True
            for w in g.adj[v]:
                if w in assign and not compatible(target, assign[w]):
                    ok = False
                    break
            if ok:
                assign[v] = target
                found = rec(i + 1)
                if found is not None:
                    return found
                del assign[v]
        return None

    return rec(0)


def _induced_subgraph(g, vertices):
    order = sorted(vertices)
    idx = {v: i for i, v in enumerate(order)}
    edges = [
        (idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx
    ]
    return build_graph(len(order), edges)


def _claim_retract(n_max, ctx):
    """A retract never needs more cops than the graph it folds out of."""
    from itertools import combinations

    for g in _connected_graphs(_clamp(n_max, 5, 5)):
        if g.n < 3:
            continue
        for size in range(2, g.n):
            for hs in combinations(range(g.n), size):
                mapping = _find_retraction(g, hs)
                if mapping is None:
                    continue
                h = _induced_subgraph(g, hs)
                for k in (1, 2):
                    rule = hyperopic(k)
                    cg = ctx.exact_copnum(g, rule)
                    chh = ctx.exact_copnum(h, rule)
                    observed = {
                        "rule": "hyperopic",
                        "k": k,
                        "graph_cop_number": cg,
                        "retract_cop_number": chh,
                        "retraction": [mapping[v] for v in range(g.n)],
                    }
                    if cg is None or chh is None:
                        verdict = UNDECIDED
                        observed["note"] = "undecided (state cap)"
                    else:
                        verdict = PASS if chh <= cg else VIOLATION
                    yield AuditReport(
                        "retract",
                        _inst(
                            g,
                            n=g.n,
                            retract_vertices=list(hs),
                            retract_graph6=encode_graph6(h),
                            k=k,
                        ),
                        "cop_number(retract) <= cop_number(graph)",
                        observed,
                        verdict,
                    )


# ---------------------------------------------------------------------------
# One-cop characterization.


def _claim_caterpillar(n_max, ctx):
    """One cop suffices on a tree (k in {2,3}) exactly for caterpillars."""
    for n in range(1, _clamp(n_max, 9, 9) + 1):
        for t in all_trees(n):
            cat = is_caterpillar(t)
            observed = {"is_caterpillar": cat}
            verdict = PASS
            for k in (2, 3):
                value, decided = ctx.bounded_copnum(t, hyperopic(k), 1)
                one_cop = value == 1
                observed[f"one_cop_wins_k{k}"] = (
                    one_cop if decided else None
                )
                if not decided:
                    verdict = UNDECIDED
                elif one_cop != cat and verdict != UNDECIDED:
                    verdict = VIOLATION
            yield AuditReport(
                "caterpillar",
                _inst(t, n=n),
                "one cop wins iff the tree is a caterpillar (k in {2,3})",
                observed,
                verdict,
            )


# ---------------------------------------------------------------------------
# Policy-backed claims.


def _claim_matching_bound(n_max, ctx):
    """The alternating-pairs policy wins blind with matching-number many cops."""
    for g in _connected_graphs(_clamp(n_max, 7, 7)):
        matching = maximum_matching(g)
        expect = matching.size + (0 if matching.is_perfect else 1)
        policy = matching_policy(g)
        outcome = verify_policy(g, zero_visibility(), policy)
        observed = _outcome_observed(outcome)
        observed.update(
            {
                "rule": "zero",
                "cops_used": policy.num_cops,
                "matching_number": matching.size,
                "expected_cops": expect,
                "ceil_half_n": (g.n + 1) // 2,
            }
        )
        if isinstance(outcome, Win):
            ok = policy.num_cops == expect and expect <= (g.n + 1) // 2
            verdict = PASS if ok else VIOLATION
        elif isinstance(outcome, Evaded):
            verdict = VIOLATION
        else:
            verdict = UNDECIDED
        yield AuditReport(
            "matching-bound",
            _inst(g, n=g.n),
            "policy wins blind with matching-size (+1 if imperfect) cops",
            observed,
            verdict,
        )


def _claim_tree2(n_max, ctx):
    """Two cops beat any tree at hyperopic distance two."""
    for n in range(2, _clamp(n_max, 12, 12) + 1):
        for t in all_trees(n):
            policy = tree_k2_policy(t)
            outcome = verify_policy(t, hyperopic(2), policy)
            observed = _outcome_observed(outcome)
            observed.update(
                {"rule": "hyperopic", "k": 2, "cops_used": policy.num_cops}
            )
            if isinstance(outcome, Win):
                verdict = PASS
            elif isinstance(outcome, Evaded):
                verdict = VIOLATION
            else:
                verdict = UNDECIDED
            yield AuditReport(
                "tree2",
                _inst(t, n=n),
                "two-cop tree policy wins under hyperopic(2)",
                observed,
                verdict,
            )


def _claim_pendant(n_max, ctx):
    """Two cops win on trees that carry a long-enough pendant path."""
    for n in range(2, _clamp(n_max, 9, 12) + 1):
        for t in all_trees(n):
            for k in (3, 4, 5):
                try:
                    policy = pendant_path_policy(t, k)
                except ValueError:
                    continue
                outcome = verify_policy(t, hyperopic(k), policy)
                observed = _outcome_observed(outcome)
                observed.update(
                    {"rule": "hyperopic", "k": k, "cops_used": policy.num_cops}
                )
                if isinstance(outcome, Win):
                    verdict = PASS
                elif isinstance(outcome, Evaded):
                    verdict = VIOLATION
                else:
                    verdict = UNDECIDED
                yield AuditReport(
                    "pendant",
                    _inst(t, n=n, k=k),
                    "pendant-path policy wins with two cops",
                    observed,
                    verdict,
                )


def _claim_tree_lemmas(n_max, ctx):
    """Diameter-stratified tree strategies: two cops on long trees, three on
    near-diameter trees, and the solver-checked bound in the middle band."""
    top = _clamp(n_max, 12, 12)
    for n in range(2, top + 1):
        for t in all_trees(n):
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
                outcome = verify_policy(t, hyperopic(k), policy)
                observed = _outcome_observed(outcome)
                observed.update(
                    {
                        "rule": "hyperopic",
                        "k": k,
                        "cops_used": policy.num_cops,
                        "diameter": d,
                    }
                )
                if isinstance(outcome, Win):
                    verdict = (
                        PASS if policy.num_cops <= expect_cops else VIOLATION
                    )
                elif isinstance(outcome, Evaded):
                    verdict = VIOLATION
                else:
                    verdict = UNDECIDED
                yield AuditReport(
                    "tree-lemmas",
                    _inst(t, n=n, k=k, kind=kind),
                    f"{kind} policy wins with {expect_cops} cops",
                    observed,
                    verdict,
                )
    # Middle band k+1 <= diam <= 2k-4: no constructive policy, so the bound
    # 2 + floor((2k - diam)/4) is checked against the exact solver.
    for n in range(2, min(top, 10) + 1):
        for t in all_trees(n):
            d = diameter(t)
            for k in (5, 6):
                if not k + 1 <= d <= 2 * k - 4:
                    continue
                bound = 2 + (2 * k - d) // 4
                value, decided = ctx.bounded_copnum(t, hyperopic(k), bound)
                observed = _copnum_observed(value, decided, bound)
                observed.update(
                    {"rule": "hyperopic", "k": k, "diameter": d, "bound": bound}
                )
                if not decided:
                    verdict = UNDECIDED
                else:
                    verdict = PASS if value is not None else VIOLATION
                yield AuditReport(
                    "tree-lemmas",
                    _inst(t, n=n, k=k, kind="midrange-bound"),
                    "cop_number <= 2 + floor((2k - diam)/4)",
                    observed,
                    verdict,
                )


# ---------------------------------------------------------------------------
# Documented discrepancies.


def _claim_tfamily_diam(n_max, ctx):
    """The recursive spider family's claimed diameter growth of 4 per level
    fails: measured diameters run 0, 4, 8 against claimed minima 4, 8, 12."""
    for m in (1, 2, 3):
        t = t_family(m)
        d = diameter(t)
        claimed = 4 * m
        observed = {"n": t.n, "diameter": d, "claimed_min_diameter": claimed}
        verdict = PASS if d >= claimed else VIOLATION_DOCUMENTED
        yield AuditReport(
            "tfamily-diam",
            _inst(t, family="t_family", m=m),
            f"diameter >= {claimed}",
            observed,
            verdict,
        )


def _claim_diam4_bound(n_max, ctx):
    """The floor(diam/4) bound on the blind cop number of trees fails already
    on the 7-vertex spider (blind cop number 2, floor(4/4) = 1)."""
    for n in range(5, _clamp(n_max, 8, 9) + 1):
        for t in all_trees(n):
            d = diameter(t)
            if d < 4:
                continue
            bound = d // 4
            c0 = ctx.exact_copnum(t, zero_visibility())
            observed = {
                "rule": "zero",
                "diameter": d,
                "bound": bound,
                "zero_cop_number": c0,
            }
            if c0 is None:
                verdict = UNDECIDED
                observed["note"] = "undecided (state cap)"
            else:
                verdict = PASS if c0 <= bound else VIOLATION_DOCUMENTED
            yield AuditReport(
                "diam4-bound",
                _inst(t, n=n),
                "zero-visibility cop_number <= floor(diam/4)",
                observed,
                verdict,
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
        for g in all_two_connected_outerplanar(n):
            policy = outerplanar_k2_policy(g)
            outcome = verify_policy(g, hyperopic(2), policy)
            observed = _outcome_observed(outcome)
            observed.update(
                {"rule": "hyperopic", "k": 2, "cops_used": policy.num_cops}
            )
            if isinstance(outcome, Win):
                verdict = PASS
            elif isinstance(outcome, Evaded):
                verdict = VIOLATION
            else:
                verdict = UNDECIDED
            yield AuditReport(
                "outerplanar2",
                _inst(g, n=n, kind="two-connected"),
                "territory policy wins with two cops under hyperopic(2)",
                observed,
                verdict,
            )
    for name, g in _cut_vertex_outerplanar_examples():
        value, decided = ctx.bounded_copnum(g, hyperopic(2), 2)
        observed = _copnum_observed(value, decided, 2)
        observed.update({"rule": "hyperopic", "k": 2})
        if not decided:
            verdict = UNDECIDED
        else:
            verdict = PASS if value is not None else VIOLATION
        yield AuditReport(
            "outerplanar2",
            _inst(g, n=g.n, kind="cut-vertex", name=name),
            "cop_number(hyperopic(2)) <= 2",
            observed,
            verdict,
        )


def _claim_outerplanar_sqrt(n_max, ctx):
    """On 2-connected outerplanar graphs, hyperopic(3) needs at most
    sqrt(2n) cops."""
    for n in range(5, _clamp(n_max, 9, 10) + 1):
        bound = math.isqrt(2 * n)
        for g in all_two_connected_outerplanar(n):
            value, decided = ctx.bounded_copnum(g, hyperopic(3), bound)
            observed = _copnum_observed(value, decided, bound)
            observed.update({"rule": "hyperopic", "k": 3, "bound": bound})
            if not decided:
                verdict = UNDECIDED
            else:
                verdict = PASS if value is not None else VIOLATION
            yield AuditReport(
                "outerplanar-sqrt",
                _inst(g, n=n),
                "cop_number(hyperopic(3)) <= floor(sqrt(2n))",
                observed,
                verdict,
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


def run_claim(claim, *, n_max=None, cache=None, state_cap=1_000_000):
    """All reports for one claim, sorted by instance key."""
    try:
        fn = CLAIMS[claim]
    except KeyError:
        raise ValueError(f"unknown claim {claim!r}") from None
    ctx = _Ctx(cache=cache, state_cap=state_cap)
    return sorted(fn(n_max, ctx), key=AuditReport.sort_key)


def claim_verdict(reports):
    """Worst verdict across a claim's reports."""
    order = [VIOLATION, VIOLATION_DOCUMENTED, UNDECIDED, PASS]
    seen = {r.verdict for r in reports}
    for v in order:
        if v in seen:
            return v
    return PASS

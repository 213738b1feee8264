"""Layer tracing by runtime rebinding, for the traced benchmark run only.

No source file changes: `Tracer.install()` replaces public functions and
methods at the names their callers look up (module globals that other
modules imported by name, class attributes, and the lazily imported names
`extract_certificate` and `cached_solve` fetch at call time), and
`uninstall()` puts the originals back.

Every wrapped call is one span.  A span's self time is its duration minus
the part its child spans cover; all spans nest, because the benchmark is
single-threaded.  Spans of the coarse calls (a claim, a solve, a verify, a
table build, a cache access, a graph build, an enumeration) are kept in
memory as (name, start, end, parent) and written out when the run ends.
The hot leaf calls (`cop_step`, `joint_moves`, `robber_step` and policy
steps, about 4M per audit-solve pass) are aggregated per name instead:
their calls, self time and inclusive time are summed, and their duration
is charged to the enclosing span, so self times stay exact while memory
stays bounded.

Counts come from arguments and return values only, never from the
program's private state: `distinct` is the number of distinct keys a
TransitionTable was asked about (its memo misses), tracked in a set
attached to each table and freed with it.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict

_SEEN = "_perfbench_seen"

# Policy constructors the audits import by name.
_POLICIES = (
    "matching_policy",
    "outerplanar_k2_policy",
    "pendant_path_policy",
    "stationary_pair_policy",
    "tree_k2_policy",
    "tree_near_diam_policy",
)


class Tracer:
    def __init__(self, hyperopic):
        self.h = hyperopic
        self.stack = []  # open frames: [time covered by children, span id]
        self.spans = []  # (name, start, end, parent span id or -1)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, incl
        self.counts = defaultdict(int)
        self._saved = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, *, record=True, after=None):
        """fn timed as span `name`; after(args, result) runs on success."""
        stack, spans, stats = self.stack, self.spans, self.stats[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if record:
                frame = [0.0, len(spans)]
                spans.append(None)
            else:
                frame = [0.0, parent]
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt - frame[0]
                stats[2] += dt
                if stack:
                    stack[-1][0] += dt
                if record:
                    spans[frame[1]] = (name, t0, t1, parent)
            if after is not None:
                after(args, res)
            return res

        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_all(self, owners, attr, name, **kw):
        """One wrapper, rebound at every module that holds the name."""
        wrapper = self.wrap(name, getattr(owners[0], attr), **kw)
        for owner in owners:
            self._patch(owner, attr, wrapper)

    def install(self):
        h = self.h
        audits, solver, strategies = h.audits, h.solver, h.strategies
        families, graph, formats, game = h.families, h.graph, h.formats, h.game
        count = self.counts
        table_cls = game.TransitionTable

        def table_built(args, _):
            setattr(args[0], _SEEN, (set(), set()))

        def distinct(slot, counter):
            def after(args, _):
                key = args[1:]
                seen = getattr(args[0], _SEEN)[slot]
                if key not in seen:
                    seen.add(key)
                    count[counter] += 1
            return after

        self._patch(table_cls, "__init__", self.wrap(
            "game.table", table_cls.__init__, after=table_built))
        self._patch(table_cls, "cop_step", self.wrap(
            "game.cop_step", table_cls.cop_step, record=False))
        self._patch(table_cls, "joint_moves", self.wrap(
            "game.joint_moves", table_cls.joint_moves, record=False,
            after=distinct(0, "game.joint_moves.distinct")))
        self._patch(table_cls, "robber_step", self.wrap(
            "game.robber_step", table_cls.robber_step, record=False,
            after=distinct(1, "game.robber_step.distinct")))

        def solved(_, res):
            count["solver.states"] += res.states_explored
            if res.status == "undecided":
                count["solver.undecided"] += 1

        self._patch_all([solver, audits], "solve", "solver.solve", after=solved)
        self._patch_all([solver], "cop_number", "solver.cop_number")
        self._patch_all([solver], "extract_certificate",
                        "solver.extract_certificate")

        self._patch_all([strategies, audits], "verify_policy",
                        "strategies.verify_policy")

        def built(fn):
            build = self.wrap("strategies.policy_build", fn)

            def constructor(*args, **kwargs):
                policy = build(*args, **kwargs)
                step = self.wrap("strategies.policy_step", policy.step,
                                 record=False)
                return dataclasses.replace(policy, step=step)

            return constructor

        for attr in _POLICIES:
            self._patch(audits, attr, built(getattr(audits, attr)))
        self._patch(strategies, "certificate_policy",
                    built(strategies.certificate_policy))

        def enumerated(_, res):
            count["families.graphs"] += len(res)

        self._patch_all([audits, families], "all_trees", "families.all_trees",
                        after=enumerated)
        self._patch_all([audits, families], "all_two_connected_outerplanar",
                        "families.all_two_connected_outerplanar",
                        after=enumerated)
        self._patch_all([graph, audits, families], "build_graph",
                        "graph.build_graph")
        self._patch_all([formats, audits], "encode_graph6",
                        "formats.encode_graph6")

        def looked_up(_, res):
            if res is not None:
                count["cache.hits"] += 1

        cache_cls = h.cache.ResultCache
        self._patch(cache_cls, "get", self.wrap(
            "cache.get", cache_cls.get, after=looked_up))
        self._patch(cache_cls, "put", self.wrap("cache.put", cache_cls.put))

        run_claim = audits.run_claim
        per_claim = {}

        def claim(name, *args, **kwargs):
            fn = per_claim.get(name)
            if fn is None:
                fn = per_claim[name] = self.wrap(f"audits.claim.{name}",
                                                 run_claim)
            return fn(name, *args, **kwargs)

        self._patch(audits, "run_claim", claim)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self):
        """Exact counts and summed times, keyed by layer metric name."""
        out = dict(self.counts)
        for name, (calls, self_s, incl_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.incl_s"] = incl_s
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""Append-only JSON-lines store for solved game instances.

Each line records one winnability decision, keyed by (graph6, rule kind,
distance parameter, cop count) plus a schema version, together with a
checksum over the canonical JSON of the key and result.  Lines that fail to
parse, whose checksum does not match or whose result is not a record of
`result_record`'s shape are skipped with a warning, so a torn or hand-edited
write never poisons later runs; lines of another schema version are skipped
too, with one warning per file, so rows from older game semantics are never
trusted.
Certificates are not persisted (they are cheap to re-derive from the stored
winning placement); a cached entry carries status, placement, round bound,
and the explored-state count of the original run.

A hyperopic(k) game with k at least the graph's diameter is the
zero-visibility game: no cop ever sees the robber, so the transitions, the
search and the record are identical.  `cached_solve` stores and looks up
such a game under the zero-visibility key, so it is solved once for every
rule that makes it blind.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings

ENV_VAR = "HYPEROPIC_CACHE"

# Bump whenever the game's semantics, the record shape or the values a fresh
# solve stores change.  Version 2: goal-directed settling changed `states`
# and some `rounds`.  Version 3: blind specs are searched breadth-first over
# minimal beliefs, which changed their `states`.  Version 4: a spec is
# settled on its first placement only, which changed robber wins' `states`.
# Version 5: the solver keys states by cop-tuple orbit under the graph's
# automorphisms, which changed `states` for every spec whose graph has
# symmetries and some non-blind `rounds` (blind `rounds` stay exact).
SCHEMA_VERSION = 5


def _checksum(payload):
    return hashlib.sha256(payload.encode("utf8")).hexdigest()[:16]


def _canonical(key_obj, result):
    return json.dumps(
        {"key": key_obj, "result": result}, sort_keys=True, separators=(",", ":")
    )


def _key_obj(graph6, rule, cops):
    return {
        "graph6": graph6,
        "rule": rule.kind,
        "k": rule.k,
        "cops": cops,
        "version": SCHEMA_VERSION,
    }


class ResultCache:
    """Exact-hit lookup over a JSON-lines file; None path disables it.

    The file is read once at construction and appended to on every new
    result.  An unreadable or unwritable path degrades to warnings plus
    uncached computation rather than an error.
    """

    def __init__(self, path):
        self.path = path
        self.entries = {}
        self.hits = 0
        self.writable = path is not None
        if path is None:
            return
        stale = 0
        try:
            with open(path, "r", encoding="utf8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    parsed = _parse_line(line)
                    if parsed is None:
                        warnings.warn(
                            f"cache {path}:{lineno}: corrupt line skipped"
                        )
                        continue
                    version, key, result = parsed
                    if version != SCHEMA_VERSION:
                        stale += 1
                        continue
                    self.entries[key] = result
        except FileNotFoundError:
            pass
        except OSError as exc:
            warnings.warn(f"cache {path}: unreadable ({exc}); reads disabled")
        if stale:
            warnings.warn(
                f"cache {path}: {stale} line(s) of a schema version other"
                f" than {SCHEMA_VERSION}; each stale line skipped"
            )
        try:
            with open(path, "a", encoding="utf8"):
                pass
        except OSError as exc:
            warnings.warn(
                f"cache {path}: not writable ({exc}); results will not be saved"
            )
            self.writable = False

    def __len__(self):
        return len(self.entries)

    def get(self, graph6, rule, cops):
        """The stored result dict for an exact key match, else None."""
        res = self.entries.get((graph6, rule.kind, rule.k, cops))
        if res is not None:
            self.hits += 1
        return res

    def put(self, graph6, rule, cops, result):
        """Record a result; appends one checksummed line when persistent."""
        self.put_many([(graph6, rule, cops, result)])

    def put_many(self, records):
        """Record (graph6, rule, cops, result) tuples in order, skipping
        keys already present; the new lines go to the file in one append."""
        lines = []
        for graph6, rule, cops, result in records:
            key = (graph6, rule.kind, rule.k, cops)
            if key in self.entries:
                continue
            self.entries[key] = result
            if self.writable:
                lines.append(_line(graph6, rule, cops, result))
        if not lines:
            return
        try:
            with open(self.path, "a", encoding="utf8") as fh:
                fh.write("".join(lines))
        except OSError as exc:
            warnings.warn(
                f"cache {self.path}: write failed ({exc}); further saves skipped"
            )
            self.writable = False


def _line(graph6, rule, cops, result):
    """One checksummed cache line, newline included."""
    key_obj = _key_obj(graph6, rule, cops)
    return json.dumps(
        {
            "key": key_obj,
            "result": result,
            "check": _checksum(_canonical(key_obj, result)),
        },
        sort_keys=True,
        separators=(",", ":"),
    ) + "\n"


def _parse_line(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if not isinstance(obj, dict) or set(obj) != {"key", "result", "check"}:
        return None
    key_obj, result, check = obj["key"], obj["result"], obj["check"]
    if _checksum(_canonical(key_obj, result)) != check:
        return None
    if not _is_record(result):
        return None
    try:
        key = (key_obj["graph6"], key_obj["rule"], key_obj["k"], key_obj["cops"])
    except (KeyError, TypeError):
        return None
    return key_obj.get("version"), key, result


def _is_record(result):
    """Whether a stored result has a shape `result_record` gives."""
    status = result.get("status") if isinstance(result, dict) else None
    fields = {"status": str, "states": int}
    if status == "cop_win":
        fields.update(rounds=int, placement=list)
    elif status != "robber_win":
        return False
    return (
        set(result) == set(fields)
        and all(type(result[f]) is t for f, t in fields.items())
        and all(type(v) is int for v in result.get("placement", ()))
    )


def open_cache(path=None):
    """Cache at the given path, falling back to $HYPEROPIC_CACHE, else disabled."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    return ResultCache(path if path else None)


def result_record(res):
    """JSON-safe summary of a SolveResult, as stored in the cache."""
    out = {"status": res.status, "states": res.states_explored}
    if res.is_cop_win:
        out["placement"] = list(res.placement)
        out["rounds"] = res.rounds
    return out


def cached_solve(graph, rule, cops, cache, *, state_cap=1_000_000):
    """Winnability via the cache, as the JSON-safe record of
    `result_record`; `cache.hits` counts the lookups it answered.  Undecided
    outcomes are never stored, so a later run with a larger cap can settle
    them.  A blind hyperopic rule is keyed as zero visibility (see the
    module docstring).
    """
    from .formats import encode_graph6
    from .game import GameSpec, zero_visibility
    from .graph import diameter
    from .solver import solve

    if rule.kind == "hyperopic" and rule.k >= diameter(graph):
        rule = zero_visibility()
    g6 = encode_graph6(graph)
    if cache is not None:
        hit = cache.get(g6, rule, cops)
        if hit is not None:
            return hit
    res = solve(GameSpec(graph, rule, cops), state_cap=state_cap)
    record = result_record(res)
    if cache is not None and res.status != "undecided":
        cache.put(g6, rule, cops, record)
    return record

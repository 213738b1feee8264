"""Append-only JSON-lines store for solved game instances.

Each line records one winnability decision, keyed by (graph6, rule kind,
distance parameter, cop count) plus a schema version, together with a
checksum over the canonical JSON of the key and result.  Lines that fail to
parse or whose checksum does not match are skipped with a warning, so a torn
write never poisons later runs; lines of another schema version are skipped
with a warning too, so rows from older game semantics are never trusted.
Certificates are not persisted (they are cheap to re-derive from the stored
winning placement); a cached entry carries status, placement, round bound,
and the explored-state count of the original run.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings

ENV_VAR = "HYPEROPIC_CACHE"

# Bump whenever the game's semantics or the record shape change.
SCHEMA_VERSION = 1


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
                        warnings.warn(
                            f"cache {path}:{lineno}: schema version {version!r}"
                            f" is not {SCHEMA_VERSION}; stale line skipped"
                        )
                        continue
                    self.entries[key] = result
        except FileNotFoundError:
            pass
        except OSError as exc:
            warnings.warn(f"cache {path}: unreadable ({exc}); reads disabled")
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
        key = (graph6, rule.kind, rule.k, cops)
        if key in self.entries:
            return
        self.entries[key] = result
        if not self.writable:
            return
        key_obj = _key_obj(graph6, rule, cops)
        line = json.dumps(
            {
                "key": key_obj,
                "result": result,
                "check": _checksum(_canonical(key_obj, result)),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        try:
            with open(self.path, "a", encoding="utf8") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            warnings.warn(
                f"cache {self.path}: write failed ({exc}); further saves skipped"
            )
            self.writable = False


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
    try:
        key = (key_obj["graph6"], key_obj["rule"], key_obj["k"], key_obj["cops"])
    except (KeyError, TypeError):
        return None
    return key_obj.get("version"), key, result


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
    """Winnability via the cache: returns (record, was_hit).

    The record is the JSON-safe dict shape of `result_record`.  Undecided
    outcomes are never stored, so a later run with a larger cap can settle
    them.
    """
    from .formats import encode_graph6
    from .game import GameSpec
    from .solver import solve

    g6 = encode_graph6(graph)
    if cache is not None:
        hit = cache.get(g6, rule, cops)
        if hit is not None:
            return hit, True
    res = solve(GameSpec(graph, rule, cops), state_cap=state_cap)
    record = result_record(res)
    if cache is not None and res.status != "undecided":
        cache.put(g6, rule, cops, record)
    return record, False

"""Append-only JSON-lines store for solved game instances.

Each line records one winnability decision, keyed by (graph6, rule kind,
distance parameter, cop count) plus a schema version, together with a
checksum over the canonical JSON of the key and result.  Lines that fail to
parse or whose checksum does not match are skipped with a warning, so a torn
or hand-edited write never poisons later runs.  A line's version is checked
next: lines of another schema version are skipped with one warning per file,
so rows from older game semantics or record shapes are never trusted.  Last,
a line whose key or result does not have the field types `_key_obj` and
`result_record` write is skipped with a warning.
A record is the decision alone: its status ("cop_win" or "robber_win") and
the explored-state count of the original run.  The winning placement is
always `solver.first_placement`, and certificates are re-derived from it.
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
# Version 6: a record holds only `status` and `states`; `placement` (always
# the first placement) and `rounds` (read by nothing) are no longer stored.
SCHEMA_VERSION = 6


def _checksum(payload):
    return hashlib.sha256(payload.encode("utf8")).hexdigest()[:16]


def _canonical(key_obj, result):
    return json.dumps(
        {"key": key_obj, "result": result}, sort_keys=True, separators=(",", ":")
    )


# The fields of a key, in the order of the tuples `entries` is keyed by.
_KEY_FIELDS = ("graph6", "rule", "k", "cops")


def _key_obj(key):
    return dict(zip(_KEY_FIELDS, key), version=SCHEMA_VERSION)


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
                    if parsed is _STALE:
                        stale += 1
                    elif parsed is None:
                        warnings.warn(
                            f"cache {path}:{lineno}: corrupt line skipped"
                        )
                    else:
                        key, result = parsed
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

    def get(self, key):
        """The stored result dict for a key in the form `entries` holds,
        (graph6, rule kind, k, cops), else None."""
        res = self.entries.get(key)
        if res is not None:
            self.hits += 1
        return res

    def put(self, key, result):
        """Record a result; appends one checksummed line when persistent."""
        self.put_many([(key, result)])

    def put_many(self, records):
        """Record (key, result) pairs in order, skipping keys already
        present; the new lines go to the file in one append."""
        lines = []
        for key, result in records:
            if key in self.entries:
                continue
            self.entries[key] = result
            if self.writable:
                lines.append(_line(key, result))
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


def _line(key, result):
    """One checksummed cache line, newline included."""
    key_obj = _key_obj(key)
    return json.dumps(
        {
            "key": key_obj,
            "result": result,
            "check": _checksum(_canonical(key_obj, result)),
        },
        sort_keys=True,
        separators=(",", ":"),
    ) + "\n"


_STALE = object()


def _parse_line(line):
    """(key, result) of a line, `_STALE` when it is of another schema
    version, or None when it is corrupt."""
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if not isinstance(obj, dict) or set(obj) != {"key", "result", "check"}:
        return None
    key_obj, result, check = obj["key"], obj["result"], obj["check"]
    if _checksum(_canonical(key_obj, result)) != check:
        return None
    if isinstance(key_obj, dict) and key_obj.get("version") != SCHEMA_VERSION:
        return _STALE
    if not _is_record(result) or not _is_key(key_obj):
        return None
    return tuple(key_obj[f] for f in _KEY_FIELDS), result


def _is_key(key_obj):
    """Whether a stored key of this schema version has the fields `_key_obj`
    gives, of its types."""
    if not isinstance(key_obj, dict) or not key_obj.keys() >= set(_KEY_FIELDS):
        return False
    k = key_obj["k"]
    return (
        type(key_obj["graph6"]) is str
        and key_obj["rule"] in ("hyperopic", "zero", "full")
        and (k is None or type(k) is int)
        and type(key_obj["cops"]) is int
    )


def _is_record(result):
    """Whether a stored result has the shape `result_record` gives."""
    return (
        isinstance(result, dict)
        and set(result) == {"status", "states"}
        and result["status"] in ("cop_win", "robber_win")
        and type(result["states"]) is int
    )


def open_cache(path=None):
    """Cache at the given path, falling back to $HYPEROPIC_CACHE, else disabled."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    return ResultCache(path if path else None)


def result_record(res):
    """JSON-safe decision of a SolveResult, as stored in the cache: its
    status and its explored-state count."""
    return {"status": res.status, "states": res.states_explored}


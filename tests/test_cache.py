"""Tests for the JSON-lines result cache."""

import hashlib
import json

import pytest

from hyperopic.cache import (
    ENV_VAR,
    ResultCache,
    cached_solve,
    open_cache,
    result_record,
)
from hyperopic.families import cycle, path
from hyperopic.formats import encode_graph6
from hyperopic.game import GameSpec, hyperopic, zero_visibility
from hyperopic.solver import solve


def test_put_then_reload_roundtrips(tmp_path):
    p = tmp_path / "cache.jsonl"
    rule = hyperopic(2)
    c = ResultCache(str(p))
    rec = {"status": "cop_win", "states": 17, "placement": [0], "rounds": 3}
    c.put("Cx", rule, 1, rec)
    assert len(c) == 1

    again = ResultCache(str(p))
    assert len(again) == 1
    assert again.get("Cx", rule, 1) == rec
    assert again.hits == 1
    assert again.get("Cx", rule, 2) is None
    assert again.get("Cx", zero_visibility(), 1) is None


def test_missing_file_is_fine(tmp_path):
    c = ResultCache(str(tmp_path / "nope.jsonl"))
    assert len(c) == 0
    assert c.writable


def test_disabled_cache_still_memoizes_in_memory():
    c = ResultCache(None)
    assert not c.writable
    rec = {"status": "robber_win", "states": 5}
    c.put("Cx", hyperopic(1), 1, rec)
    assert c.get("Cx", hyperopic(1), 1) == rec


def test_put_is_idempotent_on_disk(tmp_path):
    p = tmp_path / "cache.jsonl"
    c = ResultCache(str(p))
    rec = {"status": "robber_win", "states": 5}
    c.put("Cx", hyperopic(1), 1, rec)
    c.put("Cx", hyperopic(1), 1, rec)
    c.put("Cx", hyperopic(1), 1, {"status": "robber_win", "states": 99})
    assert len(p.read_text().strip().splitlines()) == 1


def test_corrupt_lines_warn_and_are_skipped(tmp_path):
    p = tmp_path / "cache.jsonl"
    good = ResultCache(str(p))
    rec = {"status": "cop_win", "states": 3, "placement": [1], "rounds": 2}
    good.put("Bw", hyperopic(1), 1, rec)

    lines = p.read_text().strip().splitlines()
    tampered = json.loads(lines[0])
    tampered["result"]["rounds"] = 999  # checksum now wrong
    p.write_text(
        "not json at all\n"
        + json.dumps({"key": {}, "wrong": 1, "check": "00"}) + "\n"
        + json.dumps(tampered) + "\n"
        + lines[0] + "\n"
    )

    with pytest.warns(UserWarning, match="corrupt line skipped"):
        c = ResultCache(str(p))
    # only the untampered line survives
    assert len(c) == 1
    assert c.get("Bw", hyperopic(1), 1) == rec


@pytest.mark.parametrize("version", [None, 0, "1"])
def test_lines_of_another_schema_version_are_not_trusted(tmp_path, version):
    p = tmp_path / "cache.jsonl"
    g, rule = cycle(5), hyperopic(3)
    key = {"graph6": encode_graph6(g), "rule": rule.kind, "k": rule.k, "cops": 1}
    if version is not None:
        key["version"] = version
    wrong = {"status": "cop_win", "states": 1, "placement": [0], "rounds": 1}
    canonical = json.dumps(
        {"key": key, "result": wrong}, sort_keys=True, separators=(",", ":")
    )
    check = hashlib.sha256(canonical.encode("utf8")).hexdigest()[:16]
    p.write_text(json.dumps({"key": key, "result": wrong, "check": check}) + "\n")

    with pytest.warns(UserWarning, match="stale line skipped"):
        cache = ResultCache(str(p))
    assert len(cache) == 0
    rec, hit = cached_solve(g, rule, 1, cache)
    assert not hit
    assert rec["status"] == "robber_win"


def test_unreadable_path_degrades_with_warning(tmp_path):
    with pytest.warns(UserWarning):
        c = ResultCache(str(tmp_path))  # a directory: unreadable, unwritable
    assert len(c) == 0
    assert not c.writable
    # put must not raise
    c.put("Cx", hyperopic(1), 1, {"status": "robber_win", "states": 1})


def test_open_cache_env_fallback(tmp_path, monkeypatch):
    p = tmp_path / "env.jsonl"
    monkeypatch.setenv(ENV_VAR, str(p))
    c = open_cache()
    assert c.path == str(p)
    assert c.writable

    monkeypatch.delenv(ENV_VAR)
    assert open_cache().path is None

    explicit = tmp_path / "explicit.jsonl"
    monkeypatch.setenv(ENV_VAR, str(p))
    assert open_cache(str(explicit)).path == str(explicit)


def test_result_record_shapes():
    win = solve(GameSpec(path(4), hyperopic(2), 1))
    rec = result_record(win)
    assert rec["status"] == "cop_win"
    assert rec["rounds"] == win.rounds
    assert rec["placement"] == list(win.placement)
    assert rec["states"] == win.states_explored

    loss = solve(GameSpec(cycle(5), hyperopic(3), 1))
    rec = result_record(loss)
    assert rec == {"status": "robber_win", "states": loss.states_explored}


def test_cached_solve_miss_then_hit(tmp_path):
    p = tmp_path / "cache.jsonl"
    cache = ResultCache(str(p))
    g, rule = cycle(5), hyperopic(3)

    rec1, hit1 = cached_solve(g, rule, 2, cache)
    assert not hit1
    assert rec1["status"] == "cop_win"

    rec2, hit2 = cached_solve(g, rule, 2, cache)
    assert hit2
    assert rec2 == rec1
    assert cache.hits == 1

    # a fresh process sees the persisted line
    rec3, hit3 = cached_solve(g, rule, 2, ResultCache(str(p)))
    assert hit3 and rec3 == rec1


def test_cached_solve_distinguishes_keys(tmp_path):
    cache = ResultCache(str(tmp_path / "cache.jsonl"))
    rec_a, _ = cached_solve(cycle(5), hyperopic(3), 1, cache)
    rec_b, _ = cached_solve(cycle(5), hyperopic(3), 2, cache)
    assert rec_a["status"] == "robber_win"
    assert rec_b["status"] == "cop_win"
    _, hit = cached_solve(cycle(5), hyperopic(3), 1, cache)
    assert hit


def test_cached_solve_never_stores_undecided(tmp_path):
    p = tmp_path / "cache.jsonl"
    cache = ResultCache(str(p))
    g, rule = cycle(7), hyperopic(2)

    rec, hit = cached_solve(g, rule, 2, cache, state_cap=3)
    assert rec["status"] == "undecided" and not hit
    assert p.read_text() == ""

    # a later run with a real cap settles and stores it
    rec2, hit2 = cached_solve(g, rule, 2, cache)
    assert rec2["status"] == "cop_win" and not hit2
    assert cache.get(encode_graph6(g), rule, 2) == rec2


def test_cached_solve_without_cache():
    rec, hit = cached_solve(path(3), hyperopic(1), 1, None)
    assert rec["status"] == "cop_win"
    assert not hit

"""Tests for the JSON-lines result cache."""

import hashlib
import json
import warnings

import networkx as nx
import pytest

from hyperopic.cache import (
    ENV_VAR,
    SCHEMA_VERSION,
    ResultCache,
    open_cache,
    result_record,
)
from hyperopic.families import cycle, path
from hyperopic.formats import encode_graph6
from hyperopic.game import GameSpec, cop_cap, hyperopic, zero_visibility
from hyperopic.graph import build_graph, diameter
from hyperopic.solver import cached_solve, search_cop_number, solve


def test_put_then_reload_roundtrips(tmp_path):
    p = tmp_path / "cache.jsonl"
    c = ResultCache(str(p))
    rec = {"status": "cop_win", "states": 17}
    c.put(("Cx", "hyperopic", 2, 1), rec)
    assert len(c.entries) == 1

    again = ResultCache(str(p))
    assert len(again.entries) == 1
    assert again.get(("Cx", "hyperopic", 2, 1)) == rec
    assert again.hits == 1
    assert again.get(("Cx", "hyperopic", 2, 2)) is None
    assert again.get(("Cx", "zero", None, 1)) is None


def test_missing_file_is_fine(tmp_path):
    c = ResultCache(str(tmp_path / "nope.jsonl"))
    assert len(c.entries) == 0
    assert c.writable


def test_disabled_cache_still_memoizes_in_memory():
    c = ResultCache(None)
    assert not c.writable
    rec = {"status": "robber_win", "states": 5}
    c.put(("Cx", "hyperopic", 1, 1), rec)
    assert c.get(("Cx", "hyperopic", 1, 1)) == rec


def test_put_is_idempotent_on_disk(tmp_path):
    p = tmp_path / "cache.jsonl"
    c = ResultCache(str(p))
    rec = {"status": "robber_win", "states": 5}
    key = ("Cx", "hyperopic", 1, 1)
    c.put(key, rec)
    c.put(key, rec)
    c.put(key, {"status": "robber_win", "states": 99})
    assert len(p.read_text().strip().splitlines()) == 1


def test_put_many_writes_the_lines_of_put_in_one_append(tmp_path, monkeypatch):
    keyed = [
        (("Cx", "hyperopic", 1, 1), {"status": "robber_win", "states": 5}),
        (("Cx", "hyperopic", 1, 2), {"status": "cop_win", "states": 3}),
        (("Bw", "zero", None, 1), {"status": "robber_win", "states": 2}),
    ]
    one = ResultCache(str(tmp_path / "one.jsonl"))
    for rec in keyed:
        one.put(*rec)
    many = ResultCache(str(tmp_path / "many.jsonl"))
    many.put(*keyed[1])
    opened = []
    real_open = open
    monkeypatch.setattr(
        "builtins.open", lambda *a, **kw: opened.append(a) or real_open(*a, **kw)
    )
    # a key already present is skipped, also when it repeats in the batch
    many.put_many([keyed[0], keyed[1], keyed[2], keyed[0]])
    many.put_many([keyed[2]])
    monkeypatch.undo()
    assert len(opened) == 1
    lines = {k: (tmp_path / f"{k}.jsonl").read_text().splitlines()
             for k in ("one", "many")}
    assert sorted(lines["many"]) == sorted(lines["one"]) and len(lines["one"]) == 3
    assert lines["many"] == [lines["one"][i] for i in (1, 0, 2)]
    assert many.entries == one.entries


def _checksummed(key, result):
    """A cache line for key and result whose checksum matches."""
    canonical = json.dumps(
        {"key": key, "result": result}, sort_keys=True, separators=(",", ":")
    )
    check = hashlib.sha256(canonical.encode("utf8")).hexdigest()[:16]
    return json.dumps({"key": key, "result": result, "check": check}) + "\n"


def test_corrupt_lines_warn_and_are_skipped(tmp_path):
    p = tmp_path / "cache.jsonl"
    good = ResultCache(str(p))
    rec = {"status": "cop_win", "states": 3}
    good.put(("Bw", "hyperopic", 1, 1), rec)

    lines = p.read_text().strip().splitlines()
    tampered = json.loads(lines[0])
    tampered["result"]["states"] = 999  # checksum now wrong
    # checksummed, but not a shape `result_record` gives
    misshapen = [
        ["x"],
        None,
        {"status": "undecided", "states": 3},
        {"status": "cop_win"},
        # a version-5 cop win, under a version-6 key
        {"status": "cop_win", "states": 3, "placement": [1], "rounds": 2},
        {"status": "cop_win", "states": 3, "rounds": 2},
        {"status": "robber_win", "states": "3"},
        {"status": "robber_win", "states": 3.0},
        {"status": "robber_win", "states": 3, "rounds": 2},
    ]
    other = ResultCache(str(tmp_path / "other.jsonl"))
    for cops, bad in enumerate(misshapen, start=2):
        other.put(("Bw", "hyperopic", 1, cops), bad)
    # checksummed, but not a key `_key_obj` gives
    key = json.loads(lines[0])["key"]
    miskeyed = [
        ["Bw", "hyperopic", 1, 1],
        {f: v for f, v in key.items() if f != "cops"},
        {**key, "graph6": ["B", "w"]},
        {**key, "graph6": 7},
        {**key, "rule": "partial"},
        {**key, "rule": ["hyperopic"]},
        {**key, "k": "1"},
        {**key, "k": True},
        {**key, "cops": "1"},
        {**key, "cops": True},
        {**key, "cops": 1.0},
    ]
    p.write_text(
        "not json at all\n"
        + json.dumps({"key": {}, "wrong": 1, "check": "00"}) + "\n"
        + json.dumps(tampered) + "\n"
        + (tmp_path / "other.jsonl").read_text()
        + "".join(_checksummed(bad, rec) for bad in miskeyed)
        + lines[0] + "\n"
    )

    with pytest.warns(UserWarning, match="corrupt line skipped") as caught:
        c = ResultCache(str(p))
    assert len(caught) == 3 + len(misshapen) + len(miskeyed)
    # only the untampered line survives
    assert len(c.entries) == 1
    assert c.get(("Bw", "hyperopic", 1, 1)) == rec


@pytest.mark.parametrize("bad", [["x"], {"status": "cop_win"}, None])
def test_a_misshapen_line_is_solved_afresh_and_stored(tmp_path, bad):
    p = tmp_path / "cache.jsonl"
    g, rule = path(3), hyperopic(1)
    key = (encode_graph6(g), "hyperopic", 1, 1)
    ResultCache(str(p)).put(key, bad)
    with pytest.warns(UserWarning, match="corrupt line skipped"):
        cache = ResultCache(str(p))
    want = result_record(solve(GameSpec(g, rule, 1)))
    assert search_cop_number(g, rule, cache=cache) == (1, want)
    assert cache.hits == 0
    # the fresh record is appended after the misshapen line
    with pytest.warns(UserWarning, match="corrupt line skipped"):
        again = ResultCache(str(p))
    assert again.get(key) == want


@pytest.mark.parametrize(
    "version",
    [None, 0, "1", pytest.param(SCHEMA_VERSION - 1, id="previous")],
)
def test_lines_of_another_schema_version_are_not_trusted(tmp_path, version):
    p = tmp_path / "cache.jsonl"
    g, rule = cycle(5), hyperopic(3)
    key = {"graph6": encode_graph6(g), "rule": rule.kind, "k": rule.k, "cops": 1}
    if version is not None:
        key["version"] = version
    wrong = {"status": "cop_win", "states": 1, "placement": [0], "rounds": 1}
    p.write_text(_checksummed(key, wrong) * 3)

    # one warning per file, however many lines are stale
    with pytest.warns(UserWarning, match="3 line.*stale line skipped") as caught:
        cache = ResultCache(str(p))
    assert (len(cache.entries), len(caught)) == (0, 1)
    rec = cached_solve(g, rule, 1, cache)
    assert cache.hits == 0
    assert rec["status"] == "robber_win"


def test_unreadable_path_degrades_with_warning(tmp_path):
    with pytest.warns(UserWarning):
        c = ResultCache(str(tmp_path))  # a directory: unreadable, unwritable
    assert len(c.entries) == 0
    assert not c.writable
    # put must not raise
    c.put(("Cx", "hyperopic", 1, 1), {"status": "robber_win", "states": 1})


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
    assert rec == {"status": "cop_win", "states": win.states_explored}

    loss = solve(GameSpec(cycle(5), hyperopic(3), 1))
    rec = result_record(loss)
    assert rec == {"status": "robber_win", "states": loss.states_explored}


def test_cached_solve_miss_then_hit(tmp_path):
    p = tmp_path / "cache.jsonl"
    cache = ResultCache(str(p))
    g, rule = cycle(5), hyperopic(3)

    rec1 = cached_solve(g, rule, 2, cache)
    assert cache.hits == 0
    assert rec1["status"] == "cop_win"

    rec2 = cached_solve(g, rule, 2, cache)
    assert cache.hits == 1
    assert rec2 == rec1

    # a fresh process sees the persisted line
    fresh = ResultCache(str(p))
    rec3 = cached_solve(g, rule, 2, fresh)
    assert fresh.hits == 1 and rec3 == rec1


def test_cached_solve_checks_the_cop_count_on_a_warm_cache():
    # True and 2.0 equal the stored counts 1 and 2 as dict keys
    g, rule = cycle(5), hyperopic(1)
    cold, warm = ResultCache(None), ResultCache(None)
    search_cop_number(g, rule, cache=warm)
    assert {key[3] for key in warm.entries} >= {1, 2}
    for cache in (cold, warm):
        for cops in (True, 2.0):
            with pytest.raises(ValueError, match="cop count must be an int"):
                cached_solve(g, rule, cops, cache)
    assert warm.hits == 0


def test_cached_solve_distinguishes_keys(tmp_path):
    cache = ResultCache(str(tmp_path / "cache.jsonl"))
    rec_a = cached_solve(cycle(5), hyperopic(3), 1, cache)
    rec_b = cached_solve(cycle(5), hyperopic(3), 2, cache)
    assert rec_a["status"] == "robber_win"
    assert rec_b["status"] == "cop_win"
    assert cache.hits == 0
    assert cached_solve(cycle(5), hyperopic(3), 1, cache) == rec_a
    assert cache.hits == 1


def test_cached_solve_never_stores_undecided(tmp_path):
    p = tmp_path / "cache.jsonl"
    cache = ResultCache(str(p))
    g, rule = cycle(7), hyperopic(2)

    rec = cached_solve(g, rule, 2, cache, state_cap=3)
    assert rec["status"] == "undecided" and cache.hits == 0
    assert p.read_text() == ""

    # a later run with a real cap settles and stores it
    rec2 = cached_solve(g, rule, 2, cache)
    assert rec2["status"] == "cop_win" and cache.hits == 0
    assert cache.get((encode_graph6(g), "hyperopic", 2, 2)) == rec2


def test_blind_hyperopic_games_share_the_zero_visibility_key():
    # hyperopic(k) with k >= diameter never sees the robber: it is the
    # zero-visibility game, stored once under the zero-visibility key
    for nxg in nx.graph_atlas_g()[1:]:
        if nxg.number_of_nodes() > 5 or not nx.is_connected(nxg):
            continue
        g = build_graph(nxg.number_of_nodes(), list(nxg.edges()))
        g6, diam = encode_graph6(g), diameter(g)
        blind = max(diam, 1)
        for cops in range(1, min(2, cop_cap(g.n)) + 1):
            cache = ResultCache(None)
            rec = cached_solve(g, hyperopic(blind), cops, cache)
            assert cache.hits == 0
            fresh = solve(GameSpec(g, hyperopic(blind), cops))
            assert rec == result_record(fresh)
            assert list(cache.entries) == [(g6, "zero", None, cops)]
            for rule in (zero_visibility(), hyperopic(blind + 1)):
                assert cached_solve(g, rule, cops, cache) == rec
            assert cache.hits == 2
            if diam >= 2:
                # a k below the diameter sees something: its own key
                cached_solve(g, hyperopic(diam - 1), cops, cache)
                assert cache.hits == 2
                assert (g6, "hyperopic", diam - 1, cops) in cache.entries


def test_only_int_distances_and_cop_counts_reach_the_cache(tmp_path):
    # a distance or cop count that is not an int is refused before anything
    # is solved or stored, so every line written is one the loader reads
    p = tmp_path / "cache.jsonl"
    g = cycle(5)
    for bad in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="needs an int k"):
            search_cop_number(g, hyperopic(bad), cache=ResultCache(str(p)))
        with pytest.raises(ValueError, match="cop count must be an int"):
            cached_solve(g, hyperopic(1), bad, ResultCache(str(p)))
    assert p.read_text() == ""
    cache = ResultCache(str(p))
    assert search_cop_number(g, hyperopic(1), cache=cache)[0] == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = ResultCache(str(p))
    assert again.entries == cache.entries and len(again.entries) == 2

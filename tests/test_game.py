"""Game rules: visibility, observation splitting, and belief transitions.

The set-based game is the certificate checker's, in ``hyperopic.check``:
its sightings, robber step and round are pinned on small cases here, and
the bitmask ``TransitionTable`` that the solver searches with is checked
against them.
"""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperopic.check import check_certificate, play_round, robber_step, sightings
from hyperopic.families import complete, cycle, path, t_family, t_hat
from hyperopic.game import (
    GameSpec,
    TransitionTable,
    VisibilityRule,
    cop_cap,
    effective_rule,
    full_visibility,
    hyperopic,
    joint_cop_moves,
    mask_to_set,
    zero_visibility,
)
from hyperopic.graph import build_graph, diameter, growth_tables
from hyperopic.solver import Certificate
from oracles import set_to_mask


# --- rule construction --------------------------------------------------------


def test_rule_validation():
    assert hyperopic(2).kind == "hyperopic" and hyperopic(2).k == 2
    assert zero_visibility().kind == "zero"
    assert full_visibility().kind == "full"
    with pytest.raises(ValueError):
        hyperopic(0)
    with pytest.raises(ValueError):
        VisibilityRule("hyperopic")
    with pytest.raises(ValueError):
        VisibilityRule("zero", k=1)
    with pytest.raises(ValueError):
        VisibilityRule("sideways")


def test_game_spec_cop_cap():
    g = path(5)
    GameSpec(g, hyperopic(1), 4)  # ceil(5/2)+1
    with pytest.raises(ValueError):
        GameSpec(g, hyperopic(1), 5)
    with pytest.raises(ValueError):
        GameSpec(g, hyperopic(1), 0)


def test_belief_state_invariants():
    # a sighting never yields an empty belief (emptiness is capture) nor one
    # holding a cop: the vertices the cops stand on are captured
    g = path(4)
    assert sightings(g, zero_visibility(), (3, 1), {0, 1, 2}) == [
        (None, frozenset({0, 2}))]
    assert sightings(g, full_visibility(), (0, 1), {0, 1}) == []
    assert sightings(g, full_visibility(), (0, 1), set()) == []


# --- visibility predicate -------------------------------------------------------


def _visible(rule, cops, v):
    # whether the robber on vertex v of the path P_9 is seen by cops there
    return sightings(path(9), rule, cops, {v}) == [(v, frozenset({v}))]


def test_is_visible_examples():
    # the robber on vertex 3 of a path, cops at the distances named
    assert not _visible(hyperopic(2), (2, 5), 3)  # distances 1, 2
    assert _visible(hyperopic(2), (2, 6), 3)  # distances 1, 3
    assert not _visible(zero_visibility(), (2, 8), 3)  # 1, 5
    assert _visible(full_visibility(), (7,), 3)  # 4
    assert not _visible(hyperopic(3), (0, 6, 5), 3)  # 3, 3, 2
    assert _visible(hyperopic(3), (7,), 3)  # 4


# --- observation splitting -------------------------------------------------------


def test_split_full_visibility():
    out = sightings(path(4), full_visibility(), (0,), frozenset({2, 3}))
    assert [(seen, set(s)) for seen, s in out] == [(2, {2}), (3, {3})]


def test_split_zero_visibility():
    out = sightings(path(4), zero_visibility(), (0,), frozenset({2, 3}))
    assert out == [(None, frozenset({2, 3}))]


def test_split_hyperopic_path():
    # one cop at the end of P_6: the far half is visible, the near block is not
    out = sightings(path(6), hyperopic(2), (0,), frozenset({1, 2, 3, 4, 5}))
    assert [seen for seen, _ in out] == [3, 4, 5, None]
    assert out[-1][1] == {1, 2}


def test_split_partitions_input():
    cand = frozenset(range(1, 7))
    out = sightings(t_hat(), hyperopic(2), (0, 0), cand)
    union = set()
    total = 0
    for _, s in out:
        union |= set(s)
        total += len(s)
    assert union == set(cand) and total == len(cand)


def test_split_rejects_candidate_on_cop():
    # a candidate on a cop's vertex is captured, so no block holds it
    out = sightings(path(4), full_visibility(), (0,), frozenset({0, 1}))
    assert out == [(1, frozenset({1}))]


def test_split_all_invisible_when_k_covers_diameter():
    for g in (t_hat(), cycle(5), path(4)):
        k = max(diameter(g), 1)
        out = sightings(g, hyperopic(k), (0,), frozenset(range(1, g.n)))
        assert len(out) == 1 and out[0][0] is None


# --- joint cop moves -------------------------------------------------------------


def test_joint_moves_dedup_multisets():
    g = path(3)
    multisets = [key for _, key in joint_cop_moves(g, (1, 1))]
    assert sorted(multisets) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert len(multisets) == len(set(multisets))


def test_joint_moves_closed_neighborhoods():
    g = cycle(4)
    multisets = sorted(key for _, key in joint_cop_moves(g, (0,)))
    assert multisets == [(0,), (1,), (3,)]


def test_joint_moves_aligned_to_input():
    g = path(4)
    for move, key in joint_cop_moves(g, (1, 2)):
        assert tuple(sorted(move)) == key
        assert move[0] in (0, 1, 2) and move[1] in (1, 2, 3)


def _product_joint_moves(graph, cops):
    # reference: the full per-cop product, least move per multiset, sorted
    options = [tuple(sorted((c, *graph.adj[c]))) for c in cops]
    seen = {}
    for joint in itertools.product(*options):
        seen.setdefault(tuple(sorted(joint)), joint)
    return [(m, k) for k, m in sorted(seen.items(), key=lambda kv: kv[1])]


def test_joint_moves_equal_the_sorted_product():
    for g6 in nx.graph_atlas_g()[1:]:
        n = g6.number_of_nodes()
        if n > 5 or not nx.is_connected(g6):
            continue
        g = build_graph(n, list(g6.edges()))
        for size in (1, 2, 3):
            for cops in itertools.combinations_with_replacement(range(n), size):
                assert joint_cop_moves(g, cops) == _product_joint_moves(g, cops)


# --- transitions ------------------------------------------------------------------


def test_cop_turn_capture_on_p2():
    assert play_round(path(2), full_visibility(), (1,), frozenset({1})) == []


def test_cop_turn_no_win_on_k3():
    g = complete(3)
    for _, new in joint_cop_moves(g, (0,)):
        # the omniscient robber dodges one cop
        assert play_round(g, full_visibility(), new, frozenset({1, 2}))


def test_cop_turn_resplits_invisible_block():
    # P_6, k=2, cop at 0 with the hidden block {1,2}: stepping to 1 deletes 1
    # and keeps 2 hidden (the one cop is within distance 2 of it)
    out = sightings(path(6), hyperopic(2), (1,), frozenset({1, 2}))
    assert out == [(None, frozenset({2}))]


def _robber_beliefs(graph, rule, cops, belief):
    return [set(b) for _, b in robber_step(graph, rule, cops, belief)]


def test_robber_turn_examples():
    assert _robber_beliefs(path(3), full_visibility(), (0, 2), {1}) == [{1}]
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    assert _robber_beliefs(star, full_visibility(), (0,), {1}) == [{1}]
    assert _robber_beliefs(cycle(4), full_visibility(), (0, 2), {1}) == [{1}]


def test_robber_turn_staying_always_survives():
    # a candidate vertex is never cop-held, so standing still keeps the
    # robber alive: forced capture is decided on the cops' half-move only
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    out = _robber_beliefs(star, full_visibility(), (0, 2, 3), {1})
    assert out == [{1}]  # pinned: all moves cop-held


def test_robber_turn_expands_neighborhood():
    out = _robber_beliefs(path(5), zero_visibility(), (0,), {2})
    assert out == [{1, 2, 3}]


# --- initial states ----------------------------------------------------------------


def _initial(graph, rule, placement):
    return [set(b) for _, b in sightings(graph, rule, placement, range(graph.n))]


def test_initial_states_examples():
    assert _initial(path(2), full_visibility(), (0,)) == [{1}]
    assert _initial(path(2), full_visibility(), (0, 1)) == []
    assert _initial(t_hat(), hyperopic(2), (0,)) == [set(range(1, 7))]


def test_initial_states_wrong_arity():
    # a move from an initial state must name one target per cop
    g = path(3)
    for move in ((0,), (0, 1, 2)):
        cert = Certificate((0, 2), {((0, 2), 0b10): move}, 1)
        with pytest.raises(AssertionError, match=r"illegal move .* from cops "
                           r"\(0, 2\) with belief \[1\]"):
            check_certificate(g, full_visibility(), cert)


def test_full_visibility_always_singleton_beliefs():
    g = cycle(5)
    rule = full_visibility()
    for _, b0 in sightings(g, rule, (0, 2), range(g.n)):
        assert len(b0) == 1
        for _, new in joint_cop_moves(g, (0, 2)):
            for _, _, b in play_round(g, rule, new, b0):
                assert len(b) == 1


def test_beliefs_never_contain_cops():
    g = t_hat()
    rule = hyperopic(2)
    frontier = [((1, 5), b) for _, b in sightings(g, rule, (1, 5), range(g.n))]
    seen = set()
    for _ in range(200):
        if not frontier:
            break
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        cops, belief = state
        assert belief and not belief & set(cops)
        for _, new in joint_cop_moves(g, cops):
            frontier.extend((new, b) for *_, b in play_round(g, rule, new, belief))


# --- the bitmask engine ---------------------------------------------------------


def _connected_graphs(max_n):
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if n <= max_n and nx.is_connected(g):
            yield build_graph(n, list(g.edges()))


def _check_table_against_the_set_semantics(g, rule, size):
    table = TransitionTable(GameSpec(g, rule, size))

    def blocks(pairs):
        return [b for _, b in pairs]

    for cops in itertools.combinations_with_replacement(range(g.n), size):
        got = [mask_to_set(b) for b in table.initial(cops)]
        assert got == blocks(sightings(g, rule, cops, range(g.n)))
        moves = joint_cop_moves(g, cops)
        rest = [v for v in range(g.n) if v not in cops]
        for r in range(1, len(rest) + 1):
            for belief in itertools.combinations(rest, r):
                belief = frozenset(belief)
                bmask = set_to_mask(belief)
                want = [
                    (move, new, blocks(sightings(g, rule, new, belief)))
                    for move, new in moves
                ]
                got = [
                    (move, new, [mask_to_set(b) for b in out])
                    for move, new, out in table.cop_step(cops, bmask)
                ]
                assert got == want
                # one round: the robber step from each block, in order, is
                # `reply` from the position the move leads to
                want = [
                    (move, new, [b for *_, b in play_round(g, rule, new, belief)])
                    for move, new in moves
                ]
                got = [
                    (move, new, [
                        mask_to_set(b)
                        for b in table.reply(bmask & free, free, vis)
                    ])
                    for move, new in moves
                    for free, vis in [table.masks(new)]
                ]
                assert got == want
                got = [mask_to_set(b) for b in table.robber_step(cops, bmask)]
                assert got == blocks(robber_step(g, rule, cops, belief))


def test_transition_table_matches_the_set_semantics():
    # the cop turn, the robber turn and the round kernel, from every cop
    # tuple of size 1-3 and every belief disjoint from it, on every
    # connected graph with n <= 5 and on three graphs with n = 6
    rules = (full_visibility(), zero_visibility(), hyperopic(1), hyperopic(2),
             hyperopic(3))
    cases = [(g, size) for g in _connected_graphs(5)
             for size in (1, 2, 3) if size <= cop_cap(g.n)]
    cases += [(g, size) for g in (path(6), cycle(6), complete(6))
              for size in (1, 2)]
    for g, size in cases:
        for rule in rules:
            _check_table_against_the_set_semantics(g, rule, size)


def test_a_table_is_blind_exactly_when_k_reaches_the_diameter():
    # cached_solve stores hyperopic(k) with k >= diameter under the
    # zero-visibility key; that is sound only if such a table sees nothing
    # and every table with a smaller k sees something
    for g in _connected_graphs(7):
        diam = diameter(g)
        zero = TransitionTable(GameSpec(g, zero_visibility(), 1))
        for k in range(1, diam + 2):
            table = TransitionTable(GameSpec(g, hyperopic(k), 1))
            assert table.blind == (k >= diam), (g.edges, k)
            assert (effective_rule(g, hyperopic(k)) == zero_visibility()) == (
                k >= diam)
            if table.blind:
                for c in range(g.n):
                    assert table.masks((c,)) == zero.masks((c,)) == (
                        zero.full & ~(1 << c), 0)


def _grown_bit_by_bit(g, mask):
    nbr = g.neighbor_masks()
    return set_to_mask(
        w for v in mask_to_set(mask) for w in mask_to_set(nbr[v])
    )


def _grown_by_tables(g, mask):
    grown = 0
    for j, tab in enumerate(growth_tables(g.neighbor_masks())):
        grown |= tab[(mask >> 4 * j) & 15]
    return grown


def test_growth_tables_on_every_mask_of_small_graphs():
    for g in _connected_graphs(6):
        assert len(growth_tables(g.neighbor_masks())) == (g.n + 3) // 4
        for mask in range(1 << g.n):
            assert _grown_by_tables(g, mask) == _grown_bit_by_bit(g, mask)


@pytest.mark.parametrize("graph", [t_family(3), path(70), path(1)],
                         ids=["t_family3", "path70", "path1"])
def test_growth_tables_on_random_masks(graph):
    rng = random.Random(graph.n)
    top = 1 << (graph.n - 1)
    masks = [0, (1 << graph.n) - 1, top, top | 1]
    masks += [rng.getrandbits(graph.n) for _ in range(300)]
    table = TransitionTable(GameSpec(graph, zero_visibility(), 1))
    for mask in masks:
        want = _grown_bit_by_bit(graph, mask)
        assert _grown_by_tables(graph, mask) == want
        free = [v for v in range(graph.n) if not mask >> v & 1]
        if mask and free:
            # never visible: one block, the growth minus the cop's vertex
            cop = free[0]
            assert table.robber_step((cop,), mask) == [want & ~(1 << cop)]


# --- masks -----------------------------------------------------------------------


def test_mask_helpers_roundtrip():
    assert mask_to_set(set_to_mask([0, 3, 5])) == frozenset({0, 3, 5})
    assert set_to_mask(mask_to_set(0b101101)) == 0b101101
    assert mask_to_set(0) == frozenset()


@given(st.sets(st.integers(min_value=0, max_value=30)))
def test_mask_roundtrip_property(verts):
    assert mask_to_set(set_to_mask(verts)) == frozenset(verts)


def test_cop_tuple_frames_are_kept_per_graph():
    # the orbit of a cop tuple and the growth tables depend on the graph
    # alone: a second table of the same graph, under another rule, reuses
    # the first one's
    g = t_hat()
    first = TransitionTable(GameSpec(g, hyperopic(2), 2))
    pair = g.frame((5, 6))
    assert pair[0] == (1, 2) and pair[1] is not None
    again = TransitionTable(GameSpec(g, zero_visibility(), 2))
    assert g.frame((5, 6)) is pair
    assert first._grow is again._grow is g.growth()
    tables = [row[2] for row in first.frame_rows((0, 1))]
    assert any(tables)
    assert all(a is b for a, b in zip(tables, [
        row[2] for row in again.frame_rows((0, 1))]))
    # an equal graph built separately searches its own orbits and builds
    # its own growth tables
    h = t_hat()
    other = TransitionTable(GameSpec(h, hyperopic(2), 2))
    assert h.frame((5, 6)) == pair and h.frame((5, 6)) is not pair
    assert other._grow == g.growth() and other._grow is not g.growth()
    assert other._grow is h.growth()


@pytest.mark.parametrize("k", [1.5, 2.0, True])
def test_a_hyperopic_distance_must_be_an_int(k):
    with pytest.raises(ValueError, match="needs an int k"):
        hyperopic(k)


@pytest.mark.parametrize("cops", [1.5, 2.0, True])
def test_a_cop_count_must_be_an_int(cops):
    with pytest.raises(ValueError, match="cop count must be an int"):
        GameSpec(cycle(5), hyperopic(1), cops)

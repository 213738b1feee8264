"""Game rules: visibility, observation splitting, and belief transitions.

The set-based functions come from the reference game in ``oracles``; the
package's only engine is the bitmask ``TransitionTable``, checked against
that reference here.
"""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperopic.families import complete, cycle, path, t_family, t_hat
from hyperopic.game import (
    GameSpec,
    TransitionTable,
    VisibilityRule,
    cop_cap,
    full_visibility,
    growth_tables,
    hyperopic,
    joint_cop_moves,
    mask_to_set,
    zero_visibility,
)
from hyperopic.graph import build_graph, diameter
from oracles import (
    COP_WIN,
    BeliefState,
    cop_turn_successors,
    initial_states,
    is_visible,
    observation_split,
    robber_turn_successors,
    set_to_mask,
)


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
    s = BeliefState((3, 1), frozenset({0, 2}))
    assert s.cops == (1, 3)
    with pytest.raises(ValueError):
        BeliefState((0,), frozenset())
    with pytest.raises(ValueError):
        BeliefState((0,), frozenset({0, 1}))


# --- visibility predicate -------------------------------------------------------


def test_is_visible_examples():
    assert not is_visible(hyperopic(2), (1, 2))
    assert is_visible(hyperopic(2), (1, 3))
    assert not is_visible(zero_visibility(), (1, 5))
    assert is_visible(full_visibility(), (4,))
    assert not is_visible(hyperopic(3), (3, 3, 2))
    assert is_visible(hyperopic(3), (4,))


# --- observation splitting -------------------------------------------------------


def test_split_full_visibility():
    g = path(4)
    spec = GameSpec(g, full_visibility(), 1)
    out = observation_split(spec, (0,), frozenset({2, 3}))
    assert sorted((obs.vertex, set(s)) for obs, s in out) == [(2, {2}), (3, {3})]


def test_split_zero_visibility():
    g = path(4)
    spec = GameSpec(g, zero_visibility(), 1)
    out = observation_split(spec, (0,), frozenset({2, 3}))
    assert len(out) == 1
    obs, s = out[0]
    assert not obs.is_visible and set(s) == {2, 3}


def test_split_hyperopic_path():
    # one cop at the end of P_6: the far half is visible, the near block is not
    g = path(6)
    spec = GameSpec(g, hyperopic(2), 1)
    out = observation_split(spec, (0,), frozenset({1, 2, 3, 4, 5}))
    vis = sorted(obs.vertex for obs, s in out if obs.is_visible)
    invis = [set(s) for obs, s in out if not obs.is_visible]
    assert vis == [3, 4, 5]
    assert invis == [{1, 2}]


def test_split_partitions_input():
    g = t_hat()
    spec = GameSpec(g, hyperopic(2), 2)
    cand = frozenset(range(1, 7))
    out = observation_split(spec, (0, 0), cand)
    union = set()
    total = 0
    for _, s in out:
        union |= set(s)
        total += len(s)
    assert union == set(cand) and total == len(cand)


def test_split_rejects_candidate_on_cop():
    g = path(4)
    spec = GameSpec(g, full_visibility(), 1)
    with pytest.raises(ValueError):
        observation_split(spec, (0,), frozenset({0, 1}))


def test_split_all_invisible_when_k_covers_diameter():
    for g in (t_hat(), cycle(5), path(4)):
        k = max(diameter(g), 1)
        spec = GameSpec(g, hyperopic(k), 1)
        out = observation_split(spec, (0,), frozenset(range(1, g.n)))
        assert len(out) == 1 and not out[0][0].is_visible


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
    g = path(2)
    spec = GameSpec(g, full_visibility(), 1)
    succ = dict(cop_turn_successors(spec, BeliefState((0,), frozenset({1}))))
    assert succ[(1,)] is COP_WIN


def test_cop_turn_no_win_on_k3():
    g = complete(3)
    spec = GameSpec(g, full_visibility(), 1)
    state = BeliefState((0,), frozenset({1, 2}))
    for move, outcome in cop_turn_successors(spec, state):
        assert outcome is not COP_WIN  # the omniscient robber dodges one cop


def test_cop_turn_resplits_invisible_block():
    # P_6, k=2, cop at 0 with the hidden block {1,2}: stepping to 1 deletes 1
    # and keeps 2 hidden (the one cop is within distance 2 of it)
    g = path(6)
    spec = GameSpec(g, hyperopic(2), 1)
    state = BeliefState((0,), frozenset({1, 2}))
    succ = dict(cop_turn_successors(spec, state))
    branches = succ[(1,)]
    assert branches is not COP_WIN
    assert [(b.cops, set(b.belief)) for b in branches] == [((1,), {2})]


def test_robber_turn_examples():
    g = path(3)
    spec = GameSpec(g, full_visibility(), 2)
    out = robber_turn_successors(spec, (0, 2), frozenset({1}))
    assert [set(b.belief) for b in out] == [{1}]

    star = build_graph(5, [(0, i) for i in range(1, 5)])
    spec = GameSpec(star, full_visibility(), 1)
    out = robber_turn_successors(spec, (0,), frozenset({1}))
    assert [set(b.belief) for b in out] == [{1}]

    c4 = cycle(4)
    spec = GameSpec(c4, full_visibility(), 2)
    out = robber_turn_successors(spec, (0, 2), frozenset({1}))
    assert [set(b.belief) for b in out] == [{1}]


def test_robber_turn_staying_always_survives():
    # a candidate vertex is never cop-held, so standing still keeps the
    # robber alive: forced capture is decided on the cops' half-move only
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    spec3 = GameSpec(star, full_visibility(), 3)
    out = robber_turn_successors(spec3, (0, 2, 3), frozenset({1}))
    assert out is not COP_WIN
    assert [set(b.belief) for b in out] == [{1}]  # pinned: all moves cop-held


def test_robber_turn_expands_neighborhood():
    g = path(5)
    spec = GameSpec(g, zero_visibility(), 1)
    out = robber_turn_successors(spec, (0,), frozenset({2}))
    assert len(out) == 1
    assert set(out[0].belief) == {1, 2, 3}


# --- initial states ----------------------------------------------------------------


def test_initial_states_examples():
    g = path(2)
    spec = GameSpec(g, full_visibility(), 1)
    states = initial_states(spec, (0,))
    assert [set(s.belief) for s in states] == [{1}]

    spec2 = GameSpec(g, full_visibility(), 2)
    assert initial_states(spec2, (0, 1)) is COP_WIN

    spider = t_hat()
    spec3 = GameSpec(spider, hyperopic(2), 1)
    states = initial_states(spec3, (0,))
    assert len(states) == 1
    assert set(states[0].belief) == set(range(1, 7))


def test_initial_states_wrong_arity():
    g = path(3)
    spec = GameSpec(g, full_visibility(), 2)
    with pytest.raises(ValueError):
        initial_states(spec, (0,))


def test_full_visibility_always_singleton_beliefs():
    g = cycle(5)
    spec = GameSpec(g, full_visibility(), 2)
    for st0 in initial_states(spec, (0, 2)):
        assert len(st0.belief) == 1
        for move, outcome in cop_turn_successors(spec, st0):
            if outcome is COP_WIN:
                continue
            for mid in outcome:
                assert len(mid.belief) == 1
                nxt = robber_turn_successors(spec, mid.cops, mid.belief)
                if nxt is not COP_WIN:
                    for b in nxt:
                        assert len(b.belief) == 1


def test_beliefs_never_contain_cops():
    g = t_hat()
    spec = GameSpec(g, hyperopic(2), 2)
    frontier = list(initial_states(spec, (1, 5)))
    seen = set()
    for _ in range(200):
        if not frontier:
            break
        state = frontier.pop()
        key = (state.cops, state.belief)
        if key in seen:
            continue
        seen.add(key)
        assert not state.belief & set(state.cops)
        for _, outcome in cop_turn_successors(spec, state):
            if outcome is COP_WIN:
                continue
            for mid in outcome:
                assert not mid.belief & set(mid.cops)
                nxt = robber_turn_successors(spec, mid.cops, mid.belief)
                if nxt is not COP_WIN:
                    frontier.extend(nxt)


# --- the bitmask engine ---------------------------------------------------------


def _connected_graphs(max_n):
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if n <= max_n and nx.is_connected(g):
            yield build_graph(n, list(g.edges()))


def _blocks(states):
    return [(s.cops, s.belief) for s in states]


def _check_table_against_the_set_semantics(g, rule, size):
    table = TransitionTable(GameSpec(g, rule, size))
    spec = table.spec
    robber_turns = {}  # (cops, block) -> the oracle's robber turn

    def robber_turn(cops, block):
        key = (cops, block)
        if key not in robber_turns:
            robber_turns[key] = robber_turn_successors(spec, cops, block)
        return robber_turns[key]

    for cops in itertools.combinations_with_replacement(range(g.n), size):
        init = initial_states(spec, cops)
        got = [(cops, mask_to_set(b)) for b in table.initial(cops)]
        assert got == ([] if init is COP_WIN else _blocks(init))
        moves = joint_cop_moves(g, cops)
        rest = [v for v in range(g.n) if v not in cops]
        for r in range(1, len(rest) + 1):
            for belief in itertools.combinations(rest, r):
                bmask = set_to_mask(belief)
                turns = cop_turn_successors(spec, BeliefState(cops, belief))
                want = [
                    (move, [] if out is COP_WIN else _blocks(out))
                    for move, out in turns
                ]
                got = [
                    (move, [(new, mask_to_set(b)) for b in blocks])
                    for move, new, blocks in table.cop_step(cops, bmask)
                ]
                assert got == want
                # one round: the robber turn from each block, in order, is
                # `reply` from the position the move leads to
                want = [
                    (move, new, [
                        s.belief
                        for block in ([] if out is COP_WIN else out)
                        for s in robber_turn(new, block.belief)
                    ])
                    for (move, new), (_, out) in zip(moves, turns)
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
                out = robber_turn(cops, frozenset(belief))
                got = [(cops, mask_to_set(b))
                       for b in table.robber_step(cops, bmask)]
                assert got == ([] if out is COP_WIN else _blocks(out))


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
    # the orbit of a cop tuple depends on the graph alone: a second table
    # of the same graph, under another rule, reuses the first one's frames
    g = t_hat()
    first = TransitionTable(GameSpec(g, hyperopic(2), 2))
    pair = first.frame((5, 6))
    assert pair[0] == (1, 2) and pair[1] is not None
    again = TransitionTable(GameSpec(g, zero_visibility(), 2))
    assert again.frame((5, 6)) is pair
    # an equal graph built separately searches its own orbits
    other = TransitionTable(GameSpec(t_hat(), hyperopic(2), 2))
    assert other.frame((5, 6)) == pair and other.frame((5, 6)) is not pair

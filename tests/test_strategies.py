"""Tests for hand-crafted cop strategies and the policy verifier."""

import collections
import dataclasses
import hashlib
import random

import networkx as nx
import pytest

import oracles
from hyperopic.families import (
    all_trees,
    all_two_connected_outerplanar,
    complete,
    complete_bipartite,
    cycle,
    g_k,
    path,
    t_hat,
    tree_diam10,
)
from hyperopic.formats import decode_graph6, encode_graph6
from hyperopic import solver
from hyperopic.game import GameSpec, TransitionTable, hyperopic, zero_visibility
from hyperopic.graph import Graph, build_graph, diameter, maximum_matching
from hyperopic.solver import solve
from hyperopic.strategies import (
    CopPolicy,
    Evaded,
    Timeout,
    Win,
    certificate_policy,
    matching_policy,
    outerplanar_k2_policy,
    pendant_path_policy,
    stationary_pair_policy,
    tree_k2_policy,
    tree_near_diam_policy,
    verify_policy,
)


def spider(*legs):
    """A tree: one hub with the given leg lengths hanging off it."""
    edges, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev = n
            n += 1
    return Graph(n, edges)


def sweep_policy(n):
    """One cop walking a path graph left to right."""

    def step(state, cops, bmask):
        return (min(cops[0] + 1, n - 1),), None

    return CopPolicy("sweep", (0,), None, step)


def camper_policy(v):
    """One cop that never moves."""

    def step(state, cops, bmask):
        return cops, None

    return CopPolicy("camper", (v,), None, step)


# ---------------------------------------------------------------------------
# the verifier itself, on hand-built policies


def test_sweep_clears_a_path():
    out = verify_policy(path(6), hyperopic(2), sweep_policy(6))
    assert out == Win(rounds=5)


def test_camper_is_evaded_on_a_cycle():
    out = verify_policy(cycle(4), hyperopic(1), camper_policy(0))
    assert isinstance(out, Evaded)
    # the witness is a loop of (cops, belief) situations
    assert out.witness[0] == out.witness[-1]
    assert len(out.witness) >= 2
    for cops, belief in out.witness:
        assert cops == (0,)
        assert belief and not belief & set(cops)


def test_tiny_node_cap_times_out():
    out = verify_policy(path(6), hyperopic(2), sweep_policy(6), node_cap=2)
    assert isinstance(out, Timeout)
    assert out.nodes > 2


def test_teleporting_policy_is_rejected():
    def step(state, cops, bmask):
        return (5,), None  # not adjacent to 0

    pol = CopPolicy("teleport", (0,), None, step)
    with pytest.raises(ValueError, match="illegal move"):
        verify_policy(path(6), hyperopic(2), pol)


def test_wrong_move_arity_is_rejected():
    def step(state, cops, bmask):
        return (1,), None

    pol = CopPolicy("stubby", (0, 2), None, step)
    with pytest.raises(ValueError, match="wrong arity"):
        verify_policy(path(6), hyperopic(2), pol)


def test_out_of_range_placement_is_rejected():
    pol = CopPolicy("lost", (9,), None, lambda s, c, b: (c, s))
    with pytest.raises(ValueError, match="out of range"):
        verify_policy(path(6), hyperopic(2), pol)


def test_absurd_cop_count_is_rejected():
    for placement in [(0,) * 7, ()]:
        pol = CopPolicy("horde", placement, None, lambda s, c, b: (c, s))
        with pytest.raises(ValueError, match="cop count must be in"):
            verify_policy(path(6), hyperopic(2), pol)


# ---------------------------------------------------------------------------
# oscillating cops on a maximum matching (blind capture)


def test_matching_policy_cop_counts():
    assert matching_policy(path(4)).num_cops == 2
    assert matching_policy(cycle(5)).num_cops == 3
    assert matching_policy(complete(5)).num_cops == 3


def test_matching_policy_wins_blind():
    for g, rounds in [
        (complete(4), 1),
        (path(4), 1),
        (cycle(5), 1),
        (complete(5), 1),
        (complete_bipartite(1, 4), 4),
        (path(7), 1),
    ]:
        out = verify_policy(g, zero_visibility(), matching_policy(g))
        assert out == Win(rounds=rounds), g.edges


def test_matching_policy_cops_stay_on_their_edges():
    # each matched cop alternates across its own matching edge, every round
    g = complete_bipartite(1, 4)
    medges = sorted(maximum_matching(g).edges)

    def check(state, cops, belief, seen):
        for i, (x, y) in enumerate(medges):
            assert cops[i] in (x, y)
        assert not belief & set(cops)

    oracles.walk_policy(g, zero_visibility(), matching_policy(g), check)


def test_matching_policy_bound_over_small_graphs():
    import networkx as nx

    for g6 in nx.graph_atlas_g():
        n = g6.number_of_nodes()
        if not 2 <= n <= 6 or not nx.is_connected(g6):
            continue
        relabel = {v: i for i, v in enumerate(sorted(g6.nodes()))}
        g = Graph(n, sorted((relabel[a], relabel[b]) for a, b in g6.edges()))
        pol = matching_policy(g)
        nu = len(maximum_matching(g).edges)
        assert pol.num_cops == nu + (1 if 2 * nu < n else 0)
        assert pol.num_cops <= (n + 1) // 2
        assert isinstance(verify_policy(g, zero_visibility(), pol), Win)


# ---------------------------------------------------------------------------
# two cops on any tree, blindness radius 2


def test_tree_k2_frozen_examples():
    out = verify_policy(t_hat(), hyperopic(2), tree_k2_policy(t_hat()))
    assert out == Win(rounds=3)
    out = verify_policy(path(8), hyperopic(2), tree_k2_policy(path(8)))
    assert out == Win(rounds=6)


def test_tree_k2_requires_tree():
    with pytest.raises(ValueError, match="requires a tree"):
        tree_k2_policy(cycle(4))


def test_tree_k2_wins_on_every_small_tree():
    for n in range(1, 11):
        for tree in all_trees(n):
            pol = tree_k2_policy(tree)
            assert pol.num_cops == 2
            out = verify_policy(tree, hyperopic(2), pol)
            assert isinstance(out, Win), tree.edges
            assert out.rounds <= 4 * tree.n


def test_tree_k2_runs_every_maneuver_on_relabelled_trees():
    # on the enumerator's labels commit only ever loops onto the post's
    # side; relabelled, the walker also bounces and the pair advances
    rng = random.Random(1)
    committed = set()
    for n in range(1, 9):
        for tree in all_trees(n):
            perm = list(range(n))
            rng.shuffle(perm)
            g = Graph(n, [(perm[u], perm[v]) for u, v in tree.edges])
            policy = tree_k2_policy(g)
            stepped, calls = _recording(policy)
            assert isinstance(verify_policy(g, hyperopic(2), stepped), Win), g.edges
            for state, cops, bmask in calls:
                _, after = policy.step(state, cops, bmask)
                if state[0] != "script" and after[0] == "script":
                    # the steps committed, and whether a suspect was stomped
                    _, rest, (_, stomped) = after
                    committed.add((1 + len(rest), bool(stomped)))
    # a walker bounce, an advance and a post-side loop
    assert committed == {(2, True), (2, False), (4, True)}


# ---------------------------------------------------------------------------
# parked cop on a pendant path


def test_pendant_path_frozen_examples():
    out = verify_policy(path(10), hyperopic(4), pendant_path_policy(path(10), 4))
    assert out == Win(rounds=6)
    sp = spider(3, 3, 3)
    out = verify_policy(sp, hyperopic(4), pendant_path_policy(sp, 4))
    assert out == Win(rounds=6)


def test_pendant_path_preconditions():
    with pytest.raises(ValueError, match="requires a tree"):
        pendant_path_policy(cycle(5), 2)
    with pytest.raises(ValueError, match="k >= 2"):
        pendant_path_policy(path(5), 1)
    with pytest.raises(ValueError, match="no pendant path"):
        pendant_path_policy(t_hat(), 5)


# ---------------------------------------------------------------------------
# parked diametral pair


def test_stationary_pair_on_trees():
    out = verify_policy(path(12), hyperopic(2), stationary_pair_policy(path(12), 2))
    assert out == Win(rounds=9)
    big = tree_diam10()
    pol = stationary_pair_policy(big, 4)
    assert pol.num_cops == 2
    assert verify_policy(big, hyperopic(4), pol) == Win(rounds=11)


def test_stationary_pair_on_general_graph():
    pol = stationary_pair_policy(cycle(12), 2)
    assert pol.num_cops == 4
    assert verify_policy(cycle(12), hyperopic(2), pol) == Win(rounds=3)


def test_stationary_pair_solves_each_full_visibility_level_once(monkeypatch):
    # on cycle(8) the level search settles 1 cop (a robber win) and 2 cops;
    # the policy's certificate is then the remembered 2-cop solve
    built = collections.Counter()
    init = TransitionTable.__init__

    def counted(self, spec):
        built[spec.num_cops] += 1
        init(self, spec)

    solver._solve.cache_clear()
    monkeypatch.setattr(TransitionTable, "__init__", counted)
    pol = stationary_pair_policy(cycle(8), 1)
    assert pol.num_cops == 4
    assert built == {1: 1, 2: 1}


def test_stationary_pair_diameter_precondition():
    with pytest.raises(
        ValueError, match=r"diameter 4 too small: need >= 5 \(or >= 3 on a tree\)"
    ):
        stationary_pair_policy(cycle(9), 2)
    for k in (0, -3):
        with pytest.raises(ValueError, match="requires k >= 1"):
            stationary_pair_policy(t_hat(), k)


def test_stationary_general_keeps_robber_visible():
    # parked on a diametral pair with diam >= 2k+1, the robber can never be
    # within k of both cops at once, so every observation is a sighting
    pol = stationary_pair_policy(cycle(12), 2)

    def check(state, cops, belief, seen):
        assert None not in seen

    oracles.walk_policy(cycle(12), hyperopic(2), pol, check)


def test_stationary_pair_wins_on_long_trees():
    for n in range(6, 10):
        for tree in all_trees(n):
            if diameter(tree) < 5:
                continue
            pol = stationary_pair_policy(tree, 3)
            assert pol.num_cops == 2
            assert isinstance(verify_policy(tree, hyperopic(3), pol), Win), tree.edges


# ---------------------------------------------------------------------------
# three cops on near-diameter trees


def test_near_diam_frozen_examples():
    pol = tree_near_diam_policy(t_hat(), 3)
    assert pol.num_cops == 3
    assert verify_policy(t_hat(), hyperopic(3), pol) == Win(rounds=6)
    sp = spider(3, 3, 3)
    out = verify_policy(sp, hyperopic(4), tree_near_diam_policy(sp, 4))
    assert out == Win(rounds=7)


def test_near_diam_preconditions():
    with pytest.raises(ValueError, match="requires a tree"):
        tree_near_diam_policy(cycle(5), 3)
    with pytest.raises(ValueError, match=r"diameter 4 outside \[5, 6\]"):
        tree_near_diam_policy(path(5), 4)
    # three cops need three vertices; the diameter window alone admits
    # path(1) at k = 1 and path(2) at k = 2
    for n, k in ((1, 1), (2, 1), (2, 2)):
        with pytest.raises(ValueError, match="requires at least 3 vertices"):
            tree_near_diam_policy(path(n), k)


def test_near_diam_wins_on_qualifying_trees():
    for n in range(4, 10):
        for tree in all_trees(n):
            if not 3 <= diameter(tree) <= 4:
                continue
            pol = tree_near_diam_policy(tree, 3)
            assert pol.num_cops == 3
            assert isinstance(verify_policy(tree, hyperopic(3), pol), Win), tree.edges


# ---------------------------------------------------------------------------
# two cops on 2-connected outerplanar graphs, blindness radius 2


def test_outerplanar_frozen_examples():
    out = verify_policy(cycle(8), hyperopic(2), outerplanar_k2_policy(cycle(8)))
    assert out == Win(rounds=6)
    fan = Graph(9, [(i, i + 1) for i in range(8)] + [(8, 0)]
                + [(0, i) for i in range(2, 8)])
    out = verify_policy(fan, hyperopic(2), outerplanar_k2_policy(fan))
    assert out == Win(rounds=8)
    c6c = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    out = verify_policy(c6c, hyperopic(2), outerplanar_k2_policy(c6c))
    assert out == Win(rounds=5)


def test_outerplanar_preconditions():
    with pytest.raises(ValueError, match="2-connected outerplanar"):
        outerplanar_k2_policy(complete(4))
    with pytest.raises(ValueError, match="2-connected outerplanar"):
        outerplanar_k2_policy(path(5))


def test_outerplanar_wins_on_whole_small_corpus():
    for n in range(4, 8):
        for g in all_two_connected_outerplanar(n):
            pol = outerplanar_k2_policy(g)
            assert pol.num_cops == 2
            out = verify_policy(g, hyperopic(2), pol)
            assert isinstance(out, Win), g.edges
            assert out.rounds <= 6 * g.n


@pytest.mark.parametrize("g6", ["G?{{eO", "Hgc?M{d"])
def test_outerplanar_loses_on_some_relabellings(g6):
    # relabelled copies of audited graphs, which 2 cops win: the policy
    # holds a front around a one-vertex territory, the robber keeps away,
    # and the verifier reports the loop
    g = decode_graph6(g6)
    out = verify_policy(g, hyperopic(2), outerplanar_k2_policy(g), node_cap=100_000)
    assert isinstance(out, Evaded)
    assert out.witness[0] == out.witness[-1]
    assert solve(GameSpec(g, hyperopic(2), 2)).status == "cop_win"


def test_outerplanar_verdicts_on_the_relabelled_corpus():
    # the README's corpus: for each seed one generator shuffles the labels
    # of every 2-connected outerplanar graph, n = 4..10 in order; the
    # evasions are the labellings that reach a one-vertex territory
    wins, evaded = 0, []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for n in range(4, 11):
            for g in all_two_connected_outerplanar(n):
                perm = list(range(n))
                rng.shuffle(perm)
                h = Graph(n, [(perm[a], perm[b]) for a, b in g.edges])
                out = verify_policy(h, hyperopic(2), outerplanar_k2_policy(h))
                if isinstance(out, Win):
                    wins += 1
                else:
                    assert isinstance(out, Evaded), (encode_graph6(h), out)
                    evaded.append(encode_graph6(h))
    assert (wins, len(evaded)) == (4432, 32)
    digest = hashlib.sha256("\n".join(sorted(evaded)).encode()).hexdigest()
    assert digest == (
        "fab2d7d60c6c8af0912bd7c12fb09854bf09874e65fd7270240eac1a4bf94b02"
    )


# ---------------------------------------------------------------------------
# agreement with the exact solver


def test_policy_wins_imply_solver_wins():
    cases = [
        (t_hat(), hyperopic(2), tree_k2_policy(t_hat())),
        (cycle(8), hyperopic(2), outerplanar_k2_policy(cycle(8))),
        (complete(4), zero_visibility(), matching_policy(complete(4))),
    ]
    for g, rule, pol in cases:
        assert isinstance(verify_policy(g, rule, pol), Win)
        res = solve(GameSpec(g, rule, pol.num_cops))
        assert res.status == "cop_win"


# ---------------------------------------------------------------------------
# agreement with the set-based reference game


def _recording(policy):
    """The policy, plus the set of (state, cops, bmask) its step is given."""
    calls = set()

    def step(state, cops, bmask):
        calls.add((state, tuple(cops), bmask))
        return policy.step(state, cops, bmask)

    return dataclasses.replace(policy, step=step), calls


def _reference_corpus():
    trees = [t for n in range(1, 9) for t in all_trees(n)]
    for t in trees:
        yield t, hyperopic(2), lambda t=t: tree_k2_policy(t)
    for n in range(3, 8):
        for g in all_two_connected_outerplanar(n):
            yield g, hyperopic(2), lambda g=g: outerplanar_k2_policy(g)
    for g6 in nx.graph_atlas_g()[1:]:
        n = g6.number_of_nodes()
        if n <= 5 and nx.is_connected(g6):
            g = build_graph(n, list(g6.edges()))
            yield g, zero_visibility(), lambda g=g: matching_policy(g)
    for k in (3, 4):
        for t in trees:
            for make in (pendant_path_policy, stationary_pair_policy,
                         tree_near_diam_policy):
                yield t, hyperopic(k), lambda t=t, k=k, make=make: make(t, k)
    for g, rule in [(t_hat(), hyperopic(2)), (g_k(3, 1), hyperopic(1))]:
        cert = solve(GameSpec(g, rule, 2)).certificate
        yield g, rule, lambda g=g, rule=rule, cert=cert: certificate_policy(
            g, rule, cert)


def test_verifier_matches_the_set_based_reference():
    # every node the verifier hands a policy is one the reference game
    # reaches, and back; the worst-case rounds agree with Win.rounds
    checked = collections.Counter()
    for g, rule, make in _reference_corpus():
        try:
            policy = make()
        except ValueError:
            continue  # the policy's precondition does not hold here
        stepped, by_verifier = _recording(policy)
        out = verify_policy(g, rule, stepped)
        assert isinstance(out, Win), (policy.name, g.edges)
        stepped, by_reference = _recording(policy)
        rounds = oracles.walk_policy(g, rule, stepped)
        assert by_verifier == by_reference, (policy.name, g.edges)
        assert rounds == out.rounds, (policy.name, g.edges)
        checked[policy.name] += 1
    assert checked == {
        "tree2": 48, "outerplanar": 35, "matching": 31, "pendant": 50,
        "neardiam": 39, "stationary": 16, "certificate": 2,
    }


# ---------------------------------------------------------------------------
# per-node behaviour of the scripted policies, pinned


def _canon(x):
    """A text form of a policy value that does not depend on the iteration
    order of its sets (a frozenset iterates in insertion order)."""
    if isinstance(x, (set, frozenset)):
        return "{" + ", ".join(sorted(_canon(v) for v in x)) + "}"
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(_canon(v) for v in x) + ")"
    return repr(x)


def _verified_steps(make, graphs, text, rule=hyperopic(2)):
    """Each step the verifier hands make(g) under rule, per graph, as
    f"{g6} {text(state, cops, bmask, out)}", and each graph's f"{g6} {rounds}"."""
    lines, rounds = [], []
    for g in graphs:
        policy = make(g)
        g6 = encode_graph6(g)

        def step(state, cops, bmask, inner=policy.step):
            out = inner(state, cops, bmask)
            lines.append(f"{g6} {text(state, cops, bmask, out)}")
            return out

        out = verify_policy(g, rule, dataclasses.replace(policy, step=step))
        assert isinstance(out, Win), g.edges
        rounds.append(f"{g6} {out.rounds}")
    return lines, rounds


def _digest(lines):
    """The line count and the sha256 of the sorted lines."""
    text = "\n".join(sorted(lines))
    return len(lines), hashlib.sha256(text.encode()).hexdigest()


def _step_digest(make, graphs):
    """The digest of every (state, cops, bmask) -> (moves, next state) the
    verifier hands make(g)."""
    lines, _ = _verified_steps(
        make, graphs,
        lambda state, cops, bmask, out: f"{_canon((state, cops, bmask))} -> {_canon(out)}",
    )
    return _digest(lines)


def _outerplanar_graphs():
    return [g for n in range(3, 10) for g in all_two_connected_outerplanar(n)]


def test_outerplanar_steps_are_pinned():
    assert _step_digest(outerplanar_k2_policy, _outerplanar_graphs()) == (
        8929, "2c459edbe5332ad240dfb377941a83383c16bea5159e0e14e6d40458225fbfd1"
    )


def test_outerplanar_moves_and_rounds_are_pinned():
    # what the policy does, whatever its states hold: each graph's rounds
    # and every cops, belief -> moves the verifier asks of it
    lines, rounds = _verified_steps(
        outerplanar_k2_policy, _outerplanar_graphs(),
        lambda state, cops, bmask, out: f"{_canon(cops)} {bmask} -> {_canon(out[0])}",
    )
    assert _digest(lines + rounds) == (
        9301, "c429bbaa21b45278be1b3bc293706c88d1ee15b4469f449d542ffd91d13f3974"
    )


def test_tree2_steps_are_pinned():
    trees = [t for n in range(1, 11) for t in all_trees(n)]
    assert _step_digest(tree_k2_policy, trees) == (
        6345, "8998bdb58fdf30612e731886ff6ceca34d8d34bdc38d913958c834c29059b644"
    )


def _moves_and_rounds(make, graphs, rule=hyperopic(2)):
    """Each graph's rounds and every cops, belief -> moves the verifier
    asks of make(g), as lines, whatever the policy's states hold."""
    lines, rounds = _verified_steps(
        make, graphs,
        lambda state, cops, bmask, out: f"{_canon(cops)} {bmask} -> {_canon(out[0])}",
        rule,
    )
    return lines + rounds


def test_tree2_moves_and_rounds_are_pinned():
    trees = [t for n in range(1, 11) for t in all_trees(n)]
    assert _digest(_moves_and_rounds(tree_k2_policy, trees)) == (
        6546, "842c7cdeac2256d9e3dfa5fb048b68c060bb0a3fe9bb2f85d5749ce4d74f2950"
    )


def _applies(make, tree, k):
    try:
        make(tree, k)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("make, pinned", [
    (stationary_pair_policy,
     (3066, "161314d69270dae2c8955cc551157bf2f379a744bdcbf167fefeb516b3a831e7")),
    (tree_near_diam_policy,
     (2605, "5953d8bd87c87843ba624300ac12c450e5926a2a321b21c581375ce92c4dbcae")),
    (pendant_path_policy,
     (4130, "199d9cedbd73525e689a2242e4bc7f3df0ab2de6718e5e4561b737ec86b0f931")),
])
def test_tree_lemma_moves_and_rounds_are_pinned(make, pinned):
    # per k, the trees on at most 10 vertices whose precondition holds
    lines = []
    for k in (3, 4):
        trees = [t for n in range(1, 11) for t in all_trees(n) if _applies(make, t, k)]
        steps = _moves_and_rounds(lambda t, k=k: make(t, k), trees, hyperopic(k))
        lines += [f"k={k} {line}" for line in steps]
    assert _digest(lines) == pinned

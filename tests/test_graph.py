"""Graph substrate: metrics, matchings, automorphisms, 2-connectivity,
embeddings, retractions."""

import gc
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperopic import graph
from hyperopic.families import (
    all_trees,
    all_two_connected_outerplanar,
    complete,
    complete_bipartite,
    cycle,
    g_k,
    path,
    t_family,
    t_hat,
    tree_diam10,
)
from hyperopic.graph import (
    _blossom_matching,
    _check_tutte_berge,
    build_graph,
    diameter,
    eccentricities,
    find_outer_embedding,
    is_caterpillar,
    is_tree,
    maximum_matching,
    radius,
    verify_retraction,
)


def atlas_connected(n):
    """All connected graphs on exactly n vertices, one per isomorphism
    class, as (n, edges) pairs (vertices relabeled to 0..n-1)."""
    out = []
    for g in nx.graph_atlas_g()[1:]:
        if g.number_of_nodes() != n or not nx.is_connected(g):
            continue
        relabel = {v: i for i, v in enumerate(sorted(g.nodes()))}
        out.append((n, [(relabel[u], relabel[v]) for u, v in g.edges()]))
    return out


# --- construction -----------------------------------------------------------


def test_path_metric():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.distances()[0][2] == 2
    assert g.distances()[0][0] == 0


def test_disconnected_rejected():
    with pytest.raises(ValueError):
        build_graph(4, [(0, 1), (2, 3)])


def test_has_edge_is_membership_in_the_edge_list():
    # every ordered pair, u == v included, of every connected graph on at
    # most 7 vertices
    graphs = 0
    for n in range(1, 8):
        for nn, edges in atlas_connected(n):
            g = build_graph(nn, edges)
            eset = set(g.edges)
            for u, v in itertools.product(range(nn), repeat=2):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in eset)
            graphs += 1
    assert graphs == 996


def test_loops_and_bad_ids_rejected():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1), (1, 3)])


def test_triangle_and_duplicate_edges():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2), (2, 0)])
    assert diameter(g) == 1
    assert len(g.edges) == 3


@st.composite
def connected_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for v in range(1, n):
        edges.append((draw(st.integers(min_value=0, max_value=v - 1)), v))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in set(edges)]
    extra = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return n, edges + extra


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_distances_match_networkx(ne):
    n, edges = ne
    g = build_graph(n, edges)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    ref = dict(nx.all_pairs_shortest_path_length(h))
    dist = g.distances()
    for u in range(n):
        for v in range(n):
            assert dist[u][v] == ref[u][v]
            assert dist[u][v] == dist[v][u]
            assert (dist[u][v] == 1) == ((min(u, v), max(u, v)) in set(g.edges))
    for u, v, w in itertools.product(range(n), repeat=3):
        assert dist[u][w] <= dist[u][v] + dist[v][w]


# --- metrics ----------------------------------------------------------------


def test_metrics_spider():
    g = t_hat()
    assert diameter(g) == 4
    assert radius(g) == 2
    assert eccentricities(g) == (2, 3, 4, 3, 4, 3, 4)


def test_metrics_complete_and_path():
    k5 = complete(5)
    assert (diameter(k5), radius(k5)) == (1, 1)
    assert eccentricities(k5) == (1,) * 5
    p7 = path(7)
    assert (diameter(p7), radius(p7)) == (6, 3)
    assert eccentricities(p7) == (6, 5, 4, 3, 4, 5, 6)


def test_eccentricities_consistent():
    g = cycle(6)
    ecc = eccentricities(g)
    assert list(ecc) == [3] * 6


# --- caterpillar recognition ------------------------------------------------


def test_caterpillar_examples():
    assert is_caterpillar(path(5))
    assert not is_caterpillar(t_hat())
    star = build_graph(6, [(0, i) for i in range(1, 6)])
    assert is_caterpillar(star)
    assert not is_caterpillar(cycle(4))


@pytest.mark.parametrize("n", range(1, 11))
def test_caterpillar_matches_oracle_and_spider_freeness(n):
    for t in all_trees(n):
        got = is_caterpillar(t)
        assert got == oracles.is_caterpillar_oracle(t.n, t.edges)
        # a tree is a caterpillar exactly when no vertex has three
        # branches of depth two or more
        assert got == (not oracles.contains_deep_spider(t.n, t.edges))


# --- matchings --------------------------------------------------------------


def test_matching_examples():
    m = maximum_matching(path(4))
    assert m.size == 2 and m.is_perfect
    m = maximum_matching(cycle(5))
    assert m.size == 2 and not m.is_perfect
    m = maximum_matching(complete_bipartite(3, 3))
    assert m.size == 3 and m.is_perfect


def _assert_valid_matching(g, m):
    seen = set()
    eset = {tuple(sorted(e)) for e in g.edges}
    for u, v in m.edges:
        assert tuple(sorted((u, v))) in eset
        assert u not in seen and v not in seen
        seen.update((u, v))


@pytest.mark.parametrize("n", range(1, 13))
def test_matching_exact_on_trees(n):
    for t in all_trees(n):
        m = maximum_matching(t)
        _assert_valid_matching(t, m)
        assert m.size == oracles.brute_force_matching_size(t.n, t.edges)


@pytest.mark.parametrize("n", range(2, 7))
def test_matching_exact_on_small_connected_graphs(n):
    for nn, edges in atlas_connected(n):
        g = build_graph(nn, edges)
        m = maximum_matching(g)
        _assert_valid_matching(g, m)
        assert m.size == oracles.brute_force_matching_size(nn, edges)


def _nx_matching(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    raw = nx.max_weight_matching(h, maxcardinality=True)
    return tuple(sorted((min(u, v), max(u, v)) for u, v in raw))


def _random_connected(rng, n, p):
    """A random spanning tree plus each other pair with probability p."""
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [(u, v) for u, v in itertools.combinations(range(n), 2)
              if rng.random() < p]
    return build_graph(n, edges)


def _odd_cycles_joined_by_paths(lengths, joint):
    """Cycles of the given odd lengths in a row, each joined to the next by
    a path of `joint` edges."""
    edges, at, prev = [], 0, None
    for length in lengths:
        ring = list(range(at, at + length))
        edges += zip(ring, ring[1:] + ring[:1])
        at += length
        if prev is not None:
            chain = [prev] + list(range(at, at + joint - 1)) + [ring[0]]
            edges += zip(chain, chain[1:])
            at += joint - 1
        prev = ring[length // 2]
    return build_graph(at, edges)


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_matching_is_the_networkx_matching_on_the_atlas():
    # the matching-bound rows pin these edge sets, not just their size
    from hyperopic._atlas import CONNECTED
    from hyperopic.formats import decode_graph6

    graphs = [decode_graph6(s) for s in CONNECTED]
    assert len(graphs) == 996
    for g in graphs:
        assert maximum_matching(g).edges == _nx_matching(g), g.edges


@pytest.mark.parametrize("p", [0.05, 0.15, 0.4])
def test_matching_is_the_networkx_matching_on_random_graphs(p):
    rng = random.Random(f"matching-{p}")
    for _ in range(150):
        g = _random_connected(rng, rng.randint(2, 40), p)
        assert maximum_matching(g).edges == _nx_matching(g), g.edges


def test_matching_is_the_networkx_matching_on_blossom_heavy_graphs():
    h = nx.petersen_graph()
    graphs = [build_graph(10, h.edges())]
    for lengths in ((5, 5), (3, 5, 7), (7, 3, 3, 5), (9, 5, 3, 3, 7)):
        for joint in (1, 2, 3):
            graphs.append(_odd_cycles_joined_by_paths(lengths, joint))
    rng = random.Random(7)
    graphs += [_relabelled(g, rng) for g in graphs for _ in range(5)]
    for g in graphs:
        m = maximum_matching(g)
        assert m.edges == _nx_matching(g), g.edges
    assert maximum_matching(graphs[0]).is_perfect


def test_the_tutte_berge_check_rejects_a_matching_short_of_maximum():
    g = _odd_cycles_joined_by_paths((5, 3, 7), 2)
    edges, barrier = _blossom_matching(g)
    _check_tutte_berge(g, edges, barrier)
    assert len(edges) == g.n // 2
    for i in range(len(edges)):
        with pytest.raises(AssertionError, match="Tutte-Berge"):
            _check_tutte_berge(g, edges[:i] + edges[i + 1:], barrier)
    # a barrier that certifies nothing, and edge sets that are no matching
    with pytest.raises(AssertionError, match="Tutte-Berge"):
        _check_tutte_berge(g, edges, (0, 1))
    with pytest.raises(AssertionError, match="not a matching"):
        _check_tutte_berge(g, edges[1:] + ((0, 2),), barrier)
    u, v = edges[0]
    w = next(x for x in g.adj[u] if x != v)
    with pytest.raises(AssertionError, match="not a matching"):
        _check_tutte_berge(g, edges + ((min(u, w), max(u, w)),), barrier)


# --- automorphisms ----------------------------------------------------------


def _check_generators(g):
    for p in g.automorphisms():
        assert sorted(p) == list(range(g.n))
        assert {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == set(g.edges)


def group_order(g):
    """Order of the group the generators generate, by enumerating it."""
    ident = tuple(range(g.n))
    seen, frontier = {ident}, [ident]
    for p in frontier:
        for q in g.automorphisms():
            r = tuple(q[v] for v in p)
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return len(seen)


def test_automorphisms_generate_the_whole_group_on_small_graphs():
    # VF2 takes minutes beyond this scope; the search itself takes well
    # under a second on every connected graph with n <= 7 and tree n <= 10
    graphs = [
        build_graph(nn, edges)
        for n in range(1, 7) for nn, edges in atlas_connected(n)
    ]
    graphs += [t for n in range(1, 9) for t in all_trees(n)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            assert g.automorphisms() is g.automorphisms()
        assert gc.collect() == 0
    finally:
        gc.enable()
    trivial = 0
    for g in graphs:
        _check_generators(g)
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.n))
        vf2 = nx.algorithms.isomorphism.GraphMatcher(h, h)
        assert group_order(g) == sum(1 for _ in vf2.isomorphisms_iter()), g.edges
        trivial += not g.automorphisms()
    assert (len(graphs), trivial) == (191, 12)


@pytest.mark.parametrize(
    "graph, order",
    [
        pytest.param(g_k(3, 2), 1296, id="g_k(3,2)"),
        pytest.param(tree_diam10(), 1296, id="tree_diam10"),
        pytest.param(t_family(3), 1296, id="t_family(3)"),
        pytest.param(complete(8), 40320, id="complete(8)"),
    ]
    + [pytest.param(cycle(n), 2 * n, id=f"cycle({n})") for n in range(3, 9)],
)
def test_pinned_automorphism_group_orders(graph, order):
    _check_generators(graph)
    assert group_order(graph) == order


# --- 2-connectivity ---------------------------------------------------------


def test_two_connected():
    def two_connected(g):
        return oracles.is_two_connected_oracle(g.n, g.edges)

    assert two_connected(cycle(4))
    assert two_connected(complete(4))
    assert not two_connected(path(3))
    bowtie = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert not two_connected(bowtie)


# --- retraction checking ----------------------------------------------------


def test_retraction_identity():
    g = t_hat()
    assert verify_retraction(g, set(range(g.n)), {v: v for v in range(g.n)})


def test_retraction_tree_branch_fold():
    # fold the leg 5-6 of the spider onto its attachment at the hub
    g = t_hat()
    h = {0, 1, 2, 3, 4}
    f = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 0, 6: 0}
    assert verify_retraction(g, h, f)


def test_retraction_cycle_onto_subpath_folds():
    # an odd cycle folds onto an induced subpath once edges may collapse
    c5 = cycle(5)
    h = {0, 1, 2}
    found = [
        dict({0: 0, 1: 1, 2: 2, 3: a, 4: b})
        for a, b in itertools.product(range(3), repeat=2)
        if verify_retraction(c5, h, {0: 0, 1: 1, 2: 2, 3: a, 4: b})
    ]
    assert {tuple(sorted(f.items())) for f in found} == {
        ((0, 0), (1, 1), (2, 2), (3, 1), (4, 0)),
        ((0, 0), (1, 1), (2, 2), (3, 1), (4, 1)),
        ((0, 0), (1, 1), (2, 2), (3, 2), (4, 1)),
    }


def test_retraction_exhaustively_impossible_case():
    # C_6 plus an apex joined to an antipodal pair: the apex image must be
    # in N[0] and N[3] at once, which is empty, so no candidate works
    g = build_graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(6, 0), (6, 3)])
    h = set(range(6))
    base = {v: v for v in range(6)}
    assert all(
        not verify_retraction(g, h, {**base, 6: img}) for img in range(6)
    )


def test_retraction_rejects_bad_maps():
    g = path(4)
    assert not verify_retraction(g, {0, 1}, {0: 0, 1: 1, 2: 3, 3: 3})  # escapes H
    assert not verify_retraction(g, {0, 1}, {0: 1, 1: 1, 2: 1, 3: 1})  # moves H
    assert not verify_retraction(g, {0, 1}, {0: 0, 1: 1, 2: 0})  # missing vertex
    c4 = cycle(4)
    assert not verify_retraction(c4, {0, 2}, {0: 0, 1: 0, 2: 2, 3: 0})  # edge 1-2 -> (0,2) not an edge


# --- outerplanar embedding recovery -----------------------------------------


def _ring(cycle):
    n = len(cycle)
    return {tuple(sorted((cycle[i], cycle[(i + 1) % n]))) for i in range(n)}


def test_embedding_cycle():
    emb = find_outer_embedding(cycle(6))
    assert emb is not None
    assert sorted(emb) == list(range(6))
    assert _ring(emb) == set(cycle(6).edges)


def _check_embedding(g, emb):
    # the chords are the edges off the outer cycle
    assert sorted(emb) == list(range(g.n))
    eset = set(g.edges)
    ring = _ring(emb)
    assert ring <= eset
    chordset = eset - ring
    pos = {v: i for i, v in enumerate(emb)}
    arcs = sorted(
        tuple(sorted((pos[u], pos[v]))) for u, v in chordset
    )
    for (a, b), (c, d) in itertools.combinations(arcs, 2):
        assert not ((a < c < b < d) or (c < a < d < b))


def test_embedding_fan():
    g = build_graph(6, [(i, i + 1) for i in range(4)] + [(5, i) for i in range(5)])
    emb = find_outer_embedding(g)
    assert emb is not None
    _check_embedding(g, emb)


def test_embedding_search_leaves_no_reference_cycles():
    graphs = all_two_connected_outerplanar(8)
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            assert find_outer_embedding(g) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_embedding_absent_for_k4():
    assert find_outer_embedding(complete(4)) is None


def test_embedding_search_skips_graphs_with_too_many_edges(monkeypatch):
    # an outerplanar graph on n >= 2 vertices has at most 2n - 3 edges, so
    # a denser one is refused before any Hamiltonian cycle is tried
    calls = []
    real = graph._closed_embedding
    monkeypatch.setattr(
        graph, "_closed_embedding", lambda *a: calls.append(a) or real(*a)
    )
    assert find_outer_embedding(complete(8)) is None
    assert calls == []
    # at the edge bound itself the search still runs and finds the fan
    fan = build_graph(5, [(0, v) for v in range(1, 5)] + [(1, 2), (2, 3), (3, 4)])
    assert len(fan.edges) == 2 * fan.n - 3
    assert find_outer_embedding(fan) is not None and calls


@pytest.mark.parametrize("n", range(3, 8))
def test_embedding_presence_matches_oracle(n):
    # for n >= 3, a Hamiltonian outer cycle with non-crossing chords exists
    # exactly when the graph is 2-connected and outerplanar
    for nn, edges in atlas_connected(n):
        g = build_graph(nn, edges)
        expected = oracles.is_two_connected_oracle(nn, edges) and oracles.is_outerplanar_oracle(nn, edges)
        emb = find_outer_embedding(g)
        assert (emb is not None) == expected, (nn, edges)
        if emb is not None:
            _check_embedding(g, emb)


def test_embedding_agreement_under_orderings():
    import random

    rng = random.Random(7)
    cases = [
        cycle(7),
        complete(4),
        build_graph(6, [(i, i + 1) for i in range(4)] + [(5, i) for i in range(5)]),
        complete_bipartite(2, 3),
        build_graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2), (2, 5)]),
    ]
    for g in cases:
        base = find_outer_embedding(g)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            alt = find_outer_embedding(h)
            assert (alt is None) == (base is None)
            if alt is not None:
                _check_embedding(h, alt)


def test_is_tree_flag():
    assert is_tree(path(6))
    assert not is_tree(cycle(5))

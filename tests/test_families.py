"""Graph family generators and exhaustive enumerators."""

import hashlib

import networkx as nx
import pytest

import oracles
from hyperopic.cli import main
from hyperopic.families import (
    all_trees,
    all_two_connected_outerplanar,
    caterpillar,
    complete,
    complete_bipartite,
    cycle,
    g_k,
    path,
    subdivide,
    t_family,
    t_hat,
    tree_diam10,
)
from hyperopic.formats import encode_graph6
from hyperopic.graph import (
    build_graph,
    diameter,
    is_caterpillar,
    is_tree,
    radius,
)

FROZEN_TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551,
}
FROZEN_OUTERPLANAR_COUNTS = {3: 1, 4: 2, 5: 3, 6: 9, 7: 20, 8: 75, 9: 262, 10: 1117}
# sha256 prefix of the corpus as graph6 lines, in enumeration order
FROZEN_OUTERPLANAR_DIGESTS = {
    3: "4a469b3ce3caaad4", 4: "ef0691ee2826d7ea", 5: "a40f40bbb46b14a1",
    6: "db99a73d4a64ea88", 7: "63c228ed5830790b", 8: "1ac006d211cae4cb",
    9: "3766e8bd8a9535f8", 10: "c02501db7f5311a0",
}


# --- basic families ----------------------------------------------------------


def test_simple_families():
    assert path(1).n == 1
    assert diameter(path(6)) == 5
    assert diameter(cycle(8)) == 4
    assert diameter(complete(5)) == 1
    kb = complete_bipartite(2, 3)
    assert kb.n == 5 and len(kb.edges) == 6 and diameter(kb) == 2
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)


def test_caterpillar_generator():
    g = caterpillar([2, 0, 1])
    assert g.n == 6 and is_caterpillar(g)
    assert is_caterpillar(caterpillar([0]))
    assert not is_caterpillar(t_hat())
    with pytest.raises(ValueError, match="leaf counts"):
        caterpillar([-2, 1])


def test_spider():
    g = t_hat()
    assert g.n == 7 and is_tree(g)
    assert diameter(g) == 4 and radius(g) == 2
    assert sorted(g.degree(v) for v in range(7)) == [1, 1, 1, 2, 2, 2, 3]


def test_gk_structure():
    g = g_k(3, 1)
    assert g.n == 12 and diameter(g) == 3
    # one 9-clique of three groups, three pendants each tied to one group
    pendants = [v for v in range(g.n) if g.degree(v) == 3]
    assert len(pendants) == 3
    clique = [v for v in range(g.n) if v not in pendants]
    for u in clique:
        for v in clique:
            if u != v:
                assert g.distances()[u][v] == 1
    with pytest.raises(ValueError):
        g_k(2, 1)
    with pytest.raises(ValueError):
        g_k(3, 0)


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gk_diameter_and_size(m, k):
    g = g_k(m, k)
    assert g.n == 3 * m + 3 * k
    assert diameter(g) == 2 * k + 1


def test_t_family_counts_and_diameters():
    sizes = []
    diams = []
    for m in (1, 2, 3):
        g = t_family(m)
        assert is_tree(g)
        sizes.append(g.n)
        diams.append(diameter(g))
    assert sizes == [1, 7, 25]  # |T_m| = 3|T_{m-1}| + 4
    assert diams == [0, 4, 8]
    # the 7-vertex member is the deep spider
    assert nx.is_isomorphic(_nx(t_family(2)), _nx(t_hat()))
    with pytest.raises(ValueError):
        t_family(0)


def test_t_family_eccentric_mode():
    hub = t_family(3, attach="hub")
    ecc = t_family(3, attach="eccentric")
    assert hub.n == ecc.n == 25
    assert diameter(ecc) >= diameter(hub)


def test_tree_diam10():
    g = tree_diam10()
    assert g.n == 34 and is_tree(g)
    assert diameter(g) == 10


def test_subdivide():
    g = subdivide(cycle(3), 1)
    assert g.n == 6 and diameter(g) == 3  # C_3 with each edge subdivided once = C_6
    h = subdivide(t_hat(), 2)  # 6 edges, 2 internal vertices each
    assert h.n == 7 + 12 and is_tree(h)
    assert diameter(h) == 3 * diameter(t_hat())


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


# --- the CLI's family table -------------------------------------------------


def test_generate_dispatch(capsys):
    # `gen` applies each family's constructor to its flags
    cases = [
        (["path", "--n", "4"], path(4)),
        (["cycle", "--n", "5"], cycle(5)),
        (["complete", "--n", "4"], complete(4)),
        (["bipartite", "--m", "2", "--n", "3"], complete_bipartite(2, 3)),
        (["caterpillar", "--leaves", "2,0,1"], caterpillar([2, 0, 1])),
        (["that"], t_hat()),
        (["gk", "--m", "3", "--k", "2"], g_k(3, 2)),
        (["tfamily", "--m", "2"], t_family(2)),
        (["tfamily", "--m", "3", "--attach", "eccentric"],
         t_family(3, attach="eccentric")),
        (["tree-diam10"], tree_diam10()),
        (["cycle", "--n", "3", "--subdivide", "1"], subdivide(cycle(3), 1)),
    ]
    for argv, graph in cases:
        assert main(["gen", "--family", *argv]) == 0, argv
        assert capsys.readouterr().out == encode_graph6(graph) + "\n", argv


def test_generate_deterministic():
    a, b = g_k(4, 2), g_k(4, 2)
    assert a.n == b.n and a.edges == b.edges
    assert subdivide(t_hat(), 2).edges == subdivide(t_hat(), 2).edges


# --- tree enumeration ---------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_all_trees_counts_and_validity(n):
    ts = all_trees(n)
    assert len(ts) == FROZEN_TREE_COUNTS[n]
    assert len(ts) == len(oracles.leaf_extension_trees(n))
    forms = set()
    for t in ts:
        assert t.n == n and is_tree(t)
        forms.add(oracles._tree_canon(t.n, t.edges))
    assert len(forms) == len(ts)  # pairwise non-isomorphic


@pytest.mark.parametrize("n", range(1, 13))
def test_all_trees_complete_vs_leaf_extension_oracle(n):
    ours = {oracles._tree_canon(t.n, t.edges) for t in all_trees(n)}
    assert ours == set(oracles.leaf_extension_trees(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_all_trees_complete_vs_prufer_oracle(n):
    ours = {oracles._tree_canon(t.n, t.edges) for t in all_trees(n)}
    assert ours == oracles.prufer_tree_canon_set(n)


def test_all_trees_are_networkx_nonisomorphic_trees_in_order():
    # the audit rows pin the labelled trees and their order, which
    # all_trees takes from networkx's WROM generator
    ours = [t.edges for n in range(1, 13) for t in all_trees(n)]
    theirs = [
        tuple(sorted(tuple(sorted(e)) for e in t.edges()))
        for n in range(1, 13)
        for t in nx.nonisomorphic_trees(n)
    ]
    assert len(ours) == 987
    assert ours == theirs


def test_all_trees_range():
    with pytest.raises(ValueError):
        all_trees(0)
    with pytest.raises(ValueError):
        all_trees(13)


# --- 2-connected outerplanar enumeration --------------------------------------


@pytest.mark.parametrize("n", range(3, 11))
def test_outerplanar_corpus_counts(n):
    gs = all_two_connected_outerplanar(n)
    assert len(gs) == FROZEN_OUTERPLANAR_COUNTS[n]
    assert len(gs) == oracles.dihedral_chord_orbit_count(n)
    for g in gs:
        assert g.n == n
        assert oracles.is_two_connected_oracle(g.n, g.edges)
        assert oracles.is_outerplanar_oracle(g.n, g.edges)


@pytest.mark.parametrize("n", range(3, 11))
def test_outerplanar_corpus_order_and_labels_are_pinned(n):
    lines = "\n".join(encode_graph6(g) for g in all_two_connected_outerplanar(n))
    digest = hashlib.sha256(lines.encode()).hexdigest()[:16]
    assert digest == FROZEN_OUTERPLANAR_DIGESTS[n]


@pytest.mark.parametrize("n", range(3, 8))
def test_outerplanar_corpus_complete_vs_atlas(n):
    # every connected atlas graph that is 2-connected outerplanar appears in
    # the corpus exactly once, up to isomorphism
    corpus = [_nx(g) for g in all_two_connected_outerplanar(n)]
    wanted = []
    for g in nx.graph_atlas_g()[1:]:
        if g.number_of_nodes() != n or not nx.is_connected(g):
            continue
        edges = list(g.edges())
        nn = g.number_of_nodes()
        relabel = {v: i for i, v in enumerate(sorted(g.nodes()))}
        edges = [(relabel[u], relabel[v]) for u, v in edges]
        if oracles.is_two_connected_oracle(nn, edges) and oracles.is_outerplanar_oracle(nn, edges):
            wanted.append(nx.Graph(edges))
    assert len(wanted) == len(corpus)
    for w in wanted:
        assert sum(1 for c in corpus if nx.is_isomorphic(w, c)) == 1

"""Text formats: graph6 codec and edge-list round trips."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperopic.families import complete, cycle, path, t_hat
from hyperopic.formats import (
    _encode_n,
    decode_graph6,
    emit_edge_list,
    encode_graph6,
    parse_edge_list,
)
from hyperopic.graph import build_graph


def nx_graph6(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def test_known_strings():
    assert encode_graph6(path(5)) == nx_graph6(path(5))
    assert encode_graph6(complete(7)) == "F~~~w"
    assert encode_graph6(path(2)) == "A_"
    assert encode_graph6(cycle(4)) == "Cl"


def test_header_variants():
    # decoding accepts the optional header that other tools write
    s = ">>graph6<<" + encode_graph6(t_hat())
    g = decode_graph6(s)
    assert sorted(g.edges) == sorted(t_hat().edges)
    assert sorted(decode_graph6(s.removeprefix(">>graph6<<")).edges) == sorted(
        t_hat().edges
    )


@st.composite
def connected_graphs(draw, max_n=20):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for v in range(1, n):
        edges.append((draw(st.integers(min_value=0, max_value=v - 1)), v))
    pool = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in set(edges)
    ]
    extra = (
        draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
        if pool
        else []
    )
    return n, edges + extra


@given(connected_graphs())
@settings(max_examples=80, deadline=None)
def test_graph6_roundtrip_and_networkx_agreement(ne):
    n, edges = ne
    g = build_graph(n, edges)
    s = encode_graph6(g)
    assert s == nx_graph6(g)
    back = decode_graph6(s)
    assert back.n == n
    assert sorted(back.edges) == sorted(g.edges)


def test_decode_networkx_emitted_strings():
    for base in (cycle(9), complete(6), t_hat(), path(13)):
        s = nx_graph6(base)
        g = decode_graph6(s)
        assert g.n == base.n and sorted(g.edges) == sorted(base.edges)


def test_large_graphs_use_the_long_size_headers():
    # n >= 63 writes "~" and three size characters, n > 258047 "~~" and six
    for base in (path(63), path(100), cycle(300)):
        s = encode_graph6(base)
        assert s == nx_graph6(base) and s.startswith("~") and s[1] != "~"
        g = decode_graph6(s)
        assert g.n == base.n and sorted(g.edges) == sorted(base.edges)
    assert _encode_n(258047) == "~}~~"
    assert _encode_n(258048) == "~~???~??"
    for s in ("~??", "~~???"):
        with pytest.raises(ValueError, match="truncated graph6 size"):
            decode_graph6(s)


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode_graph6("")
    with pytest.raises(ValueError):
        decode_graph6("D\x19C")  # byte below the printable graph6 range
    with pytest.raises(ValueError):
        decode_graph6("D")  # truncated edge bits
    # trailing characters: the body must have exactly ceil(n(n-1)/2 / 6)
    # characters, and networkx rejects these strings too
    for s in ("BwAAAA", "Bw?", "A_?", "@?", "F~~~w?"):
        with pytest.raises(nx.NetworkXError):
            nx.from_graph6_bytes(s.encode())
        with pytest.raises(ValueError, match="needs"):
            decode_graph6(s)


def test_decode_rejects_disconnected():
    h = nx.Graph()
    h.add_edges_from([(0, 1), (2, 3)])
    s = nx.to_graph6_bytes(h, header=False).decode().strip()
    with pytest.raises(ValueError):
        decode_graph6(s)


def test_edge_list_roundtrip():
    g = t_hat()
    text = emit_edge_list(g)
    back = parse_edge_list(text)
    assert back.n == g.n and sorted(back.edges) == sorted(g.edges)


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# spider\n\n0 1\n1 2\n 0 3 \n")
    assert g.n == 4 and sorted(g.edges) == [(0, 1), (0, 3), (1, 2)]


def test_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("0 x\n")
    with pytest.raises(ValueError):
        parse_edge_list("-1 0\n")
    with pytest.raises(ValueError):
        parse_edge_list("# nothing\n")
    with pytest.raises(ValueError):
        parse_edge_list("0 1\n2 3\n")  # disconnected

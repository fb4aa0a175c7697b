import networkx as nx
import pytest
from hypothesis import given, settings

from conftest import labeled_trees, small_graphs
from prdom import (
    GRAPH6_MAX_N,
    Graph,
    ParseError,
    SizeLimitError,
    emit_graph6,
    enumerate_free_trees,
    make_path,
    parse_graph6,
)
from prdom.graph6 import graph6_length


def _nx_encode(g: Graph) -> bytes:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, nodes=sorted(h), header=False).strip()


def test_single_vertex():
    # '@' is chr(1 + 63): one vertex, no edge bytes
    g = parse_graph6(b"@")
    assert g.n == 1 and g.m == 0
    assert emit_graph6(g) == b"@"


def test_bw_is_the_triangle():
    # 'B' gives n=3 and 'w' = 56 = 111000, so all three upper-triangle
    # bits are set: the triangle, not a path
    g = parse_graph6(b"Bw")
    assert g.n == 3
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]
    assert _nx_encode(g) == b"Bw"


def test_three_vertex_path_encodings():
    # bits run (0,1), (0,2), (1,2); the path 0-1-2 sets the first and last
    assert emit_graph6(make_path(3)) == b"Bg"
    assert parse_graph6(b"Bg") == make_path(3)
    # the two other labelings of the same path
    assert parse_graph6(b"BW") == Graph(3, [(0, 2), (1, 2)])
    assert parse_graph6(b"Bo") == Graph(3, [(0, 1), (0, 2)])


def test_round_trip_all_small_trees_and_networkx_agreement():
    for n in range(1, 9):
        for t in enumerate_free_trees(n):
            enc = emit_graph6(t)
            assert parse_graph6(enc) == t
            assert enc == _nx_encode(t)
            assert sorted(nx.from_graph6_bytes(enc).edges()) == t.edges()


def test_large_size_field():
    g = make_path(70)
    enc = emit_graph6(g)
    assert enc[0] == 126  # '~' long-size marker
    assert parse_graph6(enc) == g
    assert enc == _nx_encode(g)


def test_graph6_length_counts_the_encoded_bytes():
    # across the switch from a one-byte to a four-byte size field at n = 63
    for n in range(131):
        assert graph6_length(n) == len(emit_graph6(Graph(n, [])))


def test_emit_past_the_size_cap_is_a_size_limit():
    # SizeLimitError is a ValueError, so callers that caught ValueError still do
    with pytest.raises(SizeLimitError, match=f"n={GRAPH6_MAX_N}"):
        emit_graph6(Graph(GRAPH6_MAX_N + 1, []))


@pytest.mark.parametrize(
    "data",
    [
        b"",                  # empty
        b"B",                 # payload too short for n=3
        b"Bww",               # payload too long
        b"B\x1f\x1f",         # bytes below 63
        b"~B",                # truncated long size
        b"B" + bytes([127]),  # byte above 126
    ],
)
def test_parse_errors(data):
    with pytest.raises(ParseError):
        parse_graph6(data)


def test_non_ascii_text_rejected_with_offset():
    # 'é' used to be replaced by '?', a valid byte, giving an edgeless graph
    with pytest.raises(ParseError, match="offset 1"):
        parse_graph6("Bé")
    with pytest.raises(ParseError, match="non-ASCII"):
        parse_graph6("Bg\u00a0")


def test_nonzero_padding_rejected():
    # n=2 uses one edge bit and five padding bits per byte
    assert parse_graph6(b"A?").m == 0          # 000000: no edge
    assert parse_graph6(b"A_").m == 1          # 100000: the single edge
    with pytest.raises(ParseError):
        parse_graph6(b"AO")                    # 010000: padding bit set


@given(labeled_trees(max_n=50))
@settings(max_examples=200, deadline=None)
def test_round_trip_random_trees(t):
    assert parse_graph6(emit_graph6(t)) == t


@given(small_graphs(max_n=12))
@settings(max_examples=200, deadline=None)
def test_round_trip_graphs_with_cycles(g):
    assert parse_graph6(emit_graph6(g)) == g


def test_round_trip_thousand_seeded_trees():
    import random

    from prdom import random_labeled_tree

    rng = random.Random(1729)
    for _ in range(1000):
        t = random_labeled_tree(rng.randint(1, 50), rng)
        assert parse_graph6(emit_graph6(t)) == t

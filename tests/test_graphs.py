import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import label_walk
from conftest import NOT_TREES, labeled_forests, labeled_trees, small_graphs
import prdom
import prdom.solver
from prdom import (
    Forest,
    Graph,
    ParseError,
    SizeLimitError,
    Tree,
    delete_vertices,
    diameter,
    emit_edge_list,
    enumerate_free_trees,
    forced_zero_set,
    longest_path,
    make_double_star,
    make_path,
    make_spider,
    make_star,
    optimal_assignment,
    parse_edge_list,
    prd_number,
    remove_vertex,
    tree_from_prufer,
)
from prdom.graphs import EDGE_LIST_MAX_N, _bfs_distances, rooted_order


def test_parse_edge_list_p3():
    g = parse_edge_list(b"3\n0 1\n1 2")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.degree(1) == 2


def test_parse_edge_list_k1():
    g = parse_edge_list(b"1")
    assert g.n == 1 and g.m == 0


def test_parse_edge_list_star_matches_constructor():
    g = parse_edge_list(b"4\n0 1\n0 2\n0 3")
    assert g == make_star(3)


@pytest.mark.parametrize(
    "text, line",
    [
        ("3\n0 5", 2),          # label out of range
        ("3\n0 1\n0 1", 3),     # duplicate edge
        ("3\n1 0\n0 1", 3),     # duplicate, reversed
        ("3\n2 2", 2),          # self-loop
        ("3\n0 1 2", 2),        # malformed line
        ("3\nx y", 2),          # non-integer
        ("3\n0 1\n+1 2", 3),   # signed
        ("3\n0 \u0661", 2),     # non-ASCII digit
        ("zz", 1),              # bad count
        ("1_0", 1),             # digit separator
    ],
)
def test_parse_edge_list_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text)
    assert exc.value.line == line


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("3\n0 1\n1 0\n", "line 3: duplicate edge '1 0'"),
        ("3\n0 1\n1 0\n0 1\n", "line 3: duplicate edge '1 0'"),
        # repeats are found after the last line, so a later fault is named
        ("6\n0 1\n0 1\n1 2\n3 9\n", "line 5: label outside 0..5 in '3 9'"),
        # of several repeated edges, the least one is named
        ("4\n2 3\n0 1\n3 2\n1 0\n", "line 5: duplicate edge '1 0'"),
    ],
)
def test_parse_edge_list_names_the_second_line_of_the_least_repeat(text, message):
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


def test_parse_edge_list_names_a_repeat_on_the_last_of_many_lines():
    # the lines are split again only to find the repeat; its line number holds
    n = 100_000
    lines = [str(n)] + [f"{i} {i + 1}" for i in range(n - 1)] + [f"{n - 1} {n - 2}"]
    for text in ("\n".join(lines), "\r\n".join(lines) + "\r\n"):
        with pytest.raises(ParseError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == f"line {n + 1}: duplicate edge '{n - 1} {n - 2}'"


@given(small_graphs(max_n=6), st.data())
@settings(max_examples=200)
def test_parse_edge_list_refuses_exactly_what_graph_refuses(g, data):
    # inject repeats of existing edges, then pairs that may be loops, out of
    # range or repeats; each line in either orientation, in any order
    edges = g.edges()
    if edges:
        edges += data.draw(st.lists(st.sampled_from(edges), max_size=2))
    label = st.integers(-1, g.n)
    edges += data.draw(st.lists(st.tuples(label, label), max_size=2))
    edges = [e[::-1] if data.draw(st.booleans()) else e for e in data.draw(st.permutations(edges))]
    text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    try:
        expected = Graph(g.n, edges)
    except ValueError:
        expected = None
    if expected is None:
        with pytest.raises(ParseError):
            parse_edge_list(text)
    else:
        assert parse_edge_list(text) == expected


def test_parse_edge_list_rejects_undecodable_bytes():
    with pytest.raises(ParseError) as exc:
        parse_edge_list(b"3\n0 1\n1 \xff2\n")
    assert "byte 0xff at offset 8" in str(exc.value)


@pytest.mark.parametrize("n", [EDGE_LIST_MAX_N + 1, 100_000_000_000])
def test_parse_edge_list_caps_the_vertex_count(n):
    # the count is rejected before any per-vertex list is allocated
    with pytest.raises(SizeLimitError, match=f"capped at n={EDGE_LIST_MAX_N}, got {n}"):
        parse_edge_list(f"{n}\n")


def test_size_limit_error_is_one_class():
    assert prdom.SizeLimitError is prdom.solver.SizeLimitError is SizeLimitError


def test_edge_list_round_trip():
    t = make_double_star(2, 3)
    assert parse_edge_list(emit_edge_list(t)) == t


@given(labeled_forests(), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_edge_list_round_trip_of_forests(f, rng):
    assert parse_edge_list(emit_edge_list(f)) == f
    # edges in any order and orientation give the same sorted adjacency
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in f.edges()]
    rng.shuffle(edges)
    text = f"{f.n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    assert parse_edge_list(text) == f


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_tree_rejects_cycles_and_disconnection():
    with pytest.raises(ValueError):
        Tree(Graph(3, [(0, 1), (1, 2), (2, 0)]))
    with pytest.raises(ValueError):
        Tree(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        Tree(Graph(0, []))


def test_constructors():
    ds = make_double_star(2, 2)
    assert ds.n == 6
    assert ds.degree(0) == 3 and ds.degree(1) == 3
    assert make_path(3).edges() == [(0, 1), (1, 2)]
    star = make_star(3)
    assert star.degree(0) == 3
    spider = make_spider([2, 2, 2])
    assert spider.n == 7 and spider.degree(0) == 3
    assert make_spider([]).n == 1
    with pytest.raises(ValueError):
        make_path(0)
    with pytest.raises(ValueError):
        make_star(0)
    with pytest.raises(ValueError):
        make_double_star(0, 1)
    with pytest.raises(ValueError):
        make_spider([0])


def test_longest_path_and_diameter():
    assert diameter(make_path(6)) == 5
    assert longest_path(make_path(6)) == [0, 1, 2, 3, 4, 5]
    assert diameter(make_path(1)) == 0
    assert longest_path(make_path(1)) == [0]
    assert diameter(make_double_star(2, 2)) == 3
    # lowest start label, then lexicographically smallest continuation
    spider = make_spider([2, 2, 2])
    assert longest_path(spider) == [2, 1, 0, 3, 4]


def test_diameter_matches_networkx_on_all_small_trees():
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            assert diameter(t) == nx.diameter(nx.from_dict_of_lists(dict(enumerate(t.adjacency))))


def test_distances_and_periphery_among_isolated_vertices():
    # the path 0-1-2-3 and isolated 4, 5: every further root counts from 0
    adj = [(1,), (0, 2), (1, 3), (2,), (), ()]
    assert _bfs_distances(adj, 0) == [0, 1, 2, 3, 0, 0]
    assert _bfs_distances(adj, 2) == [2, 1, 0, 1, 0, 0]
    # isolated 0 and 5 around the spider 2-1-3-4, 3-6-7 (centre 3)
    adj = [(), (2, 3), (1,), (1, 4, 6), (3,), (), (3, 7), (6,)]
    assert _bfs_distances(adj, 0) == [0, 0, 1, 1, 2, 0, 2, 3]
    assert _bfs_distances(adj, 7) == [0, 3, 4, 2, 3, 0, 1, 0]
    # two components with edges: the second counts from its own root 4
    assert _bfs_distances([(1,), (0, 2), (1,), (), (5,), (4,)], 0) == [0, 1, 2, 0, 0, 1]


def _smallest_diameter_path(t):
    """The lexicographically smallest vertex sequence of a longest path,
    over every pair of vertices at the diameter's distance."""
    g = nx.from_dict_of_lists(dict(enumerate(t.adjacency)))
    paths = [p for u in range(t.n) for p in nx.single_source_shortest_path(g, u).values()]
    longest = max(map(len, paths))
    return min(p for p in paths if len(p) == longest)


def test_longest_path_is_the_smallest_diameter_path():
    rng = random.Random(5)
    for n in range(1, 11):
        for t in enumerate_free_trees(n):
            assert longest_path(t) == _smallest_diameter_path(t)
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = Tree(Graph(n, [(perm[u], perm[v]) for u, v in t.edges()]))
            assert longest_path(shuffled) == _smallest_diameter_path(shuffled)


def test_longest_path_realizes_diameter():
    for t in (make_star(4), make_double_star(3, 1), make_spider([1, 2, 3])):
        path = longest_path(t)
        assert len(path) == diameter(t) + 1
        for u, v in zip(path, path[1:]):
            assert v in t.adjacency[u]
        assert len(set(path)) == len(path)


def test_remove_vertex_middle_of_path():
    f = remove_vertex(make_path(6), 3)
    assert f.n == 5 and f.ncomponents == 2
    assert sorted(t.n for t, _ in f.component_trees()) == [2, 3]


def test_remove_vertex_star_center():
    f = remove_vertex(make_star(3), 0)
    assert f.ncomponents == 3
    assert all(t.n == 1 for t, _ in f.component_trees())


def test_remove_vertex_leaf_of_path():
    f = remove_vertex(make_path(6), 0)
    assert f.ncomponents == 1
    tree, labels = f.component_trees()[0]
    assert tree == make_path(5)
    assert labels == (0, 1, 2, 3, 4)


def test_remove_vertex_k1_gives_empty_forest():
    f = remove_vertex(make_path(1), 0)
    assert f.n == 0 and f.ncomponents == 0


@pytest.mark.parametrize("v", [-1, 3])
def test_remove_vertex_rejects_a_vertex_outside_the_tree(v):
    with pytest.raises(ValueError, match=rf"^vertex {v} outside 0\.\.2$"):
        remove_vertex(make_path(3), v)


def test_forest_rejects_cycles():
    with pytest.raises(ValueError):
        Forest(Graph(3, [(0, 1), (1, 2), (2, 0)]))


@given(labeled_trees(min_n=2, max_n=30))
@settings(max_examples=100)
def test_remove_vertex_components_partition_the_rest(t):
    for v in range(0, t.n, max(1, t.n // 3)):
        f = remove_vertex(t, v)
        assert f.n == t.n - 1
        parts = f.component_trees()
        assert sum(tree.n for tree, _ in parts) == t.n - 1
        internal = t.degree(v) if t.n > 1 else 0
        assert f.ncomponents == internal


def test_rooted_order_of_the_empty_graph():
    assert rooted_order(()) == ([], [])


def _smallest_in_component(n, edges):
    """smallest[v] is the least vertex of v's component, by union-find."""
    smallest = list(range(n))

    def find(v):
        while smallest[v] != v:
            v = smallest[v]
        return v

    for u, v in edges:
        a, b = find(u), find(v)
        smallest[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


@given(labeled_forests(), st.data())
@settings(max_examples=150)
def test_rooted_order_walks_every_component(f, data):
    picks = data.draw(st.lists(st.integers(0, f.n - 1), max_size=4)) if f.n else []
    order, parent = rooted_order(f.adjacency, picks)
    assert sorted(order) == list(range(f.n))
    # parent holds positions: each component fills the positions from its
    # root to the next root, each parent comes first, and each vertex's
    # children fill consecutive positions in ascending label order
    root = 0
    for i, p in enumerate(parent):
        if p < 0:
            root = i
        else:
            assert order[p] in f.adjacency[order[i]]
            assert root <= p < i
    children = [i for i, p in enumerate(parent) if p >= 0]
    assert [parent[i] for i in children] == sorted(parent[i] for i in children)
    for i, j in zip(children, children[1:]):
        if parent[i] == parent[j]:
            assert j == i + 1 and order[i] < order[j]
    # the order of the label walk it replaced, with the same parents
    label_order, label_parent = label_walk.rooted_order(f.adjacency, picks)
    assert label_order == order
    assert [label_parent[v] for v in order] == [order[p] if p >= 0 else -1 for p in parent]
    roots = [v for v, p in zip(order, parent) if p < 0]
    smallest = _smallest_in_component(f.n, f.edges())
    # each pick roots its component unless an earlier pick already did
    expected = []
    for v in picks:
        if all(smallest[r] != smallest[v] for r in expected):
            expected.append(v)
    expected += sorted(set(smallest) - {smallest[r] for r in expected})
    assert roots == expected


def _per_vertex_components(g):
    """The component ids and first cyclic component by the per-vertex loop
    ``Forest`` ran on every input before it checked by counting edges."""
    adj = g.adjacency
    order, parent = label_walk.rooted_order(adj)
    comp = [0] * g.n
    roots, surplus = [], []
    for v in order:
        p = parent[v]
        if p < 0:
            comp[v] = len(roots)
            roots.append(v)
            surplus.append(len(adj[v]))
        else:
            c = comp[v] = comp[p]
            surplus[c] += len(adj[v]) - 2
    cyclic = next((s for s, extra in zip(roots, surplus) if extra), None)
    return tuple(comp), cyclic


def _component_trees_by_buckets(f):
    """``component_trees`` as it was built before it sliced the walk: the
    labels bucketed by per-vertex component id, each bucket's induced tree."""
    comp, _ = _per_vertex_components(f)
    buckets = [[] for _ in range(len(set(comp)))]
    for v, c in enumerate(comp):
        buckets[c].append(v)
    return [
        (Tree(delete_vertices(f, set(range(f.n)) - set(verts))[0]), tuple(verts))
        for verts in buckets
    ]


def _assert_forest_check_matches(g):
    comp, cyclic = _per_vertex_components(g)
    if cyclic is None:
        f = Forest(g)
        assert f.ncomponents == len(set(comp))
        assert f.component_trees() == _component_trees_by_buckets(f)
    else:
        with pytest.raises(ValueError) as exc:
            Forest(g)
        assert str(exc.value) == f"component containing vertex {cyclic} has a cycle"


@pytest.mark.parametrize(
    ("n", "edges", "labels"),
    [
        (0, [], []),
        (1, [], [(0,)]),
        (3, [], [(0,), (1,), (2,)]),
        (6, [(5, 2), (4, 0)], [(0, 4), (1,), (2, 5), (3,)]),
        # a component's walk visits 6 before 3 and 5: each run is sorted
        (7, [(6, 3), (3, 5), (1, 6)], [(0,), (1, 3, 5, 6), (2,), (4,)]),
    ],
)
def test_component_trees_cut_the_walk_as_the_buckets_do(n, edges, labels):
    f = Forest(Graph(n, edges))
    parts = f.component_trees()
    assert [got for _, got in parts] == labels
    assert parts == _component_trees_by_buckets(f)


@pytest.mark.parametrize(
    "n, edges, cyclic",
    [
        (9, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)], 2),  # second component
        (12, [(0, 1), (2, 3), (4, 5), (5, 6), (6, 7), (7, 4), (8, 9), (9, 10), (10, 8)], 4),
        (8, [(7, 6), (6, 5), (5, 7), (0, 1), (1, 2)], 5),  # cycle on the largest labels
        (10, [(1, 2), (3, 4), (4, 9), (9, 3), (5, 6), (6, 8), (8, 5)], 3),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 0),
    ],
)
def test_forest_names_the_first_cyclic_component(n, edges, cyclic):
    with pytest.raises(ValueError, match=f"^component containing vertex {cyclic} has a cycle$"):
        Forest(Graph(n, edges))
    _assert_forest_check_matches(Graph(n, edges))


@given(small_graphs(max_n=9))
@settings(max_examples=200)
def test_forest_check_matches_the_per_vertex_loop_on_graphs(g):
    _assert_forest_check_matches(g)


@given(labeled_forests(), st.data())
@settings(max_examples=150)
def test_forest_check_matches_the_per_vertex_loop_on_forests(f, data):
    _assert_forest_check_matches(f)
    # each extra edge inside a component closes a cycle there
    comp, _ = _per_vertex_components(f)
    missing = [(u, v) for u in range(f.n) for v in range(u + 1, f.n)
               if v not in f.adjacency[u] and comp[u] == comp[v]]
    if missing:
        extra = data.draw(st.lists(st.sampled_from(missing), min_size=1, max_size=3, unique=True))
        _assert_forest_check_matches(Graph(f.n, f.edges() + extra))


def test_tree_and_forest_fill_the_shared_walk():
    # the walk belongs to the Forest; the Graph holds only its adjacency
    g = Graph(5, [(3, 1), (1, 4), (0, 2)])
    assert Graph.__slots__ == ("n", "adjacency") and not hasattr(g, "walk")
    f = Forest(g)
    # positions: 2 hangs off position 0, and 3 and 4 off position 2
    assert f.walk == ((0, 2, 1, 3, 4), (-1, 0, -1, 2, 2))
    assert (f.n, f.adjacency, f.ncomponents) == (g.n, g.adjacency, 2)
    t = Tree(Graph(3, [(0, 1), (1, 2)]))
    assert t.walk == ((0, 1, 2), (-1, 0, 1)) and t.ncomponents == 1
    assert issubclass(Tree, Forest) and Tree.__slots__ == ()


def test_a_forest_is_a_graph():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    t, f = Tree(g), Forest(g)
    assert issubclass(Forest, Graph)
    assert t == g == f and hash(t) == hash(g) == hash(f)
    assert not hasattr(t, "graph") and not hasattr(f, "graph")
    assert repr(t) == "Tree(n=4, edges=[(0, 1), (1, 2), (1, 3)])"
    built = [t, f, make_path(4), make_star(3), make_double_star(1, 2), make_spider([1, 2])]
    built += [tree_from_prufer([3, 3, 1]), *enumerate_free_trees(6)]
    built += [x for x, _ in remove_vertex(make_spider([2, 1, 3]), 0).component_trees()]
    assert all(isinstance(x, Graph) for x in built)
    # the trusted builder makes plain Graphs: no Forest or Tree lacks its walk
    assert type(Tree._from_edges(2, [(0, 1)])) is Graph


def test_every_built_tree_is_validated():
    # the generators and component_trees go through Tree(), which keeps the walk
    built = [tree_from_prufer([3, 3, 1]), *enumerate_free_trees(7)]
    built += [t for t, _ in remove_vertex(make_spider([2, 1, 3]), 0).component_trees()]
    for t in built:
        order, parent = rooted_order(t.adjacency)
        assert t.walk == (tuple(order), tuple(parent)) and t.walk[1].count(-1) == 1


@pytest.mark.parametrize("cls", [Tree, Forest])
def test_tree_and_forest_walk_the_graph_once(cls, monkeypatch):
    calls = []
    walk = prdom.graphs.rooted_order

    def counting(*args, **kwargs):
        calls.append(1)
        return walk(*args, **kwargs)

    monkeypatch.setattr(prdom.graphs, "rooted_order", counting)
    x = cls(Graph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]))
    assert len(calls) == 1
    # the solvers read the kept walk, and the components are cut from it:
    # only each component's own Tree walks again
    for solve in (prd_number, optimal_assignment, forced_zero_set):
        solve(x)
    assert len(calls) == 1
    assert len(x.component_trees()) == 1 and len(calls) == 2


@pytest.mark.parametrize(("g", "tree_message", "forest_message"), NOT_TREES)
def test_tree_and_forest_rejection_messages(g, tree_message, forest_message):
    with pytest.raises(ValueError) as info:
        Tree(g)
    assert str(info.value) == tree_message
    if forest_message is None:
        assert Forest(g).n == g.n
    else:
        with pytest.raises(ValueError) as info:
            Forest(g)
        assert str(info.value) == forest_message

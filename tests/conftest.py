import random
import sys

from hypothesis import strategies as st

from prdom import Forest, Graph, Tree, make_path, replay_certificate, tree_from_prufer
from prdom.family import random_certificate


@st.composite
def labeled_trees(draw, min_n=1, max_n=16):
    """Uniform labeled trees via random Prufer sequences."""
    n = draw(st.integers(min_n, max_n))
    if n <= 2:
        return make_path(n)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return tree_from_prufer(seq)


@st.composite
def labeled_forests(draw, max_trees=3, max_n=16, max_isolated=4):
    """Disjoint random trees plus isolated vertices, labels shuffled; may be empty."""
    edges: list[tuple[int, int]] = []
    n = 0
    for t in draw(st.lists(labeled_trees(max_n=max_n), max_size=max_trees)):
        edges.extend((u + n, v + n) for u, v in t.edges())
        n += t.n
    n += draw(st.integers(0, max_isolated))
    perm = draw(st.permutations(range(n)))
    return Forest(Graph(n, [(perm[u], perm[v]) for u, v in edges]))


def shuffled_member(steps, rng):
    """A random family member of 3 + 3 * steps vertices, labels shuffled."""
    t = replay_certificate(random_certificate(steps, rng))
    perm = list(range(t.n))
    rng.shuffle(perm)
    return Tree(Graph(t.n, [(perm[u], perm[v]) for u, v in t.edges()]))


def ingest_shaped_forest(seed: int, part: int = 25_000) -> Forest:
    """A Pruefer tree, a path, a star and a caterpillar of ``part`` vertices
    each, labels and edges shuffled."""
    rng = random.Random(seed)
    spine = part // 3
    shapes = [
        tree_from_prufer([rng.randrange(part) for _ in range(part - 2)]).edges(),
        [(i, i + 1) for i in range(part - 1)],
        [(0, i) for i in range(1, part)],
        [(i, i + 1) for i in range(spine - 1)] + [(i % spine, i) for i in range(spine, part)],
    ]
    perm = list(range(4 * part))
    rng.shuffle(perm)
    edges = [(perm[u + k * part], perm[v + k * part]) for k, es in enumerate(shapes) for u, v in es]
    rng.shuffle(edges)
    return Forest(Graph(4 * part, edges))


@st.composite
def small_graphs(draw, min_n=1, max_n=9):
    """Arbitrary simple graphs, cycles included."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, picks)


# Graphs that are not trees: (graph, Tree's message, Forest's message, or
# None when the graph is a forest). The empty graph; the wrong edge count,
# too many and too few; a disconnected graph with m = n - 1; and cycles in
# a later component, with m = n - 1 and without.
NOT_TREES = [
    (Graph(0, []), "a tree needs at least one vertex", None),
    (Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), "tree on 4 vertices must have 3 edges, got 4",
     "component containing vertex 0 has a cycle"),
    (Graph(4, [(0, 1), (2, 3)]), "tree on 4 vertices must have 3 edges, got 2", None),
    (Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]), "graph is not connected",
     "component containing vertex 0 has a cycle"),
    (Graph(6, [(0, 1), (2, 3), (3, 4), (4, 2), (4, 5)]), "graph is not connected",
     "component containing vertex 2 has a cycle"),
    (Graph(7, [(0, 6), (2, 5), (5, 3), (3, 2), (3, 4)]),
     "tree on 7 vertices must have 6 edges, got 5", "component containing vertex 2 has a cycle"),
]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

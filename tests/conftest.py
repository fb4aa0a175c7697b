import sys

from hypothesis import strategies as st

from prdom import Forest, Graph, make_path, tree_from_prufer


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
        edges.extend((u + n, v + n) for u, v in t.graph.edges())
        n += t.n
    n += draw(st.integers(0, max_isolated))
    perm = draw(st.permutations(range(n)))
    return Forest(Graph(n, [(perm[u], perm[v]) for u, v in edges]))


@st.composite
def small_graphs(draw, min_n=1, max_n=9):
    """Arbitrary simple graphs, cycles included."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, picks)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

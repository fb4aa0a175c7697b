import networkx as nx
import pytest

from prdom import (
    Graph,
    Tree,
    all_labeled_trees,
    canonical_form,
    enumerate_free_trees,
    tree_from_prufer,
)

# counts of free trees by order
EXPECTED_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23,
    9: 47, 10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741,
}


def _rooted_tree_counts(limit: int) -> list[int]:
    """Counts of rooted trees per order, by the classic divisor-sum
    recurrence; an arithmetic route fully independent of any generator."""
    r = [0, 1]
    for n in range(2, limit + 1):
        total = 0
        for k in range(1, n):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[n - k]
        r.append(total // (n - 1))
    return r


def _free_tree_counts(limit: int) -> list[int]:
    """Free-tree counts from rooted counts via the dissimilarity identity:
    subtract one rooted class per unordered split into two rooted halves."""
    r = _rooted_tree_counts(limit)
    f = [0] * (limit + 1)
    for n in range(1, limit + 1):
        pairs = sum(r[i] * r[n - i] for i in range(1, (n + 1) // 2))
        if n % 2 == 0:
            h = r[n // 2]
            pairs += h * (h - 1) // 2
        f[n] = r[n] - pairs
    return f


def test_counting_recurrence_matches_known_values():
    assert _free_tree_counts(15)[1:] == [EXPECTED_COUNTS[n] for n in range(1, 16)]


@pytest.mark.parametrize("n", sorted(EXPECTED_COUNTS))
def test_class_counts(n):
    assert sum(1 for _ in enumerate_free_trees(n)) == EXPECTED_COUNTS[n]


def test_output_is_duplicate_free_and_valid():
    for n in range(1, 14):
        forms = set()
        for t in enumerate_free_trees(n):
            assert isinstance(t, Tree) and t.n == n
            Tree(t)  # re-run the full invariant check
            forms.add(canonical_form(t))
        assert len(forms) == EXPECTED_COUNTS[n]


def test_matches_prufer_dedup_oracle():
    # every labeled tree from its Prufer sequence, deduplicated by
    # canonical form, must give the same classes as the generator
    for n in range(1, 9):
        from_prufer = {canonical_form(t) for t in all_labeled_trees(n)}
        from_generator = {canonical_form(t) for t in enumerate_free_trees(n)}
        assert from_prufer == from_generator


def test_matches_networkx_nonisomorphic_trees():
    # networkx's generator is an independent implementation of the same
    # algorithm; the classes must agree, whatever the order and labels
    for n in range(1, 13):
        from_networkx = {
            canonical_form(Tree(Graph(n, list(g.edges()))))
            for g in nx.nonisomorphic_trees(n)
        }
        from_generator = {canonical_form(t) for t in enumerate_free_trees(n)}
        assert from_networkx == from_generator


@pytest.mark.slow
def test_matches_prufer_dedup_oracle_n9():
    # 9^7 labeled trees, a few minutes; deselect with -m "not slow"
    from_prufer = {canonical_form(t) for t in all_labeled_trees(9)}
    from_generator = {canonical_form(t) for t in enumerate_free_trees(9)}
    assert from_prufer == from_generator


def test_deterministic_order():
    first = [canonical_form(t) for t in enumerate_free_trees(9)]
    second = [canonical_form(t) for t in enumerate_free_trees(9)]
    assert first == second


def test_bounds():
    with pytest.raises(ValueError):
        list(enumerate_free_trees(0))
    with pytest.raises(ValueError):
        list(enumerate_free_trees(19))


def test_tree_from_prufer_known_sequences():
    # sequence (1, 1): star centered at 1 on 4 vertices
    t = tree_from_prufer((1, 1))
    assert t.edges() == [(0, 1), (1, 2), (1, 3)]
    # sequence () gives the single edge
    assert tree_from_prufer(()).edges() == [(0, 1)]
    with pytest.raises(ValueError):
        tree_from_prufer((5,))


def test_prufer_covers_cayley_count():
    # n^(n-2) distinct labeled trees at n=5
    seen = set(all_labeled_trees(5))
    assert len(seen) == 5 ** 3

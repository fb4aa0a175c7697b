import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_forests, labeled_trees
from prdom import (
    Forest,
    Graph,
    Tree,
    canonical_form,
    canonical_forms,
    centroids,
    enumerate_free_trees,
    make_double_star,
    make_path,
    make_star,
    make_spider,
    remove_vertex,
)


def _relabel(t: Tree, perm) -> Tree:
    return Tree(Graph(t.n, [(perm[u], perm[v]) for u, v in t.edges()]))


def test_all_labelings_of_p3_share_one_form():
    forms = {
        canonical_form(_relabel(make_path(3), perm))
        for perm in itertools.permutations(range(3))
    }
    assert len(forms) == 1


def test_path_and_star_differ():
    assert canonical_form(make_path(4)) != canonical_form(make_star(3))


def test_non_isomorphic_small_trees_all_differ():
    trees5 = [make_path(5), make_star(4), make_spider([1, 1, 2])]
    forms = {canonical_form(t) for t in trees5}
    assert len(forms) == 3


def test_golden_forms():
    assert canonical_form(make_path(6)) == b"B((()))((()))"
    assert canonical_form(make_double_star(2, 2)) == b"B(()())(()())"


def test_centroids():
    assert centroids(make_path(1)) == (0,)
    assert centroids(make_path(5)) == (2,)
    assert centroids(make_path(6)) == (2, 3)   # bicentroidal
    assert centroids(make_star(4)) == (0,)
    assert centroids(make_double_star(2, 2)) == (0, 1)


def test_bicentroidal_orientation_invariance():
    # the two halves of a double star swap under relabeling
    ds = make_double_star(2, 3)
    perm = [1, 0, 4, 5, 6, 2, 3]
    assert canonical_form(_relabel(ds, perm)) == canonical_form(ds)


@given(labeled_trees(max_n=20), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_relabeling_invariance(t, rng):
    perm = list(range(t.n))
    rng.shuffle(perm)
    assert canonical_form(_relabel(t, perm)) == canonical_form(t)


def test_form_distinguishes_within_order():
    # 6 classes at n=6, all with distinct forms
    forms = [canonical_form(t) for t in enumerate_free_trees(6)]
    assert len(forms) == len(set(forms)) == 6


def _largest_component(f: Forest) -> int:
    sizes = [0] * f.ncomponents
    for c in f.component:
        sizes[c] += 1
    return max(sizes, default=0)


def test_centroids_match_the_definition():
    # the vertices whose deletion leaves the smallest largest component
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            worst = [_largest_component(remove_vertex(t, v)) for v in range(n)]
            best = min(worst)
            assert centroids(t) == tuple(v for v in range(n) if worst[v] == best)


@given(labeled_forests())
@settings(max_examples=150, deadline=None)
def test_forest_forms_match_the_component_trees(f):
    expected = sorted(canonical_form(t) for t, _ in f.component_trees())
    assert sorted(canonical_forms(f)) == expected


@given(labeled_forests(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_forest_forms_are_relabeling_invariant(f, rng):
    perm = list(range(f.n))
    rng.shuffle(perm)
    g = Forest(Graph(f.n, [(perm[u], perm[v]) for u, v in f.edges()]))
    assert sorted(canonical_forms(g)) == sorted(canonical_forms(f))

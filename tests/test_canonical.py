import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prdom.canonical
import prdom.graphs
from conftest import ingest_shaped_forest, labeled_forests, labeled_trees
from label_walk import forms_by_second_walk as _forms_by_second_walk
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
    return max((len(labels) for _, labels in f.component_trees()), default=0)


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


# The encoder as it was before it re-rooted Forest.walk, a second walk from
# the centroids (``label_walk.forms_by_second_walk``), is the reference the
# re-rooting encoder must match byte for byte.
def test_forms_match_the_second_walk_on_all_small_trees():
    rng = random.Random(12)
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            assert canonical_forms(t) == _forms_by_second_walk(t)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                shuffled = _relabel(t, perm)
                assert canonical_forms(shuffled) == _forms_by_second_walk(shuffled)


@given(labeled_forests())
@settings(max_examples=300, deadline=None)
def test_forms_match_the_second_walk_on_forests(f):
    assert canonical_forms(f) == _forms_by_second_walk(f)


@pytest.mark.parametrize(
    "forest",
    [
        Forest(Graph(0, [])),
        Forest(Graph(1, [])),  # K1
        Forest(Graph(2, [(0, 1)])),  # K2: the walk root is a centroid
        # P4 walked from 0: the lower centroid label, 1, comes first in the walk
        Forest(Graph(4, [(0, 1), (1, 2), (2, 3)])),
        # P4 as 0-3-2-1: the higher centroid label, 3, comes first in the walk
        Forest(Graph(4, [(0, 3), (3, 2), (2, 1)])),
        # both cases again as double stars, beside K2 and K1 (vertex 9)
        Forest(Graph(15, [(0, 5), (5, 1), (5, 7), (1, 6), (1, 8),
                          (2, 3), (3, 10), (10, 11), (10, 12), (3, 13), (4, 14)])),
    ],
)
def test_forms_match_the_second_walk_on_hand_made_forests(forest):
    assert canonical_forms(forest) == _forms_by_second_walk(forest)


def test_forms_of_a_large_shuffled_forest_are_pinned():
    # the digest the second-walk encoder gives this forest
    forms = canonical_forms(ingest_shaped_forest(1))
    digest = hashlib.sha256(b"|".join(sorted(forms))).hexdigest()
    assert digest == "fd4b2c128678e7ca1f80e4f7e2b0370ec3b92a4712f5e005802a4697f52315fd"


def test_forms_read_the_walk_alone(monkeypatch):
    # P5 8-3-0-5-1, P3 7-2-6 and the isolated vertex 4
    f = Forest(Graph(9, [(8, 3), (3, 0), (0, 5), (5, 1), (7, 2), (2, 6)]))
    expected = _forms_by_second_walk(f)

    def no_walk(*args, **kwargs):
        raise AssertionError("canonical_forms walked the graph")

    monkeypatch.setattr(prdom.graphs, "rooted_order", no_walk)
    monkeypatch.setattr(prdom.canonical, "rooted_order", no_walk, raising=False)
    assert canonical_forms(f) == expected
    # nothing but the walk: no adjacency and no vertex count
    assert canonical_forms(SimpleNamespace(walk=f.walk)) == expected


def test_forms_of_a_preorder_parent_array_match_its_tree():
    # the family closure keys each candidate by _forms of its construction
    # array, which puts each parent first but is no BFS walk; the generator's
    # preorder arrays are arrays of that kind, one per free tree
    from prdom.enumeration import _free_tree_parents, _parents_to_tree

    seen = 0
    for n in range(1, 15):
        for parent in _free_tree_parents(n):
            assert prdom.canonical._forms(parent) == [canonical_form(_parents_to_tree(parent))]
            seen += 1
    assert seen == 5447

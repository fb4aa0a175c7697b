"""Every route that reads the walk in BFS positions against the label-walk
route it replaced (``label_walk``): witnesses, forced-zero sets, stability
deltas, centroids and canonical forms, byte for byte."""

import random

from hypothesis import given, settings

import label_walk
from conftest import ingest_shaped_forest, labeled_forests
from prdom import (
    Graph,
    Tree,
    canonical_forms,
    centroids,
    enumerate_free_trees,
    forced_zero_set,
    optimal_assignment,
    prd_number,
    stability_report,
)
from prdom.canonical import _centroids
from prdom.solver import _deletion_stable


def _component_centroids(x):
    """Each component's centroid labels, ascending, by the position route."""
    order, parent = x.walk
    return [sorted(order[i] for i in cs) for cs in _centroids(parent)]


def _assert_forest_routes_match(x):
    witness = optimal_assignment(x)
    assert witness == label_walk.witness(x)
    assert sum(witness) == prd_number(x)
    assert forced_zero_set(x) == label_walk.forced_zero_set(x)
    assert _component_centroids(x) == label_walk.centroids(*label_walk.walk(x))
    assert canonical_forms(x) == label_walk.forms_by_second_walk(x)


def _assert_tree_routes_match(t):
    _assert_forest_routes_match(t)
    report = stability_report(t)
    assert (report.base, report.deltas) == label_walk.deltas(t)
    assert centroids(t) == tuple(label_walk.centroids(*label_walk.walk(t))[0])
    assert _deletion_stable(t.walk[1]) == report.stable


def test_routes_match_the_label_walk_on_all_small_trees():
    rng = random.Random(22)
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            _assert_tree_routes_match(t)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                _assert_tree_routes_match(Tree(Graph(n, [(perm[u], perm[v]) for u, v in t.edges()])))


@given(labeled_forests(max_trees=4, max_n=30))
@settings(max_examples=300, deadline=None)
def test_routes_match_the_label_walk_on_forests(f):
    _assert_forest_routes_match(f)
    for t, _ in f.component_trees():
        _assert_tree_routes_match(t)


def test_routes_match_the_label_walk_on_a_large_shuffled_forest():
    # four components of 25 000 vertices, labels shuffled
    f = ingest_shaped_forest(1)
    _assert_forest_routes_match(f)
    for t, _ in f.component_trees():
        report = stability_report(t)
        assert (report.base, report.deltas) == label_walk.deltas(t)

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_trees, shuffled_member
from prdom import (
    Graph,
    SizeLimitError,
    Tree,
    attach_pendant_path,
    branch_sites,
    brute_force,
    enumerate_free_trees,
    make_double_star,
    make_path,
    make_spider,
    make_star,
    optima_report,
    prd_number,
    remove_vertex,
    stability_report,
)
from prdom.enumeration import _free_tree_parents, _parents_to_tree
from prdom.solver import _deletion_stable


def test_p3_is_stable():
    r = stability_report(make_path(3))
    assert r.base == 2
    assert r.deltas == (0, 0, 0)
    assert r.stable


def test_stars_are_not_stable():
    assert not stability_report(make_star(3)).stable


def test_double_stars_are_not_stable():
    for p, q in ((1, 1), (2, 2), (3, 3), (2, 4)):
        assert not stability_report(make_double_star(p, q)).stable


def test_p4_not_stable():
    r = stability_report(make_path(4))
    assert r.base == 3
    assert r.deltas[0] == -1  # dropping an end leaf leaves P3
    assert not r.stable


def test_k1_not_stable():
    # the only vertex removal leaves the empty forest
    r = stability_report(make_path(1))
    assert r.base == 1 and r.deltas == (-1,)
    assert not r.stable


def test_p6_stable():
    r = stability_report(make_path(6))
    assert r.base == 4 and r.stable


def test_stability_agrees_with_pure_brute_force():
    # fully independent route: brute force on T and on every T - v
    for n in range(1, 11):
        for t in enumerate_free_trees(n):
            base = brute_force(t)[0]
            brute_stable = all(
                brute_force(remove_vertex(t, v))[0] == base for v in range(t.n)
            )
            assert stability_report(t).stable == brute_stable


def _literal_deltas(t):
    base = prd_number(t)
    return base, tuple(prd_number(remove_vertex(t, v)) - base for v in range(t.n))


def test_stability_report_matches_literal_deletion_on_all_small_trees():
    # the rerooting pass against deleting each vertex and re-solving;
    # orders 1 and 2 are K1 and P2
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            r = stability_report(t)
            assert (r.base, r.deltas) == _literal_deltas(t)


@given(labeled_trees(max_n=60))
@settings(max_examples=200, deadline=None)
def test_stability_report_matches_literal_deletion_random(t):
    r = stability_report(t)
    assert (r.base, r.deltas) == _literal_deltas(t)


def test_walk_stability_matches_the_report_on_every_generated_array():
    # the generator's parent arrays, read as walks in preorder, against the
    # full report on the Tree built from each
    for n in range(1, 14):
        for parent in _free_tree_parents(n):
            expected = stability_report(_parents_to_tree(parent)).stable
            assert _deletion_stable(parent) == expected


def _prune_and_regraft(t, rng):
    """Cut a random edge and hang the cut-off side at a random vertex of the rest."""
    edges = t.edges()
    _, v = edges.pop(rng.randrange(len(edges)))
    adj = Graph(t.n, edges).adjacency
    side = {v}
    stack = [v]
    while stack:
        for w in adj[stack.pop()]:
            if w not in side:
                side.add(w)
                stack.append(w)
    rest = [w for w in range(t.n) if w not in side]
    return Tree(Graph(t.n, [*edges, (v, rng.choice(rest))]))


def test_walk_stability_matches_the_report_on_shuffled_members_and_mutants():
    # BFS walks of shuffled labels; members are stable, and a good share of
    # their one-edge mutants too, so the pass runs to the end both ways
    rng = random.Random(16)
    outcomes = {True: 0, False: 0}
    for _ in range(120):
        member = shuffled_member(rng.randint(0, 60), rng)
        assert _deletion_stable(member.walk[1]) and stability_report(member).stable
        for t in [_prune_and_regraft(member, rng) for _ in range(3)]:
            stable = stability_report(t).stable
            assert _deletion_stable(t.walk[1]) == stable
            outcomes[stable] += 1
    assert min(outcomes.values()) >= 50, outcomes


@given(labeled_trees(max_n=40))
@settings(max_examples=200, deadline=None)
def test_walk_stability_matches_the_report_random(t):
    assert _deletion_stable(t.walk[1]) == stability_report(t).stable


def test_attach_pendant_path_labels():
    t = attach_pendant_path(make_path(3), 0, 3)
    # new chain hangs off 0: 0-3, 3-4, 4-5; far endpoint gets the top label
    assert t.n == 6
    assert t.edges() == [(0, 1), (0, 3), (1, 2), (3, 4), (4, 5)]
    t2 = attach_pendant_path(make_path(3), 1, 1)
    assert t2.edges() == [(0, 1), (1, 2), (1, 3)]


def test_attach_pendant_path_builds_its_trusted_edges_unchecked(monkeypatch):
    # a validated tree's edges plus fresh labels need no per-edge check: the
    # trees equal those the validated Graph() route builds
    cases = [(t, u, k) for n in (1, 2, 5) for t in enumerate_free_trees(n)
             for u in range(n) for k in (1, 2, 3)]
    expected = [
        Tree(Graph(t.n + k, [*t.edges(), (u, t.n), *((t.n + i, t.n + i + 1) for i in range(k - 1))]))
        for t, u, k in cases
    ]

    def refuse(*args):
        raise AssertionError("Graph.__init__ called")

    monkeypatch.setattr(Graph, "__init__", refuse)
    grown = [attach_pendant_path(t, u, k) for t, u, k in cases]
    assert grown == expected and all(type(t) is Tree for t in grown)
    # the fixed patterns take the same unchecked route
    built = [make_path(4), make_star(3), make_double_star(1, 1), make_spider([2, 1])]
    assert [(type(t), t.n, t.m) for t in built] == [(Tree, 4, 3)] * 4


def test_attach_pendant_path_rejects_bad_arguments():
    with pytest.raises(ValueError):
        attach_pendant_path(make_path(3), 0, 4)
    with pytest.raises(ValueError):
        attach_pendant_path(make_path(3), 3, 1)


@given(labeled_trees(max_n=60), st.integers(0, 59))
@settings(max_examples=200, deadline=None)
def test_pendant_triple_adds_exactly_two_anywhere(t, pick):
    # needs no stability hypothesis at all
    u = pick % t.n
    assert prd_number(attach_pendant_path(t, u, 3)) == prd_number(t) + 2


def test_optima_report_p3_and_p6_clean():
    r3 = optima_report(make_path(3))
    assert r3.passed and r3.optima_count == 1
    r6 = optima_report(make_path(6))
    assert r6.passed
    assert r6.one_vertices == () and r6.two_leaves == ()


def test_optima_report_p4_sees_label_one():
    # P4 is not stable; some optimum uses a 1
    r = optima_report(make_path(4))
    assert r.one_vertices


def test_optima_report_size_cap():
    # the scan's cap is brute force's: 16 vertices run, 17 raise its error
    r = optima_report(make_spider([3] * 5))
    assert r.optima_count == 6 and r.one_vertices == (0, 3, 6, 9, 12, 15)
    with pytest.raises(SizeLimitError, match="^brute force capped at n=16, got 17$"):
        optima_report(make_path(17))


def test_branch_site_finder():
    # fork: center 0 with leaves 2, 3 and the chain 0-1-4... build explicitly:
    # center has two leaves and one degree-2 neighbor continuing outward
    fork = make_spider([2, 1, 1])  # 0-1-2 chain, leaves 3 and 4 on 0
    sites = branch_sites(fork)
    assert len(sites) == 1
    site = sites[0]
    assert site.center == 0 and site.chain == 1 and site.anchor == 2
    assert site.leaves == (3, 4)
    # no site on paths or stars
    assert branch_sites(make_path(6)) == []
    assert branch_sites(make_star(3)) == []


def test_branch_site_claims_on_a_synthetic_example():
    # the fork itself is not stable, so the expected labels need not hold;
    # the report must still enumerate without error and flag the site
    fork = make_spider([2, 1, 1])
    r = optima_report(fork)
    assert len(r.sites) == 1
    assert not stability_report(fork).stable

import hashlib
import inspect
import math
import random

import pytest
from hypothesis import given, settings

import label_walk
from conftest import ingest_shaped_forest, labeled_forests, labeled_trees, small_graphs
from prdom import (
    INFEASIBLE,
    Forest,
    Graph,
    SizeLimitError,
    StateTable,
    Tree,
    brute_force,
    canonical_forms,
    enumerate_free_trees,
    forced_zero_set,
    is_valid_prdf,
    make_double_star,
    make_path,
    make_spider,
    make_star,
    optimal_assignment,
    prd_number,
    remove_vertex,
    tree_from_prufer,
)
from prdom.graphs import rooted_order
from prdom.solver import _all_roots, _brute_ternary, _brute_two_sets, _reroot, _tables


def test_known_numbers():
    assert prd_number(make_path(2)) == 2
    assert prd_number(make_path(1)) == 1
    assert prd_number(make_path(3)) == 2
    assert prd_number(make_path(6)) == 4
    assert prd_number(make_star(5)) == 2
    assert prd_number(make_double_star(2, 2)) == 4


def test_known_numbers_match_brute_force():
    for t in (make_path(3), make_path(6), make_star(5), make_double_star(2, 2)):
        assert prd_number(t) == brute_force(t)[0]


def test_empty_forest_is_zero():
    assert prd_number(remove_vertex(make_path(1), 0)) == 0


def test_forest_numbers_add_over_components():
    f = remove_vertex(make_path(6), 3)  # P3 + P2
    assert prd_number(f) == 2 + 2


def test_optimal_assignment_p3_unique_optimum():
    assert optimal_assignment(make_path(3)) == (0, 2, 0)
    _, all_optima = brute_force(make_path(3))
    assert all_optima == [(0, 2, 0)]


def test_optimal_assignment_k1():
    assert optimal_assignment(make_path(1)) == (1,)


def test_optimal_assignment_p6():
    t = make_path(6)
    a = optimal_assignment(t)
    assert sum(a) == 4
    assert is_valid_prdf(t, a)


def test_brute_force_p4():
    w, _ = brute_force(make_path(4))
    assert w == 3 == math.ceil(2 * 4 / 3)


def test_brute_force_k1_enumeration():
    w, optima = brute_force(make_path(1))
    assert w == 1
    assert optima == [(1,)]


def test_brute_force_size_cap():
    with pytest.raises(SizeLimitError):
        brute_force(make_path(17))


def test_brute_force_accepts_cyclic_graphs():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    w, optima = brute_force(triangle)
    assert w == 2
    assert all(is_valid_prdf(triangle, o) for o in optima)


def _brute_ternary_optima(g):
    """The literal 3^n scan's number and sorted optima, as brute_force gives them."""
    best, found = _brute_ternary(g.adjacency)
    return best, sorted(found)


def test_brute_force_methods_agree_exhaustively():
    for n in range(1, 10):
        for t in enumerate_free_trees(n):
            wt, at = _brute_ternary_optima(t)
            ws, as_ = brute_force(t)
            assert wt == ws
            assert at == as_


@given(small_graphs(max_n=8))
@settings(max_examples=150, deadline=None)
def test_brute_force_methods_agree_on_graphs(g):
    assert _brute_ternary_optima(g) == brute_force(g)


def test_dp_matches_brute_force_on_all_small_trees():
    for n in range(1, 11):
        for t in enumerate_free_trees(n):
            assert prd_number(t) == brute_force(t)[0]


@given(labeled_trees(max_n=16))
@settings(max_examples=150, deadline=None)
def test_dp_matches_brute_force_random(t):
    assert prd_number(t) == brute_force(t)[0]


@given(labeled_trees(max_n=40))
@settings(max_examples=150, deadline=None)
def test_witness_is_valid_and_optimal(t):
    a = optimal_assignment(t)
    assert is_valid_prdf(t, a)
    assert sum(a) == prd_number(t)


@given(labeled_trees(max_n=25))
@settings(max_examples=100, deadline=None)
def test_all_ones_bound_and_positivity(t):
    w = prd_number(t)
    assert 1 <= w <= t.n
    assert is_valid_prdf(t, [1] * t.n)


def test_path_formula_against_brute_force():
    for n in range(1, 14):
        assert brute_force(make_path(n))[0] == math.ceil(2 * n / 3)


def test_path_formula_regression_medium():
    for n in range(1, 301):
        assert prd_number(make_path(n)) == math.ceil(2 * n / 3)


def _reference_at(t, v):
    """A - C, B - C, D - C and C at ``v``, from the absolute reference
    table of ``t`` rooted at ``v`` (``label_walk``)."""
    order, parent = label_walk.rooted_order(t.adjacency, (v,))
    a, b, c, d = label_walk.tables(order, parent)
    return a[v] - c[v], b[v] - c[v], d[v] - c[v], c[v]


def _root_costs(t, v):
    """The A, C and D costs of ``t`` rooted at ``v``: the least weight with
    ``v`` labeled 0, 1 and 2, rebuilt from the rerooted differences and the
    number, which must match the reference's."""
    alpha, beta, delta, number = _all_roots(t)
    i = t.walk[0].index(v)
    c = number - min(alpha[i], 0, delta[i])
    assert (alpha[i], beta[i], delta[i], c) == _reference_at(t, v)
    return c + alpha[i], c, c + delta[i]


def test_forced_values_on_p3():
    # the unique optimum is (0, 2, 0): leaves are forced to 0
    p3 = make_path(3)
    assert [_root_costs(p3, v) for v in range(3)] == [(2, 3, 3), (3, 3, 2), (2, 3, 3)]


def test_forced_zero_on_isolated_vertex_is_infeasible():
    assert _root_costs(make_path(1), 0) == (INFEASIBLE, 1, 2)


@given(labeled_trees(max_n=14))
@settings(max_examples=100, deadline=None)
def test_forced_state_coherence(t):
    for v in range(t.n):
        assert min(_root_costs(t, v)) == prd_number(t)


def test_forced_zero_set_examples():
    assert forced_zero_set(make_path(3)) == {0, 2}
    assert forced_zero_set(make_path(1)) == frozenset()


def test_forced_zero_set_matches_full_enumeration():
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            _, optima = brute_force(t)
            always_zero = frozenset(
                v for v in range(t.n) if all(o[v] == 0 for o in optima)
            )
            assert forced_zero_set(t) == always_zero


def _forced_by_a_table_rooted_at(t, v, allowed):
    """The least weight with ``v``'s label in ``allowed``, the route before
    the rerooting pass: one DP table rooted at ``v``, then the allowed root
    states of ``v``, whose differences must match the reference's."""
    alpha, beta, delta, number = _tables(rooted_order(t.adjacency, (v,))[1])  # v at position 0
    c = number - min(alpha[0], 0, delta[0])
    assert (alpha[0], beta[0], delta[0], c) == _reference_at(t, v)
    best = min((c + alpha[0], c, c + delta[0])[label] for label in allowed)
    return best if best < INFEASIBLE else math.inf


def _all_roots_match_a_table_per_root(t):
    alpha, beta, delta, number = _all_roots(t)
    for i, v in enumerate(t.walk[0]):
        a, b, d, c = _reference_at(t, v)
        assert (alpha[i], beta[i], delta[i]) == (a, b, d)
        assert number == c + min(a, 0, d)


def test_forced_matches_a_table_per_root_on_all_small_trees():
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            _all_roots_match_a_table_per_root(t)


@given(labeled_trees(max_n=40))
@settings(max_examples=100, deadline=None)
def test_forced_matches_a_table_per_root_random(t):
    _all_roots_match_a_table_per_root(t)


def _forced_zero_by_rerooting_each_vertex(t):
    base = prd_number(t)
    return frozenset(
        v for v in range(t.n) if _forced_by_a_table_rooted_at(t, v, {1, 2}) > base
    )


def test_forced_zero_set_matches_per_vertex_route_on_all_small_trees():
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            assert forced_zero_set(t) == _forced_zero_by_rerooting_each_vertex(t)


@given(labeled_trees(max_n=60))
@settings(max_examples=200, deadline=None)
def test_forced_zero_set_matches_per_vertex_route_random(t):
    assert forced_zero_set(t) == _forced_zero_by_rerooting_each_vertex(t)


@given(labeled_trees(max_n=60))
@settings(max_examples=100, deadline=None)
def test_all_roots_matches_a_table_per_root(t):
    assert min(_root_costs(t, 0)) == prd_number(t)
    _all_roots_match_a_table_per_root(t)


def test_state_table_holds_only_costs_and_brute_force_one_route():
    assert StateTable._fields == ("alpha", "beta", "delta", "number")
    assert list(inspect.signature(brute_force).parameters) == ["g"]


def test_state_table_leaf_base_case():
    # a leaf has no child to swap to D: as costs A = INFEASIBLE, B = 0,
    # C = 1 and D = 2, so its cheapest swap alpha - beta is INFEASIBLE
    table = _tables(make_path(4).walk[1])
    leaf = 3  # the far end, at the last position, is a leaf of the rooted tree
    assert (table.alpha[leaf], table.beta[leaf], table.delta[leaf]) == (INFEASIBLE - 1, -1, 1)
    assert table.alpha[leaf] - table.beta[leaf] == INFEASIBLE
    assert table.number == 3


def _assert_small(table, children):
    for alpha, beta, delta, k in zip(table.alpha, table.beta, table.delta, children):
        assert alpha >= -1 and beta >= -1 and delta >= 1 - k


def _check_the_ranges(x):
    """The down table equals the reference's A - C, B - C and D - C; there
    and after the rerooting pass alpha, beta >= -1 and delta >= 1 - (the
    number of children) at every position; the number is the reference's
    sum of root minima."""
    order, parent = x.walk
    table = _tables(parent)
    ref_order, ref_parent = label_walk.walk(x)
    a, b, c, d = label_walk.tables(ref_order, ref_parent)
    number = sum(min(a[v], c[v], d[v]) for v, p in enumerate(ref_parent) if p < 0)
    assert table.number == number
    assert list(zip(*table[:3])) == [(a[v] - c[v], b[v] - c[v], d[v] - c[v]) for v in order]
    children = [0] * x.n
    for p in parent:
        if p >= 0:
            children[p] += 1
    _assert_small(table, children)
    for _ in _reroot(parent, table):
        pass
    _assert_small(table, [len(x.adjacency[v]) for v in order])
    assert table.number == number


def test_state_table_bounds_on_all_small_trees():
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            _check_the_ranges(t)


@given(labeled_forests())
@settings(max_examples=100, deadline=None)
def test_state_table_bounds(f):
    _check_the_ranges(f)


def test_assignment_validity_checks():
    t = make_path(3)
    assert is_valid_prdf(t, (0, 2, 0))
    assert is_valid_prdf(t, [0, 2, 0])
    assert not is_valid_prdf(t, (0, 0, 2))   # vertex 0 unserved
    assert not is_valid_prdf(t, (2, 0, 2))   # vertex 1 doubly served
    assert not is_valid_prdf(t, (0, 2))      # wrong length
    assert not is_valid_prdf(t, (0, 3, 0))   # label out of range


def test_prd_number_on_forest_object():
    f = Forest(Graph(5, [(0, 1), (3, 4)]))
    # P2 + K1 + P2
    assert prd_number(f) == 2 + 1 + 2


def test_brute_ternary_and_two_sets_raw_agree_on_empty():
    assert _brute_ternary([])[0] == 0
    assert _brute_two_sets([])[0] == 0


def _per_component_witness(f):
    values = [0] * f.n
    for tree, labels in f.component_trees():
        for local, value in enumerate(optimal_assignment(tree)):
            values[labels[local]] = value
    return tuple(values)


@given(labeled_forests())
@settings(max_examples=150, deadline=None)
def test_forest_solvers_match_the_per_component_route(f):
    parts = f.component_trees()
    number = prd_number(f)
    assert number == sum(prd_number(tree) for tree, _ in parts)
    if f.n <= 12:
        assert number == brute_force(f)[0]
    witness = optimal_assignment(f)
    assert witness == _per_component_witness(f)
    assert is_valid_prdf(f, witness)
    assert sum(witness) == number
    assert forced_zero_set(f) == {
        labels[v] for tree, labels in parts for v in forced_zero_set(tree)
    }


def test_witness_of_many_isolated_vertices_is_all_ones():
    f = Forest(Graph(20000, []))
    assert optimal_assignment(f) == (1,) * 20000
    assert forced_zero_set(f) == frozenset()


# ---------------------------------------------------------------------------
# The stack-based witness route that optimal_assignment's two flat passes
# replaced, kept as the reference they must match element for element.


def _reconstruct(table, parent, adj, root, root_state, values):
    """Walk the table back into labels for ``root``'s component, deterministically.

    Ties prefer the earlier state letter, then the lower child label (the
    adjacency order is ascending, so first-found wins).
    """
    a, b, c, d = table.a, table.b, table.c, table.d
    stack = [(root, root_state)]
    while stack:
        v, state = stack.pop()
        children = [u for u in adj[v] if parent[u] == v]
        if state == "A":
            values[v] = 0
            best = None
            for u in children:
                mac = a[u] if a[u] < c[u] else c[u]
                delta = d[u] - mac
                if best is None or delta < best[0]:
                    best = (delta, u)
            chosen = best[1]
            for u in children:
                if u == chosen:
                    stack.append((u, "D"))
                else:
                    stack.append((u, "A" if a[u] <= c[u] else "C"))
        elif state == "B":
            values[v] = 0
            for u in children:
                stack.append((u, "A" if a[u] <= c[u] else "C"))
        elif state == "C":
            values[v] = 1
            for u in children:
                if a[u] <= c[u] and a[u] <= d[u]:
                    stack.append((u, "A"))
                elif c[u] <= d[u]:
                    stack.append((u, "C"))
                else:
                    stack.append((u, "D"))
        else:
            values[v] = 2
            for u in children:
                if b[u] <= c[u] and b[u] <= d[u]:
                    stack.append((u, "B"))
                elif c[u] <= d[u]:
                    stack.append((u, "C"))
                else:
                    stack.append((u, "D"))


def _stack_witness(x):
    adj = x.adjacency
    order, parent = label_walk.walk(x)
    table = label_walk.tables(order, parent)
    values = [0] * len(adj)
    for root in (v for v, p in enumerate(parent) if p < 0):
        best = None
        for state, cost in (("A", table.a[root]), ("C", table.c[root]), ("D", table.d[root])):
            if best is None or cost < best[1]:
                best = (state, cost)
        _reconstruct(table, parent, adj, root, best[0], values)
    return tuple(values)


def test_witness_matches_the_stack_route_on_all_small_trees():
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            assert optimal_assignment(t) == _stack_witness(t)


@given(labeled_forests())
@settings(max_examples=200, deadline=None)
def test_witness_matches_the_stack_route_on_forests(f):
    assert optimal_assignment(f) == _stack_witness(f)


def test_witness_matches_the_stack_route_on_a_tied_forest():
    # paths, stars and caterpillars have many optima, so every tie rule counts
    parts = [make_path(301), make_star(120), make_spider([2] * 40), make_path(2)]
    spine = 90
    caterpillar = [(i, i + 1) for i in range(spine - 1)]
    caterpillar += [(i % spine, i) for i in range(spine, 3 * spine)]
    parts.append(Tree(Graph(3 * spine, caterpillar)))
    edges, n = [], 0
    for t in parts:
        edges += [(u + n, v + n) for u, v in t.edges()]
        n += t.n
    n += 3  # isolated vertices
    rng = random.Random(2024)
    perm = list(range(n))
    rng.shuffle(perm)
    f = Forest(Graph(n, [(perm[u], perm[v]) for u, v in edges]))
    witness = optimal_assignment(f)
    assert witness == _stack_witness(f)
    assert is_valid_prdf(f, witness) and sum(witness) == prd_number(f)


def test_witness_breaks_a_d_child_tie_toward_the_lower_label():
    # P5 labelled 2-1-0-3-4: both children of the root 0 swap to D at cost 0,
    # and the lower one, 1, takes the root's 2
    t = Tree(Graph(5, [(0, 1), (0, 3), (1, 2), (3, 4)]))
    assert optimal_assignment(t) == _stack_witness(t) == (0, 2, 0, 0, 2)


def test_witness_of_a_large_shuffled_forest_is_pinned():
    f = ingest_shaped_forest(1)
    witness = optimal_assignment(f)
    assert witness == _stack_witness(f)
    # pinned, so that a change to any tie rule shows even where both routes agree
    digest = hashlib.sha256(bytes(witness)).hexdigest()
    assert digest == "dc4b79bfc80feb2306c6f6f24dd8c6b9d771256d50d69d03d7b9a38b543bd48a"


def test_shared_walk_is_never_changed():
    t = tree_from_prufer([3, 3, 7, 0, 7, 5, 5, 8, 1])
    f = remove_vertex(t, 7)
    for x in (t, f):
        walk = x.walk
        order, parent = rooted_order(x.adjacency)
        canonical_forms(x)
        forced_zero_set(x)
        optimal_assignment(x)
        _all_roots(x)
        assert x.walk is walk
        assert walk == (tuple(order), tuple(parent))

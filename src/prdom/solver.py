"""Exact perfect Roman domination on trees and forests.

A perfect Roman dominating function (PRDF) labels every vertex 0, 1, or 2
so that each 0-vertex has exactly one neighbor labeled 2; the domination
number is the minimum possible label sum. A labeling is a plain tuple of
labels indexed by vertex: its weight is its ``sum``, and ``is_valid_prdf``
is the one check of the definition. The linear-time route is a rooted
dynamic program with four states per vertex:

  A  label 0, already satisfied by exactly one child labeled 2
     (the parent must then avoid label 2)
  B  label 0, not yet satisfied inside the subtree
     (the parent must be labeled 2)
  C  label 1
  D  label 2

Admissible child states given the vertex state:

  D: children from {B, C, D}   (an A-child would see a second 2)
  A: exactly one D-child, the rest from {A, C}
  B: no D-child, all children from {A, C}
  C: children from {A, C, D}

State costs are 0, 0, 1, 2 plus the children's minima, but every decision
reads only the differences alpha = A - C, beta = B - C and delta = D - C,
so C is never stored. With a(x) = min(x, 0), m = min(alpha, 0, delta) and
sums over the children i:

  beta  = -1 + sum(a(alpha_i) - m_i)
  delta =  1 + sum(min(beta_i, 0, delta_i) - m_i)
  alpha = beta + min(delta_i - a(alpha_i))   (the cheapest swap to D)

A root's C is its subtree's size plus its other vertices' m, so the
number, over the root states A, C and D, is n plus every vertex's m. One
table covers a whole forest and is filled bottom-up along a walk
(``graphs.rooted_order``): by default the forest's own ``walk``, which
the ``Forest`` constructor made while validating, rooting every component
at its smallest vertex. The walk is kept in BFS positions, each parent
before its children, so the table is indexed by position and every pass
runs over ``range(n)``; results go back to labels once, through the
walk's ``order``. A witness is read back top-down along the same walk:
each vertex's state follows from its parent's state and the signs of its
own differences.

State A's D-child is always picked by one rule: the first child in walk
order whose swap to D, delta - a(alpha), equals the parent's
alpha - beta, the cheapest swap. The walk is a BFS over sorted adjacency,
so siblings sit in consecutive positions in ascending label order and ties
go to the lower child label. The exponential route, ``brute_force``, is a
Gray-code scan over all 2^n placements of the 2s with the forced minimal
completion, and a literal scan of all 3^n labelings (``_brute_ternary``)
stays as its reference; both are independent ground truth for small
graphs and plain Python, so the package has no runtime dependency.

The set returned by ``forced_zero_set`` contains the vertices labeled 0 by
every minimum-weight PRDF; "any" in the usual phrasing of that set is read
as "every".
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from typing import NamedTuple

from .graphs import Forest, Graph, SizeLimitError

INFEASIBLE = 1 << 60
BRUTE_FORCE_MAX_N = 16

_Adjacency = Sequence[Sequence[int]]


def is_valid_prdf(g: Graph, values: Sequence[int]) -> bool:
    """Whether ``values``, one label per vertex of ``g``, is a PRDF: every
    label lies in {0, 1, 2} and every 0-vertex has exactly one neighbor
    labeled 2."""
    adj = g.adjacency
    if len(values) != len(adj):
        return False
    for v, val in enumerate(values):
        if val == 0:
            if sum(1 for u in adj[v] if values[u] == 2) != 1:
                return False
        elif val not in (1, 2):
            return False
    return True


class StateTable(NamedTuple):
    """A forest's ``number`` and, by walk position, its states' A - C,
    B - C and D - C, rooted as the walk ``_tables`` was given, or, once
    ``_reroot`` has rewritten the lists, at each vertex. alpha, beta >= -1
    and delta >= 1 - (the number of children), so all three stay small. A
    leaf has no child to swap to D: its alpha is INFEASIBLE - 1, so that
    its cheapest swap, alpha - beta, is INFEASIBLE."""

    alpha: list[int]
    beta: list[int]
    delta: list[int]
    number: int


def _tables(parent: Sequence[int]) -> StateTable:
    """Run the DP bottom-up along a walk of a forest, keeping all states.

    ``parent`` is a walk's parent array in positions, each parent before
    its children (a ``rooted_order`` result, or a generator's preorder
    array), read but never written; the adjacency itself is not needed,
    since the parent array names every edge. See StateTable.
    """
    n = len(parent)
    # Until the pass reaches v, alpha[v] holds its finished children's
    # cheapest swap to D; reaching v adds beta[v], the sum so far.
    alpha = [INFEASIBLE] * n
    beta = [-1] * n
    delta = [1] * n
    number = n
    for v in range(n - 1, -1, -1):
        bv = beta[v]
        av = alpha[v] = bv + alpha[v]
        dv = delta[v]
        m = av if av < dv else dv
        if m > 0:
            m = 0
        number += m
        p = parent[v]
        if p >= 0:
            ac = av if av < 0 else 0
            beta[p] += ac - m
            swap = dv - ac
            if swap < alpha[p]:
                alpha[p] = swap
            mb = bv if bv < dv else dv
            delta[p] += (mb if mb < 0 else 0) - m
    return StateTable(alpha, beta, delta, number)


def _reroot(parent: Sequence[int], table: StateTable) -> Iterator[int]:
    """Turn a walk's down table into the table rooted at every vertex. O(n).

    ``table`` is ``_tables``' result on the same walk, its lists rewritten
    in place top-down, one position after another: when the pass yields a
    position v, v's entries are the differences of v's whole component
    rooted at v, whose deletion leaves v's neighbour sides, so
    number(T - v) = C(v) - 1 = number(T) - 1 - min(alpha, 0, delta).
    Entries of positions not yet yielded still cover only their subtrees.
    A vertex v with parent p takes p's side away from v from p's finished
    entries: beta and delta sum over p's sides, so v's two contributions,
    a(alpha) - m and min(beta, 0, delta) - m, are subtracted; alpha adds
    the cheapest swap to D, so each vertex also keeps its second-cheapest
    swap and which side holds the cheapest. A caller may stop the pass at
    the first vertex it has seen enough of; ``_all_roots`` drains it.
    """
    alpha, beta, delta, _ = table
    n = len(parent)
    # per vertex: the second-cheapest swap over its children, and the child
    # with the cheapest, picked by the module docstring's D-child rule; the
    # cheapest itself is alpha - beta
    second = [INFEASIBLE] * n
    holder = [-1] * n
    for u, p in enumerate(parent):
        if p >= 0:
            au = alpha[u]
            swap = delta[u] - (au if au < 0 else 0)
            if holder[p] < 0 and swap == alpha[p] - beta[p]:
                holder[p] = u
            elif swap < second[p]:
                second[p] = swap
    for v, p in enumerate(parent):
        if p >= 0:
            av, bv, dv = alpha[v], beta[v], delta[v]
            # p's side away from v: p's sums less what v's subtree added
            # to them in _tables
            m = av if av < dv else dv
            if m > 0:
                m = 0
            mb = bv if bv < dv else dv
            pb = beta[p] - (av if av < 0 else 0) + m
            pa = pb + (second[p] if holder[p] == v else alpha[p] - beta[p])
            pd = delta[p] - (mb if mb < 0 else 0) + m
            # ... which v adds to its own sums as one more child
            pm = pa if pa < pd else pd
            if pm > 0:
                pm = 0
            pmb = pb if pb < pd else pd
            pac = pa if pa < 0 else 0
            swap = pd - pac
            best = av - bv
            if swap < best:
                second[v], holder[v], best = best, p, swap
            elif swap < second[v]:
                second[v] = swap
            beta[v] = bv = bv + pac - pm
            alpha[v] = bv + best
            delta[v] = dv + (pmb if pmb < 0 else 0) - pm
        yield v


def _all_roots(x: Forest) -> StateTable:
    """Root the DP at every vertex of a forest at once (rerooting). O(n).

    The down table along the forest's walk, rewritten in place by one
    drained ``_reroot`` pass: each position's entries are then the
    differences of its vertex's own component rooted there. Entries are by
    walk position; ``x.walk[0]`` names the vertices.
    """
    parent = x.walk[1]
    table = _tables(parent)
    for _ in _reroot(parent, table):
        pass
    return table


def _deletion_stable(parent: Sequence[int]) -> bool:
    """Whether deleting any one vertex of a tree leaves its number unchanged,
    from a walk's parent array alone, in any positions that put each parent
    before its children: whether min(alpha, 0, delta), or min(alpha, delta),
    is -1 at every vertex as the root. The rerooting pass yields every
    vertex, the root first, and stops at the first one that fails."""
    table = _tables(parent)
    alpha, _, delta, _ = table
    return all((alpha[v] if alpha[v] < delta[v] else delta[v]) == -1 for v in _reroot(parent, table))


def prd_number(x: Forest) -> int:
    """Perfect Roman domination number of a tree or forest (0 when empty)."""
    return _tables(x.walk[1]).number


# the label each state gives its vertex: A and B 0, C 1, D 2
_STATE_LABEL = bytes.maketrans(bytes((0, 1, 2, 3)), bytes((0, 0, 1, 2)))


def optimal_assignment(x: Forest) -> tuple[int, ...]:
    """One minimum-weight PRDF of a tree or forest, as its tuple of labels,
    from one DP table. O(n).

    The labels of each component are an optimum of that component alone.
    One pass top-down along the walk reads the table back: each vertex's
    state follows from its parent's state, a root's as if its parent were
    in state C, and under a parent in state A the D-child is the one the
    module docstring's rule picks. One scatter through the walk's order
    then puts the labels in vertex order. Deterministic: each component is
    rooted at its smallest vertex, and ties break toward the earlier state
    letter, then the lower child label.
    """
    order, parent = x.walk
    alpha, beta, delta, _ = _tables(parent)
    n = len(parent)
    state = bytearray(n)  # 0 A, 1 B, 2 C, 3 D, by position
    placed = bytearray(n)  # 1 once a vertex in state A has its D-child
    for v, p in enumerate(parent):
        above = state[p] if p >= 0 else 2
        av = alpha[v]
        if above == 0 and not placed[p] and delta[v] - (av if av < 0 else 0) == alpha[p] - beta[p]:
            placed[p] = 1
            state[v] = 3
        elif above <= 1:
            state[v] = 0 if av <= 0 else 2
        else:
            dv = delta[v]
            low = beta[v] if above == 3 else av
            if low <= 0 and low <= dv:
                state[v] = above - 2  # B under D, A under C
            elif dv >= 0:
                state[v] = 2
            else:
                state[v] = 3
    labels = bytearray(n)
    for v, label in zip(order, state.translate(_STATE_LABEL)):
        labels[v] = label
    return tuple(labels)


def forced_zero_set(x: Forest) -> frozenset[int]:
    """Vertices labeled 0 by every minimum-weight PRDF of a tree or forest.

    A vertex qualifies exactly when forcing any positive label on it costs
    strictly more than the optimum of its own component: A < min(C, D),
    that is alpha < 0 and alpha < delta, with that component rooted at the
    vertex. One rerooting pass gives every root, O(n) total.
    """
    alpha, _, delta, _ = _all_roots(x)
    return frozenset(v for v, av, dv in zip(x.walk[0], alpha, delta) if av < 0 and av < dv)


# ---------------------------------------------------------------------------
# Exhaustive ground truth.

def _brute_ternary(adj: _Adjacency) -> tuple[int, list[tuple[int, ...]]]:
    """Walk all 3^n labelings and keep the valid ones of least weight: the
    literal reference ``brute_force``'s scan must match."""
    n = len(adj)
    best: int | None = None
    found: list[tuple[int, ...]] = []
    for values in itertools.product((0, 1, 2), repeat=n):
        ok = True
        for v in range(n):
            if values[v] == 0:
                twos = 0
                for u in adj[v]:
                    if values[u] == 2:
                        twos += 1
                if twos != 1:
                    ok = False
                    break
        if not ok:
            continue
        w = sum(values)
        if best is None or w < best:
            best = w
            found = [values]
        elif w == best:
            found.append(values)
    return best if best is not None else 0, found


def _brute_two_sets(adj: _Adjacency) -> tuple[int, list[tuple[int, ...]]]:
    """Scan the 2^n placements of the label-2 set in Gray-code order.

    For a fixed 2-set S the cheapest completion is forced: vertices outside
    S with exactly one S-neighbor take 0, every other outside vertex takes
    1. Any minimum-weight PRDF arises this way, so scanning all S recovers
    both the optimum and the complete set of optimal labelings. Consecutive
    sets in the reflected Gray code differ in one vertex (Knuth, TAOCP
    Vol. 4A, 7.2.1.1), so each step updates only that vertex's label and
    its neighbours' 2-neighbour counts and labels, keeping a running weight.
    """
    n = len(adj)
    if n == 0:
        return 0, [()]
    label = [1] * n  # S starts empty: every vertex takes 1
    twos = [0] * n  # number of S-neighbours
    weight = best = n
    kept = [0]
    s = 0
    for step in range(1, 1 << n):
        # Gray codes step - 1 and step differ in step's lowest set bit
        v = (step & -step).bit_length() - 1
        s ^= 1 << v
        if label[v] == 2:
            new, change = (0 if twos[v] == 1 else 1), -1
        else:
            new, change = 2, 1
        weight += new - label[v]
        label[v] = new
        for u in adj[v]:
            k = twos[u] = twos[u] + change
            old = label[u]
            if old != 2:
                new = 0 if k == 1 else 1
                weight += new - old
                label[u] = new
        if weight < best:
            best = weight
            kept = [s]
        elif weight == best:
            kept.append(s)
    nbr = [sum(1 << u for u in nbrs) for nbrs in adj]
    out = []
    for s in kept:
        values = []
        for v in range(n):
            if (s >> v) & 1:
                values.append(2)
            elif (s & nbr[v]).bit_count() == 1:
                values.append(0)
            else:
                values.append(1)
        out.append(tuple(values))
    return best, out


def brute_force(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Exhaustive minimum over every labeling of any graph, n <= 16.

    Scans the 2^n possible label-2 sets with the forced cheapest completion
    (``_brute_two_sets``); ``_brute_ternary``, which walks all 3^n labelings
    and keeps the valid ones, is the literal reference it must match.
    Returns the number and every minimum-weight labeling, as a sorted list
    of label tuples.
    """
    adj = g.adjacency
    n = len(adj)
    if n > BRUTE_FORCE_MAX_N:
        raise SizeLimitError(f"brute force capped at n={BRUTE_FORCE_MAX_N}, got {n}")
    best, found = _brute_two_sets(adj)
    return best, sorted(found)

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

State costs are 0, 0, 1, 2 plus the children minima; state A is the usual
"sum of min(A, C) plus the cheapest swap of one child to D". At a root only
A, C, D are valid. One table covers a whole forest and is filled bottom-up
along a walk (``graphs.rooted_order``): by default the forest's own
``walk``, which roots every component at its smallest vertex and which
the ``Forest`` constructor already made while validating (a ``Forest`` is
a ``Graph`` that carries its walk, and a ``Tree`` is a one-component
``Forest``), so the solvers do not walk the graph again. The walk is kept
in BFS positions, each parent before its children, so the table is indexed
by position and every pass runs over ``range(n)``, reading its lists in
order; results go back to labels once, through the walk's ``order``. The
number is the sum, over the component roots, of the best root state. A
witness is read back top-down along the same walk: each vertex's state
follows from its parent's state and its own four costs.

State A's D-child is always picked by one rule: the first child in walk
order whose swap to D, D - min(A, C), equals the parent's A - B, the
cheapest swap. The walk is a BFS over sorted adjacency, so siblings sit in
consecutive positions in ascending label order and ties go to the lower
child label. The exponential route, ``brute_force``, is a Gray-code scan
over all 2^n placements of the 2s with the forced minimal completion, and
a literal scan of all 3^n labelings (``_brute_ternary``) stays as its
reference; both are independent ground truth for small graphs and plain
Python, so the package has no runtime dependency.

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
    """Per-position costs of the four root-directed states, over a forest,
    rooted as the walk ``_tables`` was given, or, once ``_reroot`` has
    rewritten it, with each vertex as the root of its own component.
    Entry i belongs to the vertex at walk position i. Costs at or above
    INFEASIBLE mean the state cannot be completed (a leaf cannot be
    satisfied from below, so its A entry is always INFEASIBLE).
    """

    a: list[int]
    b: list[int]
    c: list[int]
    d: list[int]


def _tables(parent: Sequence[int]) -> StateTable:
    """Run the DP bottom-up along a walk of a forest, keeping all states.

    ``parent`` is a walk's parent array in positions, each parent before
    its children (a ``rooted_order`` result, or a generator's preorder
    array), read but never written; the adjacency itself is not needed,
    since the parent array names every edge. See StateTable.
    """
    n = len(parent)
    # Until the pass reaches v, b[v] sums min(A, C) over v's finished
    # children, a[v] holds their cheapest swap to D, c[v] sums min(A, C, D)
    # and d[v] sums min(B, C, D); reaching v turns them into v's own costs.
    # Reusing the four lists keeps one live int per state, not two.
    a = [INFEASIBLE] * n
    b = [0] * n
    c = [0] * n
    d = [0] * n
    for v in range(n - 1, -1, -1):
        bv = b[v]
        av = a[v] = bv + a[v]
        cv = c[v] = 1 + c[v]
        dv = d[v] = 2 + d[v]
        p = parent[v]
        if p >= 0:
            mac = av if av < cv else cv
            b[p] += mac
            delta = dv - mac
            if delta < a[p]:
                a[p] = delta
            mbcd = bv if bv < cv else cv
            if dv < mbcd:
                mbcd = dv
            d[p] += mbcd
            c[p] += mac if mac < dv else dv
    return StateTable(a, b, c, d)


def _reroot(parent: Sequence[int], table: StateTable) -> Iterator[int]:
    """Turn a walk's down table into the table rooted at every vertex. O(n).

    ``table`` is ``_tables``' result on the same walk, rewritten in place
    top-down, one position after another: when the pass yields a position
    v, v's four entries are the costs of v's whole component rooted at v,
    so C(v) - 1 is the number of T - v, whose components are exactly v's
    neighbour sides. Entries of positions not yet yielded still cover only
    their subtrees. A vertex v with parent p takes p's side away from v
    from p's finished entries: B, C and D sum over p's sides, so v's part
    is subtracted; A adds the cheapest swap to D, so each vertex also
    keeps its second-cheapest swap and which side holds the cheapest. A
    caller may stop the pass at the first vertex it has seen enough of;
    ``_all_roots`` drains it.
    """
    a, b, c, d = table
    n = len(parent)
    # per vertex: the second-cheapest swap over its children, and the child
    # with the cheapest, picked by the module docstring's D-child rule; the
    # cheapest itself is A - B
    second = [INFEASIBLE] * n
    holder = [-1] * n
    for u, p in enumerate(parent):
        if p >= 0:
            au, cu = a[u], c[u]
            swap = d[u] - (au if au < cu else cu)
            if holder[p] < 0 and swap == a[p] - b[p]:
                holder[p] = u
            elif swap < second[p]:
                second[p] = swap
    for v, p in enumerate(parent):
        if p >= 0:
            av, bv, cv, dv = a[v], b[v], c[v], d[v]
            # p's side away from v: p's costs less what v's subtree added
            # to them in _tables
            vac = av if av < cv else cv
            pb = b[p] - vac
            pa = pb + (second[p] if holder[p] == v else a[p] - b[p])
            pc = c[p] - (vac if vac < dv else dv)
            pd = d[p] - min(bv, cv, dv)
            # ... which v adds to its own costs as one more child
            pac = pa if pa < pc else pc
            swap = pd - pac
            best = av - bv
            if swap < best:
                second[v], holder[v], best = best, p, swap
            elif swap < second[v]:
                second[v] = swap
            b[v] = bv = bv + pac
            a[v] = bv + best
            c[v] = cv + (pac if pac < pd else pd)
            d[v] = dv + min(pb, pc, pd)
        yield v


def _all_roots(x: Forest) -> StateTable:
    """Root the DP at every vertex of a forest at once (rerooting). O(n).

    The down table along the forest's walk, rewritten in place by one
    drained ``_reroot`` pass: each position's A, C and D are then the costs
    of its vertex's own component rooted there, so the component's number
    is their minimum and C - 1 is the number of that component less the
    vertex. Entries are by walk position; ``x.walk[0]`` names the vertices.
    """
    parent = x.walk[1]
    table = _tables(parent)
    for _ in _reroot(parent, table):
        pass
    return table


def _deletion_stable(parent: Sequence[int]) -> bool:
    """Whether deleting any one vertex of a tree leaves its number unchanged,
    from a walk's parent array alone, in any positions that put each parent
    before its children.

    The down table already holds the root's whole-tree costs, so the root's
    own deletion, whose number is C(root) - 1, is checked before the
    rerooting pass starts; the pass then stops at the first vertex whose
    deletion changes the number.
    """
    table = _tables(parent)
    a, _, c, d = table
    number = min(a[0], c[0], d[0])
    return c[0] - 1 == number and all(c[v] - 1 == number for v in _reroot(parent, table))


def prd_number(x: Forest) -> int:
    """Perfect Roman domination number of a tree or forest (0 when empty)."""
    parent = x.walk[1]
    a, _, c, d = _tables(parent)
    return sum(min(a[v], c[v], d[v]) for v, p in enumerate(parent) if p < 0)


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
    a, b, c, d = _tables(parent)
    n = len(parent)
    state = bytearray(n)  # 0 A, 1 B, 2 C, 3 D, by position
    placed = bytearray(n)  # 1 once a vertex in state A has its D-child
    for v, p in enumerate(parent):
        above = state[p] if p >= 0 else 2
        av, cv = a[v], c[v]
        if above == 0 and not placed[p] and d[v] - (av if av < cv else cv) == a[p] - b[p]:
            placed[p] = 1
            state[v] = 3
        elif above <= 1:
            state[v] = 0 if av <= cv else 2
        else:
            dv = d[v]
            low = b[v] if above == 3 else av
            if low <= cv and low <= dv:
                state[v] = above - 2  # B under D, A under C
            elif cv <= dv:
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
    strictly more than the optimum of its own component: A < min(C, D) with
    that component rooted at the vertex (on a tree, min(C, D) > gamma). One
    rerooting pass gives every root, O(n) total.
    """
    costs = _all_roots(x)
    return frozenset(
        v
        for v, av, cv, dv in zip(x.walk[0], costs.a, costs.c, costs.d)
        if av < cv and av < dv
    )


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

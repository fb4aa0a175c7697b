"""Canonical byte encodings of unrooted trees, one per forest component.

Two trees get the same encoding exactly when they are isomorphic. Each
component is rooted at its centroid; with two centroids the central edge is
cut and both orientations of the pair encoding are tried, keeping the
smaller. The rooted encoding is the balanced-parenthesis form, children in
the order of per-level subtree codes (Aho, Hopcroft and Ullman, 1974). A
forest is encoded in place: the forest's own ``walk`` finds the
centroids, one ``rooted_order`` walk roots every component there, and each
level is ranked over all components at once, bottom-up. Ranking a level
pushes each vertex's code up to its parent, so the level above reads its
keys from those codes without scanning the adjacency again: O(n log n),
without recursion or relabelling.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from .graphs import Forest, Tree, rooted_order

CanonicalForm = bytes


def _centroids(order: Sequence[int], parent: Sequence[int]) -> list[list[int]]:
    """Each component's one or two centroids, ascending, from a walk that
    roots every component at its smallest vertex (``Forest.walk``);
    components in order of their smallest vertex."""
    size = [1] * len(order)
    widest = [0] * len(order)  # largest child-subtree size
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            if size[v] > widest[p]:
                widest[p] = size[v]
    # v is a centroid exactly when no component of T - v exceeds half of T
    out: list[list[int]] = []
    for v in order:
        if parent[v] < 0:
            total = size[v]
            half = total // 2
            out.append([])
        if widest[v] <= half and total - size[v] <= half:
            out[-1].append(v)
    return [sorted(cs) for cs in out]


def centroids(t: Tree) -> tuple[int, ...]:
    """The one or two vertices minimizing the largest component of T - v."""
    return tuple(_centroids(*t.walk)[0])


def _parenthesize(table: list[tuple[int, ...]], code: int) -> bytes:
    """The parenthesis string of a subtree class, children in code order."""
    out = bytearray()
    stack = [code]
    while stack:
        c = stack.pop()
        if c < 0:
            out.append(41)  # )
            continue
        out.append(40)  # (
        stack.append(-1)
        stack.extend(reversed(table[c]))
    return bytes(out)


def canonical_forms(x: Forest) -> list[CanonicalForm]:
    """One relabeling-invariant form per component, in order of each
    component's smallest vertex: equal forms iff isomorphic components."""
    adj = x.adjacency
    cents = _centroids(*x.walk)
    order, parent = rooted_order(adj, [cs[0] for cs in cents])
    for cs in cents:
        if len(cs) == 2:
            parent[cs[1]] = -1  # cut the central edge: two rooted halves
    levels: list[list[int]] = []
    code = [0] * len(adj)  # the depth, until the vertex's level is ranked
    for v in order:
        p = parent[v]
        d = code[v] = code[p] + 1 if p >= 0 else 0
        if d == len(levels):
            levels.append([])
        levels[d].append(v)
    # Isomorphic subtrees share a code c; table[c] holds its sorted child
    # codes, which alone rank the level, so one ranking serves every tree.
    # pushed[v] collects the codes of v's children as their level is ranked.
    table: list[tuple[int, ...]] = []
    pushed: defaultdict[int, list[int]] = defaultdict(list)
    for level in reversed(levels):
        keys = [tuple(sorted(pushed[v])) if v in pushed else () for v in level]
        distinct = sorted(set(keys))
        rank = {key: c for c, key in enumerate(distinct, len(table))}
        table += distinct
        pushed = defaultdict(list)
        for v, key in zip(level, keys):
            c = code[v] = rank[key]
            p = parent[v]
            if p >= 0:
                pushed[p].append(c)
    forms = []
    for cs in cents:
        # no encoding is a prefix of another, so sorted halves give the
        # smaller of the two concatenations
        halves = sorted(_parenthesize(table, code[c]) for c in cs)
        forms.append((b"B" if len(cs) == 2 else b"C") + b"".join(halves))
    return forms


def canonical_form(t: Tree) -> CanonicalForm:
    """Relabeling-invariant encoding: equal forms iff isomorphic trees."""
    (form,) = canonical_forms(t)
    return form

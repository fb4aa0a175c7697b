"""Canonical byte encodings of unrooted trees, one per forest component.

Two trees get the same encoding exactly when they are isomorphic. Each
component is rooted at its centroid; with two centroids the central edge is
cut and both orientations of the pair encoding are tried, keeping the
smaller. The rooted encoding is the balanced-parenthesis form, children in
the order of per-level subtree codes (Aho, Hopcroft and Ullman, 1974). A
forest is encoded in place: one ``rooted_order`` walk finds the centroids, a
second roots every component there, and each level is ranked over all
components at once: O(n log n), without recursion or relabelling.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graphs import Forest, Tree, rooted_order

CanonicalForm = bytes


def _centroids(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Each component's one or two centroids, ascending; components in order
    of their smallest vertex."""
    order, parent = rooted_order(adj)
    size = [1] * len(adj)
    widest = [0] * len(adj)  # largest child-subtree size
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
    return tuple(_centroids(t.adjacency)[0])


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


def canonical_forms(x: Tree | Forest) -> list[CanonicalForm]:
    """One relabeling-invariant form per component, in order of each
    component's smallest vertex: equal forms iff isomorphic components."""
    adj = x.adjacency
    cents = _centroids(adj)
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
    table: list[tuple[int, ...]] = []
    for level in reversed(levels):
        keys = [tuple(sorted([code[u] for u in adj[v] if parent[u] == v])) for v in level]
        distinct = sorted(set(keys))
        rank = {key: c for c, key in enumerate(distinct, len(table))}
        table += distinct
        for v, key in zip(level, keys):
            code[v] = rank[key]
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

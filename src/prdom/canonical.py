"""Canonical byte encodings of unrooted trees.

Two trees get the same encoding exactly when they are isomorphic. The tree
is rooted at its centroid; with two centroids the central edge is split and
both orientations of the pair encoding are tried, keeping the smaller. The
rooted encoding is the classic balanced-parenthesis form with children in a
canonical order, computed level by level with code interning so the whole
thing runs in O(n log n) without recursion.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graphs import Tree, rooted_order

CanonicalForm = bytes


def centroids(t: Tree) -> tuple[int, ...]:
    """The one or two vertices minimizing the largest component of T - v."""
    n = t.n
    order, parent = rooted_order(t.adjacency)
    size = [1] * n
    widest = [0] * n  # largest child-subtree size
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            if size[v] > widest[p]:
                widest[p] = size[v]
    best = n
    out: list[int] = []
    for v in range(n):
        w = widest[v]
        up = n - size[v]
        if up > w:
            w = up
        if w < best:
            best = w
            out = [v]
        elif w == best:
            out.append(v)
    return tuple(out)


def _rooted_encoding(adj: Sequence[Sequence[int]], root: int, skip: int = -1) -> bytes:
    """Canonical parenthesis string of the component of ``root``, rooted there.

    ``skip`` cuts one vertex out of the walk, which is how a bicentroidal
    tree is split along its central edge.
    """
    n = len(adj)
    parent = [-2] * n
    order = [root]
    parent[root] = root
    if skip >= 0:
        parent[skip] = -3
    for v in order:
        for u in adj[v]:
            if parent[u] == -2:
                parent[u] = v
                order.append(u)
    parent[root] = -1
    depth = {root: 0}
    children: dict[int, list[int]] = {v: [] for v in order}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
        children[parent[v]].append(v)
    by_depth: dict[int, list[int]] = {}
    for v in order:
        by_depth.setdefault(depth[v], []).append(v)
    # Assign per-level ids: vertices with isomorphic subtrees share an id.
    code: dict[int, int] = {}
    for d in sorted(by_depth, reverse=True):
        keyed = []
        for v in by_depth[d]:
            kids = sorted(code[u] for u in children[v])
            keyed.append((tuple(kids), v))
        keyed.sort(key=lambda kv: kv[0])
        rank = 0
        prev = None
        for key, v in keyed:
            if key != prev:
                if prev is not None:
                    rank += 1
                prev = key
            code[v] = rank
    for v in order:
        children[v].sort(key=code.__getitem__)
    out = bytearray()
    stack: list[tuple[int, int]] = [(root, 0)]
    while stack:
        v, i = stack.pop()
        if i == 0:
            out.append(40)  # (
        kids = children[v]
        if i < len(kids):
            stack.append((v, i + 1))
            stack.append((kids[i], 0))
        else:
            out.append(41)  # )
    return bytes(out)


def canonical_form(t: Tree) -> CanonicalForm:
    """Relabeling-invariant encoding: equal forms iff isomorphic trees."""
    cs = centroids(t)
    adj = t.adjacency
    if len(cs) == 1:
        return b"C" + _rooted_encoding(adj, cs[0])
    c1, c2 = cs
    e1 = _rooted_encoding(adj, c1, skip=c2)
    e2 = _rooted_encoding(adj, c2, skip=c1)
    return b"B" + min(e1 + e2, e2 + e1)

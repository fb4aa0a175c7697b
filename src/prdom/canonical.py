"""Canonical byte encodings of unrooted trees, one per forest component.

Two trees get the same encoding exactly when they are isomorphic. Each
component is rooted at its centroid; with two centroids the central edge is
cut and both orientations of the pair encoding are tried, keeping the
smaller. The rooted encoding is the balanced-parenthesis form, children in
the order of per-level subtree codes (Aho, Hopcroft and Ullman, 1974). A
forest is encoded in place, from its walk's parent array alone: the walk
finds the centroids, reversing the parent links from each walk root down
to its centroid roots the component there, and each level is ranked over
all components at once, bottom-up. The walk puts each parent before its
children (BFS positions, or the family closure's construction labels), so
every pass runs over the positions in turn and no label is read: a form
does not depend on them. Ranking a level pushes each vertex's code up to its
parent, in ascending order, so the level above sorts by those lists
without scanning the adjacency: O(n log n), without recursion or
relabelling.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graphs import Forest, Tree

CanonicalForm = bytes


def _centroids(parent: Sequence[int]) -> list[list[int]]:
    """Each component's one or two centroids, as ascending walk positions,
    from a walk's parent array in positions that roots every component at
    its smallest vertex (``Forest.walk``); components in order of their
    smallest vertex. Two centroids are adjacent, so the first is the
    second's walk parent."""
    n = len(parent)
    size = [1] * n
    widest = [0] * n  # largest child-subtree size
    for v in range(n - 1, 0, -1):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            if size[v] > widest[p]:
                widest[p] = size[v]
    # v is a centroid exactly when no component of T - v exceeds half of T
    out: list[list[int]] = []
    for v, p in enumerate(parent):
        if p < 0:
            total = size[v]
            half = total // 2
            out.append([])
        if widest[v] <= half and total - size[v] <= half:
            out[-1].append(v)
    return out


def centroids(t: Tree) -> tuple[int, ...]:
    """The one or two vertices minimizing the largest component of T - v."""
    order, parent = t.walk
    return tuple(sorted(order[v] for v in _centroids(parent)[0]))


def _parenthesize(table: list[list[int]], code: int) -> bytes:
    """The parenthesis string of a subtree class, children in code order. A
    chain of single-child classes opens as one run of ``(`` and, once the
    chain's last class is written, closes as one run of ``)``."""
    out = bytearray()
    stack = [code]  # a code to write, or minus the length of a run to close
    while stack:
        c = stack.pop()
        if c < 0:
            out += b")" * -c
            continue
        run = 1
        kids = table[c]
        while len(kids) == 1:
            run += 1
            kids = table[kids[0]]
        out += b"(" * run
        if kids:
            stack.append(-run)
            stack.extend(reversed(kids))
        else:
            out += b")" * run
    return bytes(out)


def _forms(walk_parent: Sequence[int]) -> list[CanonicalForm]:
    """``canonical_forms`` from a walk's parent array alone: ``Forest.walk``,
    or any one tree's array that puts each parent before its children."""
    n = len(walk_parent)
    cents = _centroids(walk_parent)
    # Root each component at its centroid by reversing the walk's parent
    # links from the walk root down to it. With two centroids, the second
    # is the first's walk child: it keeps its walk subtree and the central
    # edge is cut, leaving two rooted halves.
    parent = list(walk_parent)
    depth = [0] * n
    for cs in cents:
        if len(cs) == 2:
            parent[cs[1]] = -1
        up, d, v = -1, 0, cs[0]
        while v >= 0:
            parent[v] = up
            depth[v] = d
            up, v, d = v, walk_parent[v], d + 1
    # Position by position, each vertex's new parent is its walk parent,
    # seen before it, or a vertex on a reversed path, whose depth is set
    # above. A position is an int object of its own, which only its level
    # holds, so the depths go once the levels are built, and each level
    # once it is ranked.
    levels: list[list[int]] = []
    for v, p in enumerate(parent):
        d = depth[v] = depth[p] + 1 if p >= 0 else 0
        while d >= len(levels):
            levels.append([])
        levels[d].append(v)
    del depth
    # Isomorphic subtrees share a code c; table[c] lists its child codes in
    # ascending order, which alone rank a level, so one ranking serves every
    # tree. Sorted by those lists, a level hands out its codes in ascending
    # order, so each parent's list (kids) fills up already sorted.
    leaf: list[int] = []  # shared by every vertex that has no list yet
    kids = [leaf] * n
    table: list[list[int]] = []
    root_code: dict[int, int] = {}
    while levels:
        level = levels.pop()
        level.sort(key=kids.__getitem__)
        c = len(table) - 1
        prev: list[int] | None = None
        for v in level:
            key = kids[v]
            if key != prev:
                c += 1
                table.append(key)
                prev = key
            kids[v] = leaf  # drop v's list unless the table holds it
            p = parent[v]
            if p < 0:
                root_code[v] = c
            elif kids[p] is leaf:
                kids[p] = [c]
            else:
                kids[p].append(c)
    forms = []
    for cs in cents:
        # no encoding is a prefix of another, so sorted halves give the
        # smaller of the two concatenations
        halves = sorted(_parenthesize(table, root_code[c]) for c in cs)
        forms.append((b"B" if len(cs) == 2 else b"C") + b"".join(halves))
    return forms


def canonical_forms(x: Forest) -> list[CanonicalForm]:
    """One relabeling-invariant form per component, in order of each
    component's smallest vertex: equal forms iff isomorphic components."""
    return _forms(x.walk[1])


def canonical_form(t: Tree) -> CanonicalForm:
    """Relabeling-invariant encoding: equal forms iff isomorphic trees."""
    (form,) = canonical_forms(t)
    return form

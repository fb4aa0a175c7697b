"""The label walk: reference routes for the walk kept in BFS positions.

Before ``rooted_order`` returned positions, a walk was (order, parent) with
``parent`` indexed by label and holding labels, and the DP tables, the
witness pass, the rerooting pass and the centroid search indexed their
lists by label while they followed ``order``. Those routes are kept here,
as they were, so that each position route can be compared with the one it
replaced, byte for byte. The tables here keep the four absolute costs A,
B, C and D, as the DP did before it stored only the differences from C,
so they are also the reference for the difference table.
``forms_by_second_walk`` is the canonical encoder from before the digest
re-rooted the forest's own walk, on the label walk.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from prdom.solver import _STATE_LABEL, INFEASIBLE


class Costs(NamedTuple):
    """The absolute costs of the four root-directed states, by label."""

    a: list[int]
    b: list[int]
    c: list[int]
    d: list[int]


def rooted_order(adj: Sequence[Sequence[int]], roots: Iterable[int] = ()) -> tuple[list[int], list[int]]:
    """BFS order and, by label, each vertex's parent label (-1 at a root)."""
    n = len(adj)
    parent = [-1] * n
    seen = bytearray(n)
    order: list[int] = []
    for s in itertools.chain(roots, range(n)):
        if seen[s]:
            continue
        seen[s] = 1
        component = [s]
        for v in component:
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = 1
                    parent[u] = v
                    component.append(u)
        order += component
    return order, parent


def walk(x) -> tuple[list[int], list[int]]:
    """The label walk of a forest: its default ``rooted_order``."""
    return rooted_order(x.adjacency)


def tables(order: Sequence[int], parent: Sequence[int]) -> Costs:
    """The DP bottom-up along a label walk; entries by label."""
    n = len(order)
    a = [INFEASIBLE] * n
    b = [0] * n
    c = [0] * n
    d = [0] * n
    for v in reversed(order):
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
    return Costs(a, b, c, d)


def reroot(order: Sequence[int], parent: Sequence[int], table: Costs) -> Iterator[int]:
    """The rerooting pass along a label walk, rewriting ``table`` in place."""
    a, b, c, d = table
    n = len(order)
    second = [INFEASIBLE] * n
    holder = [-1] * n
    for v in order:
        p = parent[v]
        if p >= 0:
            av, cv = a[v], c[v]
            swap = d[v] - (av if av < cv else cv)
            if holder[p] < 0 and swap == a[p] - b[p]:
                holder[p] = v
            elif swap < second[p]:
                second[p] = swap
    for v in order:
        p = parent[v]
        if p >= 0:
            av, bv, cv, dv = a[v], b[v], c[v], d[v]
            vac = av if av < cv else cv
            pb = b[p] - vac
            pa = pb + (second[p] if holder[p] == v else a[p] - b[p])
            pc = c[p] - (vac if vac < dv else dv)
            pd = d[p] - min(bv, cv, dv)
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


def all_roots(x) -> Costs:
    order, parent = walk(x)
    table = tables(order, parent)
    for _ in reroot(order, parent, table):
        pass
    return table


def witness(x) -> tuple[int, ...]:
    """The top-down witness pass along the label walk."""
    order, parent = walk(x)
    a, b, c, d = tables(order, parent)
    n = len(parent)
    state = bytearray(n)
    placed = bytearray(n)
    for v in order:
        p = parent[v]
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
                state[v] = above - 2
            elif cv <= dv:
                state[v] = 2
            else:
                state[v] = 3
    return tuple(state.translate(_STATE_LABEL))


def forced_zero_set(x) -> frozenset[int]:
    a, _, c, d = all_roots(x)
    return frozenset(v for v, (av, cv, dv) in enumerate(zip(a, c, d)) if av < cv and av < dv)


def deltas(t) -> tuple[int, tuple[int, ...]]:
    """(base, deltas) of a tree, as ``stability_report`` gives them."""
    a, _, c, d = all_roots(t)
    base = min(a[0], c[0], d[0])
    return base, tuple(cv - 1 - base for cv in c)


def centroids(order: Sequence[int], parent: Sequence[int]) -> list[list[int]]:
    """Each component's one or two centroid labels, ascending, from a label
    walk that roots every component at its smallest vertex."""
    size = [1] * len(order)
    widest = [0] * len(order)
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            if size[v] > widest[p]:
                widest[p] = size[v]
    out: list[list[int]] = []
    for v in order:
        if parent[v] < 0:
            total = size[v]
            half = total // 2
            out.append([])
        if widest[v] <= half and total - size[v] <= half:
            out[-1].append(v)
    return [sorted(cs) for cs in out]


def _parenthesize_by_sentinels(table: list[tuple[int, ...]], code: int) -> bytes:
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


def forms_by_second_walk(x) -> list[bytes]:
    """One relabeling-invariant form per component, in order of each
    component's smallest vertex, from a second label walk rooted at the
    centroids and a fresh dict of pushed codes per level."""
    adj = x.adjacency
    cents = centroids(*walk(x))
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
        halves = sorted(_parenthesize_by_sentinels(table, code[c]) for c in cs)
        forms.append((b"B" if len(cs) == 2 else b"C") + b"".join(halves))
    return forms

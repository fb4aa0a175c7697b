"""Reference answers computed without importing prdom.

A perfect Roman dominating function (PRDF) labels every vertex 0, 1 or 2 so
that each 0-vertex has exactly one neighbour labelled 2. The minimum weight
on a forest comes from a rooted dynamic program over four states per vertex:
A (0, satisfied by one child labelled 2), B (0, waiting for a parent labelled
2), C (label 1) and D (label 2). It is written here from that definition so
that the benchmark's checks do not rely on the code they check.
"""

from __future__ import annotations

INF = 1 << 60


def adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_prdf(adj: list[list[int]], values: list[int]) -> bool:
    """Every label is 0, 1 or 2 and every 0-vertex has exactly one 2-neighbour."""
    if len(values) != len(adj):
        return False
    for v, val in enumerate(values):
        if val == 0:
            if sum(1 for u in adj[v] if values[u] == 2) != 1:
                return False
        elif val not in (1, 2):
            return False
    return True


def _root_states(adj: list[list[int]], root: int, seen: bytearray) -> tuple[int, int, int, int]:
    """(A, B, C, D) costs at ``root`` for the part of its component not yet ``seen``."""
    seen[root] = 1
    order = [root]
    parent = {root: -1}
    for v in order:
        for u in adj[v]:
            if not seen[u]:
                seen[u] = 1
                parent[u] = v
                order.append(u)
    # per vertex: sum over children of min(A, C), best D-swap, sum of min(B, C, D), sum of min(A, C, D)
    acc = {v: [0, INF, 0, 0] for v in order}
    for v in reversed(order):
        s_ac, swap, s_bcd, s_acd = acc[v]
        a, b, c, d = s_ac + swap, s_ac, 1 + s_acd, 2 + s_bcd
        p = parent[v]
        if p < 0:
            return a, b, c, d
        pa = acc[p]
        ac = min(a, c)
        pa[0] += ac
        pa[1] = min(pa[1], d - ac)
        pa[2] += min(b, c, d)
        pa[3] += min(ac, d)
    raise AssertionError("unreachable")


def prd_number(adj: list[list[int]], removed: int = -1) -> int:
    """Minimum PRDF weight of the forest, optionally with one vertex deleted."""
    seen = bytearray(len(adj))
    if removed >= 0:
        seen[removed] = 1
    total = 0
    for s in range(len(adj)):
        if not seen[s]:
            a, _, c, d = _root_states(adj, s, seen)
            total += min(a, c, d)
    return total


def forced_zero(adj: list[list[int]], v: int, number: int) -> bool:
    """True when every minimum-weight PRDF of the tree labels ``v`` with 0."""
    _, _, c, d = _root_states(adj, v, bytearray(len(adj)))
    return min(c, d) > number

"""Seeded, stdlib-only input generators for the prdom benchmark.

Every random choice comes from a ``random.Random`` the caller seeds, so one
seed gives byte-identical input files. A graph is ``(n, edges)`` with
vertices 0..n-1 and ``edges`` a list of ``(u, v)`` pairs.
"""

from __future__ import annotations

import heapq
import random


def prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of the uniform random labelled tree with a random Pruefer sequence."""
    if n <= 2:
        return path_tree(n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def path_tree(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_tree(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def caterpillar_tree(n: int) -> list[tuple[int, int]]:
    """A spine of n // 3 vertices with the other vertices hung round-robin as leaves."""
    spine = max(1, n // 3)
    edges = path_tree(spine)
    edges.extend((i % spine, i) for i in range(spine, n))
    return edges


def disjoint_union(parts: list[tuple[int, list[tuple[int, int]]]]) -> tuple[int, list[tuple[int, int]]]:
    n = 0
    edges: list[tuple[int, int]] = []
    for size, part in parts:
        edges.extend((u + n, v + n) for u, v in part)
        n += size
    return n, edges


def shuffled(n: int, edges: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    """Relabel by a random permutation, flip each edge at random, shuffle edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The prdom edge-list format: the vertex count, then one "u v" line per edge."""
    return "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in edges])


def graph6_text(n: int, edges: list[tuple[int, int]]) -> str:
    """One graph6 line (no header): size field, then the upper triangle column by column."""
    if n < 63:
        head = [n + 63]
    else:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    nbits = n * (n - 1) // 2
    bits = bytearray(nbits + (-nbits) % 6)
    for u, v in edges:
        i, j = (u, v) if u < v else (v, u)
        bits[j * (j - 1) // 2 + i] = 1
    body = [
        63 + (bits[k] << 5 | bits[k + 1] << 4 | bits[k + 2] << 3 | bits[k + 3] << 2 | bits[k + 4] << 1 | bits[k + 5])
        for k in range(0, len(bits), 6)
    ]
    return bytes(head + body).decode("ascii") + "\n"


def read_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of ``graph6_text``; raises ValueError on a malformed line."""
    data = line.strip().encode("ascii")
    if not data or any(not 63 <= b <= 126 for b in data):
        raise ValueError("not a graph6 line")
    if data[0] == 126:
        if len(data) < 4:
            raise ValueError("truncated graph6 size field")
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {(nbits + 5) // 6}")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] - 63) >> (5 - k % 6) & 1:
                edges.append((i, j))
            k += 1
    return n, edges

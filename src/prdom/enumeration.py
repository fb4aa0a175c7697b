"""Exhaustive generation of trees.

``enumerate_free_trees`` yields one representative per isomorphism class in
a single stage: the Wright-Richmond-Odlyzko-McKay generator walks canonical
level sequences rooted at a center and emits each free tree exactly once,
so nothing is filtered or deduplicated afterwards. The generator itself
(``_free_tree_parents``) yields parent arrays in preorder, which already
are walks; ``enumerate_free_trees`` is their ``Tree`` view, and a caller
that needs only a walk skips building the ``Tree``. The independent
cross-check path, generating every labeled tree from its Prufer sequence,
lives here too; it is exponentially slower and exists so the two
generators can be compared on small orders.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Iterator, Sequence

from .graphs import Graph, Tree, make_path

FREE_TREE_MAX_N = 18


def _next_rooted(seq: list[int], p: int | None = None) -> list[int] | None:
    """Beyer-Hedetniemi successor of a canonical level sequence, or None.

    The root has level 1; a sequence is canonical when every vertex's child
    sequences appear in non-increasing lexicographic order. The successor
    truncates at position ``p`` (by default the rightmost level > 2) and
    tiles the block starting at that vertex's parent.
    """
    if p is None:
        p = len(seq) - 1
        while p > 0 and seq[p] <= 2:
            p -= 1
        if p == 0:
            return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    nxt = seq[:p]
    for i in range(p, len(seq)):
        nxt.append(nxt[i - p + q])
    return nxt


def _sequence_parents(seq: Sequence[int]) -> list[int]:
    parent = [-1] * len(seq)
    last_at_level: list[int] = []
    for v, lev in enumerate(seq):
        if lev > 1:
            parent[v] = last_at_level[lev - 2]
        if lev - 1 < len(last_at_level):
            last_at_level[lev - 1] = v
            del last_at_level[lev:]
        else:
            last_at_level.append(v)
    return parent


def _parents_to_tree(parent: list[int]) -> Tree:
    n = len(parent)
    return Tree(Graph._from_edges(n, ((parent[v], v) for v in range(1, n))))


def _split_first_subtree(seq: Sequence[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree and the tree left when it is cut off.

    Both come back as level sequences with the root at level 1.
    """
    m = 2
    while m < len(seq) and seq[m] != 2:
        m += 1
    return [lev - 1 for lev in seq[1:m]], [1, *seq[m:]]


def _free_tree_parents(n: int) -> Iterator[list[int]]:
    """The parent array of one tree per isomorphism class, n >= 1.

    Wright, Richmond, Odlyzko and McKay (SIAM J. Comput. 15(2), 1986): walk
    the canonical level sequences rooted at a center and keep those whose
    first root subtree is not above the rest of the tree in (height, size,
    level sequence) order. When a sequence fails the test, the walk jumps
    straight to the next one that passes, so every class is produced
    exactly once and in constant amortized time. A level sequence lists its
    tree in preorder, so every parent precedes its children and the array
    is a walk's parent array in positions, with vertex i at position i;
    the root is vertex 0.
    """
    if n <= 2:
        yield list(range(-1, n - 1))
        return
    # the path, rooted at its center
    seq: list[int] | None = list(range(1, n // 2 + 2)) + list(range(2, (n + 1) // 2 + 1))
    while seq is not None:
        left, rest = _split_first_subtree(seq)
        if (max(left), len(left), left) > (max(rest), len(rest), rest):
            # stepping at the first subtree's last vertex skips every sequence
            # keeping that subtree; from level 4 on the tiling leaves the rest
            # empty, so the tail becomes a path from the root just as tall
            p = len(left)
            jumped = _next_rooted(seq, p)
            if seq[p] > 3:
                top = max(_split_first_subtree(jumped)[0])
                jumped[n - top :] = range(2, top + 2)
            seq = jumped
        yield _sequence_parents(seq)
        seq = _next_rooted(seq)


def enumerate_free_trees(n: int) -> Iterator[Tree]:
    """One tree per isomorphism class, in a fixed deterministic order: the
    ``Tree`` of each parent array ``_free_tree_parents`` yields."""
    if not (1 <= n <= FREE_TREE_MAX_N):
        raise ValueError(f"supported range is 1..{FREE_TREE_MAX_N}, got {n}")
    for parent in _free_tree_parents(n):
        yield _parents_to_tree(parent)


def tree_from_prufer(seq: Sequence[int]) -> Tree:
    """The labeled tree on len(seq)+2 vertices with the given Prufer sequence.

    Inverse of the classic encoding: repeatedly join the smallest leaf to
    the next sequence entry.
    """
    n = len(seq) + 2
    degree = [1] * n
    for x in seq:
        if not (0 <= x < n):
            raise ValueError(f"label {x} outside 0..{n - 1}")
        degree[x] += 1
    edges: list[tuple[int, int]] = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree(Graph._from_edges(n, edges))


def all_labeled_trees(n: int) -> Iterator[Tree]:
    """Every labeled tree on n vertices (n^(n-2) of them). Small n only."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n <= 2:
        yield make_path(n)
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield tree_from_prufer(seq)


def random_labeled_tree(n: int, rng: random.Random) -> Tree:
    """Uniform random labeled tree via a random Prufer sequence."""
    if n <= 2:
        return make_path(n)
    return tree_from_prufer([rng.randrange(n) for _ in range(n - 2)])

"""Labeled graphs, trees, and forests with dense 0-based vertex labels.

Vertices are always the integers 0..n-1. Adjacency is kept as a tuple of
sorted tuples, which makes every structure hashable-by-content, cheap to
share between operations, and safe to read from multiple threads.

A ``Graph`` is plain immutable data: its order and adjacency. A ``Forest``
is a ``Graph`` that carries its walk: built from a graph, it shares that
graph's adjacency, walks it once while it validates, and keeps the walk as
``Forest.walk``: the ``rooted_order`` of the adjacency with every component
rooted at its smallest vertex, as two tuples. A walk is kept in BFS
positions: ``order[i]`` is the label at position i and ``parent[i]`` the
position of its parent. The DP tables, the witness, the rerooting pass and
the canonical digest, which finds the centroids on it and re-roots it
there, read it instead of walking the graph again; each loops over the
positions in turn and so reads its arrays in order, and only its results
go back to labels, through ``order``.
A ``Tree`` is a ``Forest`` with one component. Equality and hashing are by
content, so a ``Tree`` equals the ``Graph`` it was built from.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence


class ParseError(ValueError):
    """Malformed textual graph input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SizeLimitError(ValueError):
    """Input too large for an exhaustive routine or a declared size cap."""


class InvalidStepError(ValueError):
    """A certificate step that the construction rules reject."""


# parse_edge_list checks n against this before it allocates per-vertex lists
EDGE_LIST_MAX_N = 10_000_000

# (order, parent) of a rooted_order walk, in positions, frozen so that one
# can be shared
Walk = tuple[tuple[int, ...], tuple[int, ...]]


class Graph:
    """Simple undirected graph: no loops, no parallel edges."""

    __slots__ = ("n", "adjacency")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.adjacency = _sorted_adjacency(n, _checked_edges(n, edges))
        if (repeat := _repeated_edge(self.adjacency)) is not None:
            raise ValueError(f"duplicate edge {repeat}")

    @staticmethod
    def _from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Trusted: in-range, loop-free edges, repeats unchecked; always a plain Graph."""
        return Graph._from_adjacency(_sorted_adjacency(n, edges))

    @staticmethod
    def _from_adjacency(adjacency: tuple[tuple[int, ...], ...]) -> Graph:
        """Trusted: sorted neighbor tuples, repeats unchecked; always a plain Graph."""
        g = object.__new__(Graph)
        g.n = len(adjacency)
        g.adjacency = adjacency
        return g

    @property
    def m(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={self.edges()!r})"


def _checked_edges(n: int, edges: Iterable[tuple[int, int]]) -> Iterable[tuple[int, int]]:
    """The edges, each checked to be in range and not a loop as it is read."""
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has a label outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        yield u, v


def _sorted_adjacency(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor tuples of n vertices from in-range, loop-free edges."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return _frozen(adj)


def _frozen(adj: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The neighbor lists, each sorted in place, as tuples."""
    for nbrs in adj:
        nbrs.sort()
    return tuple(map(tuple, adj))


def _repeated_edge(adjacency: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """The one duplicate-edge rule: the least edge (u, v), u < v, that a sorted
    adjacency lists twice, as two equal neighbors in a row of u; or None."""
    for u, nbrs in enumerate(adjacency):
        for i in range(1, len(nbrs)):
            if nbrs[i] == nbrs[i - 1]:
                return u, nbrs[i]
    return None


def _induced(g: Graph, verts: Sequence[int]) -> Graph:
    """The subgraph induced by the ascending ``verts``, verts[i] relabeled i."""
    index = {old: new for new, old in enumerate(verts)}
    edges = ((index[u], index[w]) for u in verts for w in g.adjacency[u] if u < w and w in index)
    return Graph._from_edges(len(verts), edges)


class Forest(Graph):
    """A Graph whose every component is a tree, with its walk.

    ``Forest(graph)`` shares the graph's order and adjacency, walks it once
    and keeps the result as ``walk``; the check counts: a graph is a forest
    exactly when m = n - c, where c is the number of components, the roots
    of its walk, which come in order of each component's smallest vertex
    label. A Forest compares and hashes as the Graph it is.
    """

    __slots__ = ("walk", "ncomponents")

    def __init__(self, graph: Graph):
        order, parent = rooted_order(graph.adjacency)
        self.n = graph.n
        self.adjacency = graph.adjacency
        self.ncomponents = parent.count(-1)
        self._check(order, parent)
        self.walk: Walk = (tuple(order), tuple(parent))

    def _check(self, order: list[int], parent: list[int]) -> None:
        if self.m != self.n - self.ncomponents:
            # name the first component whose degree sum exceeds 2(size - 1);
            # a component's positions run from its root to the next root
            adj = self.adjacency
            surplus = 0
            for v, p in zip(order, parent):
                if p < 0:
                    if surplus:
                        break
                    head, surplus = v, 2
                surplus += len(adj[v]) - 2
            raise ValueError(f"component containing vertex {head} has a cycle")

    def component_trees(self) -> list[tuple[Tree, tuple[int, ...]]]:
        """Each component as a densely relabeled Tree with its original labels.

        Returns pairs (tree, labels) in order of each component's smallest
        vertex, where labels is ascending and labels[i] is the original
        label of the tree's vertex i. A component's labels are those at its
        run of walk positions, from its root to the next root, sorted.
        """
        order, parent = self.walk
        roots = [i for i, p in enumerate(parent) if p < 0]
        runs = (sorted(order[a:b]) for a, b in zip(roots, [*roots[1:], self.n]))
        return [(Tree(_induced(self, verts)), tuple(verts)) for verts in runs]


class Tree(Forest):
    """A connected acyclic Graph: a Forest with one component. Every Tree is
    checked by the Forest constructor, with the checks here in place of the
    cycle count: no vertices, then the edge count, then one root in its walk."""

    __slots__ = ()

    def _check(self, order: list[int], parent: list[int]) -> None:
        n = self.n
        if n == 0:
            raise ValueError("a tree needs at least one vertex")
        if self.m != n - 1:
            raise ValueError(f"tree on {n} vertices must have {n - 1} edges, got {self.m}")
        if self.ncomponents != 1:
            raise ValueError("graph is not connected")


def _parents_to_tree(parent: Sequence[int]) -> Tree:
    """The tree in which each vertex v > 0 hangs off parent[v]."""
    n = len(parent)
    return Tree(Graph._from_edges(n, ((parent[v], v) for v in range(1, n))))


def rooted_order(
    adj: Sequence[Sequence[int]], roots: Iterable[int] = ()
) -> tuple[list[int], list[int]]:
    """The BFS walk of every component of a graph, in positions.

    ``order[i]`` is the vertex at position i and ``parent[i]`` the position
    of its parent, or -1 at a component root. The components of ``roots``
    come first, each rooted at the first root it contains; every other
    component follows in order of its smallest vertex, rooted there. Each
    component takes consecutive positions, every parent comes before its
    children, and siblings sit in consecutive positions in ascending label
    order, since each adjacency row is sorted.
    """
    n = len(adj)
    order = [0] * n
    parent = [-1] * n
    seen = bytearray(n)
    head = tail = 0  # the next position to expand, and the next free one
    for s in itertools.chain(roots, range(n)):
        if seen[s]:
            continue
        seen[s] = 1
        order[tail] = s
        tail += 1
        while head < tail:
            for u in adj[order[head]]:
                if not seen[u]:
                    seen[u] = 1
                    order[tail] = u
                    parent[tail] = head
                    tail += 1
            head += 1
    return order, parent


def _strict_int(token: str) -> int:
    """``int`` of an optionally negative run of ASCII digits, with the
    whitespace ``int`` allows around it; ValueError otherwise."""
    token = token.strip()
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal number: {token!r}")
    return int(token)


def _number_reader(text: str) -> Callable[[str], int]:
    """The token-to-int function for ``text``: plain ``int`` unless the text
    holds a non-ASCII character, ``_`` or ``+``, which ``int`` would read
    as Unicode digits, digit separators or a sign. One scan of the whole
    text, so plain input pays no check per token."""
    if text.isascii() and "_" not in text and "+" not in text:
        return int
    return _strict_int


def parse_edge_list(data: bytes | str) -> Graph:
    """Parse the plain edge-list format.

    First line is the vertex count n (SizeLimitError above EDGE_LIST_MAX_N),
    every following non-empty line is one edge "u v" with 0-based labels,
    each number written in ASCII decimal digits. Errors report the
    offending line number; a repeat, found by ``Graph``'s duplicate rule
    after the last line, names the second line of the least repeated edge.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"input is not valid UTF-8: cannot decode byte 0x{data[exc.start]:02x}"
                f" at offset {exc.start}"
            ) from None
    number = _number_reader(data)
    lines = data.split("\n")
    if not lines or not lines[0].strip():
        raise ParseError("missing vertex count", line=1)
    try:
        n = number(lines[0].strip())
    except ValueError:
        raise ParseError(f"vertex count is not an integer: {lines[0].strip()!r}", line=1) from None
    if n < 0:
        raise ParseError("vertex count must be non-negative", line=1)
    if n > EDGE_LIST_MAX_N:
        raise SizeLimitError(f"edge lists capped at n={EDGE_LIST_MAX_N}, got {n}")

    adj: list[list[int]] = [[] for _ in range(n)]
    # one int object per label, which every edge naming it shares; an edge
    # that kept the two it read would hold about twice as many
    label = list(range(n))
    for idx, raw in enumerate(itertools.islice(lines, 1, None), start=2):
        parts = raw.split()
        if len(parts) != 2:
            if not parts:
                continue
            raise ParseError(f"expected 'u v', got {raw.strip()!r}", line=idx)
        try:
            u, v = number(parts[0]), number(parts[1])
        except ValueError:
            raise ParseError(f"non-integer label in {raw.strip()!r}", line=idx) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"label outside 0..{n - 1} in {raw.strip()!r}", line=idx)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=idx)
        adj[u].append(label[v])
        adj[v].append(label[u])
    # neither the lines nor the labels are held while the adjacency is
    # frozen; only a repeat, found after the last line, needs the lines again
    del lines, label
    adjacency = _frozen(adj)
    if (repeat := _repeated_edge(adjacency)) is not None:
        # every line is a valid edge by now: rescan for the repeat's second line
        wanted = set(repeat)
        idx, raw = [
            (idx, raw)
            for idx, raw in enumerate(itertools.islice(data.split("\n"), 1, None), start=2)
            if set(map(number, raw.split())) == wanted
        ][1]
        raise ParseError(f"duplicate edge {raw.strip()!r}", line=idx)
    return Graph._from_adjacency(adjacency)


def emit_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list, edges sorted."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def make_path(n: int) -> Tree:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Tree(Graph._from_edges(n, ((i, i + 1) for i in range(n - 1))))


def make_star(k: int) -> Tree:
    """Star with center 0 and k leaves 1..k."""
    if k < 1:
        raise ValueError("star needs at least one leaf")
    return Tree(Graph._from_edges(k + 1, ((0, i) for i in range(1, k + 1))))


def make_double_star(p: int, q: int) -> Tree:
    """Two adjacent centers 0 and 1 with p leaves (2..p+1) and q leaves (p+2..p+q+1)."""
    if p < 1 or q < 1:
        raise ValueError("double star needs at least one leaf on each center")
    edges = [(0, 1)]
    edges.extend((0, i) for i in range(2, p + 2))
    edges.extend((1, i) for i in range(p + 2, p + q + 2))
    return Tree(Graph._from_edges(p + q + 2, edges))


def make_spider(legs: Sequence[int]) -> Tree:
    """Center 0 with one pendant path per entry of ``legs``; legs are labeled
    consecutively, each from the center outward. An empty ``legs`` gives K1."""
    edges = []
    nxt = 1
    for leg in legs:
        if leg < 1:
            raise ValueError("leg lengths must be positive")
        prev = 0
        for _ in range(leg):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(Graph._from_edges(nxt, edges))


def _bfs_distances(adj: Sequence[Sequence[int]], start: int) -> list[int]:
    """Distances from ``start`` within its component; every other component
    counts from its smallest vertex."""
    order, parent = rooted_order(adj, (start,))
    depth = [0] * len(adj)  # by position
    dist = [0] * len(adj)  # by label
    for i, p in enumerate(parent):
        if p >= 0:
            dist[order[i]] = depth[i] = depth[p] + 1
    return dist


def diameter(t: Tree) -> int:
    """Number of edges on a longest path (0 for K1): ``longest_path``'s."""
    return len(longest_path(t)) - 1


def longest_path(t: Tree) -> list[int]:
    """A deterministic longest path, as a vertex sequence.

    It starts at the lowest vertex whose eccentricity is the diameter (a
    leaf, unless the tree is K1) and descends from there, taking the
    smallest label that still reaches the full length: among all
    diameter-realizing paths it is the lexicographically smallest.
    """
    adj = t.adjacency
    d0 = _bfs_distances(adj, 0)
    dist_a = _bfs_distances(adj, d0.index(max(d0)))
    diam = max(dist_a)
    dist_b = _bfs_distances(adj, dist_a.index(diam))
    # In a tree every eccentricity is realized against one of the two
    # diameter endpoints, so ecc(v) = max(dist_a[v], dist_b[v]).
    start = next(v for v in range(t.n) if max(dist_a[v], dist_b[v]) == diam)
    # Root at start; a path from the root is a descent, so greedily take the
    # smallest child whose downward height still reaches the full length.
    order, parent = rooted_order(adj, (start,))
    height = [0] * t.n  # by position
    for i in range(t.n - 1, 0, -1):
        p = parent[i]
        if height[i] >= height[p]:
            height[p] = height[i] + 1
    # Each vertex's children sit in consecutive positions in ascending label
    # order, and these runs follow their parents' order, so one forward scan
    # meets the descent's choices in turn.
    path = [start]
    current = j = 0
    for remaining in range(diam - 1, -1, -1):
        while parent[j] != current or height[j] < remaining:
            j += 1
        path.append(order[j])
        current = j
    return path


def delete_vertices(g: Graph, victims: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Remove a vertex set and densely relabel the remainder.

    Returns (graph, old_to_new) where old_to_new[v] is -1 for removed
    vertices; surviving labels keep their relative order.
    """
    dead = set(victims)
    for v in dead:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    survivors = [v for v in range(g.n) if v not in dead]
    old_to_new = [-1] * g.n
    for new, old in enumerate(survivors):
        old_to_new[old] = new
    return _induced(g, survivors), tuple(old_to_new)


def remove_vertex(t: Tree, v: int) -> Forest:
    """The forest left by deleting one vertex of a tree.

    Survivors are relabeled densely: old label x becomes x if x < v, else
    x - 1. Deleting the single vertex of K1 yields the empty forest.
    """
    g, _ = delete_vertices(t, (v,))
    return Forest(g)

"""Vertex-deletion stability and pendant attachments.

A tree is stable when deleting any single vertex leaves the perfect Roman
domination number unchanged. ``stability_report`` measures that for every
vertex at once, from one rerooting pass of the tree DP.
``attach_pendant_path`` hangs a short pendant path off a chosen vertex; the
weight deltas those attachments produce are the subject of the
attachment-delta sweep. ``optima_report`` enumerates all minimum-weight
labelings of a small tree and examines their structure.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, Tree
from .solver import _all_roots, brute_force


class StabilityReport(NamedTuple):
    """Deletion deltas for one tree: deltas[v] = number(T - v) - number(T)."""

    base: int
    deltas: tuple[int, ...]

    @property
    def stable(self) -> bool:
        return all(d == 0 for d in self.deltas)


def stability_report(t: Tree) -> StabilityReport:
    """Numbers of T and of every T - v, from one rerooting pass. O(n).

    The table carries number(T), and with v as the root, number(T - v) -
    number(T) = -1 - min(alpha, 0, delta) (see ``solver._reroot``); the
    pass's entries are by walk position, and one scatter through the
    walk's order puts the deltas in vertex order. Every delta is reported,
    for ``prdom stable`` and any caller that wants them; a yes-or-no
    answer is cheaper from ``solver._deletion_stable``, which stops at the
    first deletion that changes the number.
    """
    alpha, _, delta, base = _all_roots(t)
    deltas = [0] * t.n
    for v, av, dv in zip(t.walk[0], alpha, delta):
        m = av if av < dv else dv
        deltas[v] = -1 - m if m < 0 else -1
    return StabilityReport(base=base, deltas=tuple(deltas))


def attach_pendant_path(t: Tree, u: int, length: int) -> Tree:
    """Hang a pendant path of 1, 2, or 3 new vertices off vertex u.

    New labels are appended: the vertex adjacent to u gets label n and the
    chain continues outward, so the far endpoint always carries the largest
    label n + length - 1.
    """
    if length not in (1, 2, 3):
        raise ValueError(f"pendant length must be 1, 2, or 3, got {length}")
    if not (0 <= u < t.n):
        raise ValueError(f"vertex {u} outside 0..{t.n - 1}")
    n = t.n
    edges = t.edges()
    edges.append((u, n))
    for i in range(length - 1):
        edges.append((n + i, n + i + 1))
    return Tree(Graph._from_edges(n + length, edges))


class BranchSite(NamedTuple):
    """Two leaves sharing a degree-3 support whose third branch is a 2-chain.

    ``center`` carries the two ``leaves``; its remaining neighbor ``chain``
    has degree 2 and continues to ``anchor``.
    """

    center: int
    chain: int
    anchor: int
    leaves: tuple[int, int]


def branch_sites(t: Tree) -> list[BranchSite]:
    """All occurrences of the two-leaf branch pattern, in label order."""
    adj = t.adjacency
    out = []
    for center in range(t.n):
        if len(adj[center]) != 3:
            continue
        leaves = [u for u in adj[center] if len(adj[u]) == 1]
        if len(leaves) != 2:
            continue
        chain = next(u for u in adj[center] if len(adj[u]) != 1)
        if len(adj[chain]) != 2:
            continue
        anchor = next(u for u in adj[chain] if u != center)
        out.append(BranchSite(center, chain, anchor, (leaves[0], leaves[1])))
    return out


class OptimaReport(NamedTuple):
    """Structure of all minimum-weight labelings of one tree.

    ``one_vertices`` lists vertices that take label 1 in some optimum and
    ``two_leaves`` lists leaves that take label 2 in some optimum; for a
    stable tree both are expected empty. Each branch-site violation pairs
    the site with one offending optimal labeling.
    """

    optima_count: int
    one_vertices: tuple[int, ...]
    two_leaves: tuple[int, ...]
    sites: tuple[BranchSite, ...]
    site_violations: tuple[tuple[BranchSite, tuple[int, ...]], ...]

    @property
    def passed(self) -> bool:
        return not self.one_vertices and not self.two_leaves and not self.site_violations


def optima_report(t: Tree) -> OptimaReport:
    """Enumerate every optimum of a small tree and inspect its labels.

    The stability hypothesis is the caller's: running this on an unstable
    tree is allowed and simply reports the violations it finds. The
    enumeration is ``brute_force``'s, so its cap, n <= BRUTE_FORCE_MAX_N,
    is the scan's: a larger tree raises its SizeLimitError.
    """
    adj = t.adjacency
    _, optima = brute_force(t)
    leaves = [v for v in range(t.n) if len(adj[v]) == 1]
    ones: set[int] = set()
    two_leaves: set[int] = set()
    for opt in optima:
        for v, val in enumerate(opt):
            if val == 1:
                ones.add(v)
        for v in leaves:
            if opt[v] == 2:
                two_leaves.add(v)
    sites = tuple(branch_sites(t))
    violations = []
    for site in sites:
        for opt in optima:
            ok = (
                opt[site.center] == 2
                and opt[site.chain] == 0
                and opt[site.anchor] == 0
                and opt[site.leaves[0]] == 0
                and opt[site.leaves[1]] == 0
            )
            if not ok:
                violations.append((site, opt))
                break
    return OptimaReport(
        optima_count=len(optima),
        one_vertices=tuple(sorted(ones)),
        two_leaves=tuple(sorted(two_leaves)),
        sites=sites,
        site_violations=tuple(violations),
    )

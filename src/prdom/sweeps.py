"""Exhaustive verification sweeps over all small trees.

Three suites, shared by the CLI ``verify`` command and the acceptance
tests. The characterization sweep compares three routes to "this tree is
stable" that share no code: the definitional deletion check on the DP's
tables, the recognizer, which finds the tree's block partition and reads
no labeling at all, and membership in the breadth-first closure of the
construction. The attachment sweep measures the weight delta of each
pendant attachment, and the optima sweep inspects the structure of all
minimum-weight labelings of every stable tree.

Every route runs on the free-tree generator's parent arrays, which are
walks, so no route needs a ``Tree``: stability is
``solver._deletion_stable``, one bottom-up table, then a rerooting pass
that stops at the first deletion that changes the number; recognition is
``family._block_middles``, the recognizer's own pass; membership keys the
array by ``canonical._forms``, as the closure keys its members. Most trees
fail early, and only a few are stable. A ``Tree`` is built only for a
stable tree, which the profile check and the later suites read, or for a
mismatch, which the payload names by its edges.
"""

from __future__ import annotations

import functools
import random

from .canonical import _forms
from .enumeration import _free_tree_parents, random_labeled_tree
from .family import SECOND_NOT_DEGREE_2, _block_middles, check_stable_profile, enumerate_family
from .graphs import Tree, _parents_to_tree
from .solver import SizeLimitError, _deletion_stable, forced_zero_set, prd_number
from .stability import attach_pendant_path, optima_report

CHARACTERIZATION_MAX_N = 15
ATTACHMENT_MAX_N = 15
ATTACHMENT_RANDOM_PAIRS = 200
ATTACHMENT_RANDOM_MAX_N = 60
OPTIMA_SWEEP_MAX_N = 12


def characterization_sweep(max_n: int) -> dict:
    """Compare stability, recognition, and closure membership on all trees.

    Every free tree with 3 <= n <= max_n is tested; the three answers must
    agree pairwise. Recognized trees must also have order divisible by 3
    and domination number exactly 2n/3. All three answers are read off
    the generator's parent array, and a canonical form is computed only at
    orders the closure has members of. Returns the payload ``verify``
    reports, with ``stable_per_order`` keyed by the order as a string.
    """
    if max_n > CHARACTERIZATION_MAX_N:
        raise SizeLimitError(
            f"characterization sweep capped at n={CHARACTERIZATION_MAX_N}, got {max_n}"
        )
    trees_checked = 0
    stable_per_order: dict[str, int] = {}
    mismatches: list[dict] = []
    profile_violations: list[dict] = []
    degree_rejections: list[dict] = []
    for n in range(3, max_n + 1):
        family_keys = enumerate_family(n).keys() if n % 3 == 0 else ()
        stable_count = 0
        for parent in _free_tree_parents(n):
            trees_checked += 1
            stable = _deletion_stable(parent)
            middle = _block_middles(parent)
            recognized = not isinstance(middle, str)
            member = bool(family_keys) and _forms(parent)[0] in family_keys
            agree = stable == recognized == member
            if agree and not stable:
                continue
            t = _parents_to_tree(parent)
            if not agree:
                mismatches.append(
                    {
                        "n": n,
                        "edges": t.edges(),
                        "stable": stable,
                        "recognized": recognized,
                        "family_member": member,
                        "reason": None if recognized else middle,
                    }
                )
            if stable:
                stable_count += 1
                if not check_stable_profile(t):
                    profile_violations.append({"n": n, "edges": t.edges(), "number": prd_number(t)})
                if middle == SECOND_NOT_DEGREE_2:
                    degree_rejections.append({"n": n, "edges": t.edges(), "reason": middle})
        stable_per_order[str(n)] = stable_count
    return {
        "max_n": max_n,
        "trees_checked": trees_checked,
        "stable_per_order": stable_per_order,
        "mismatches": mismatches,
        "profile_violations": profile_violations,
        "degree_rejections_of_stable": degree_rejections,
        "passed": not mismatches and not profile_violations,
    }


@functools.cache
def _stable_trees(n: int) -> tuple[Tree, ...]:
    """The stable free trees of order n, found once for both suites that read
    them; a ``Tree`` is built only for a stable parent array."""
    return tuple(
        _parents_to_tree(parent)
        for parent in _free_tree_parents(n)
        if _deletion_stable(parent)
    )


def _stable_trees_up_to(max_n: int) -> list[Tree]:
    return [t for n in range(3, max_n + 1, 3) for t in _stable_trees(n)]


def attachment_delta_sweep(max_n: int = 12, seed: int = 0) -> dict:
    """Measure the weight delta of every pendant attachment.

    On every stable tree up to max_n: a pendant 3-path adds exactly 2 at
    every vertex, a single pendant vertex adds exactly 1 at forced-zero
    vertices, and a pendant 2-path adds exactly 2 at forced-zero vertices.
    The 3-path delta needs no stability hypothesis at all, so it is also
    fired at ATTACHMENT_RANDOM_PAIRS seeded random (tree, vertex) pairs of
    up to ATTACHMENT_RANDOM_MAX_N vertices. Returns the payload ``verify``
    reports.
    """
    if max_n > ATTACHMENT_MAX_N:
        raise SizeLimitError(f"attachment sweep capped at n={ATTACHMENT_MAX_N}, got {max_n}")
    pendant3 = forced_zero = 0
    violations: list[dict] = []

    def check(t: Tree, before: int, u: int, length: int, expect: int, context: str) -> None:
        after = prd_number(attach_pendant_path(t, u, length))
        if after - before != expect:
            violations.append(
                {
                    "context": context,
                    "edges": t.edges(),
                    "vertex": u,
                    "length": length,
                    "delta": after - before,
                    "expected": expect,
                }
            )

    for t in _stable_trees_up_to(max_n):
        base = prd_number(t)
        forced = forced_zero_set(t)
        for u in range(t.n):
            check(t, base, u, 3, 2, "stable tree, any vertex")
        for u in sorted(forced):
            check(t, base, u, 1, 1, "stable tree, forced-zero vertex")
            check(t, base, u, 2, 2, "stable tree, forced-zero vertex")
        pendant3 += t.n
        forced_zero += 2 * len(forced)
    rng = random.Random(seed)
    for _ in range(ATTACHMENT_RANDOM_PAIRS):
        n = rng.randint(1, ATTACHMENT_RANDOM_MAX_N)
        t = random_labeled_tree(n, rng)
        u = rng.randrange(n)
        check(t, prd_number(t), u, 3, 2, "random tree, random vertex")
    return {
        "max_n": max_n,
        "pendant3_attachments": pendant3,
        "forced_zero_attachments": forced_zero,
        "random_attachments": ATTACHMENT_RANDOM_PAIRS,
        "violations": violations,
        "passed": not violations,
    }


def optima_structure_sweep(max_n: int = 12) -> dict:
    """Enumerate all optima of every stable tree and inspect their labels.

    Expected on stable trees: no vertex ever takes label 1, no leaf ever
    takes label 2, and at every two-leaf branch site the center takes 2
    with its surroundings at 0. Returns the payload ``verify`` reports.
    """
    if max_n > OPTIMA_SWEEP_MAX_N:
        raise SizeLimitError(f"optima sweep capped at n={OPTIMA_SWEEP_MAX_N}, got {max_n}")
    trees = _stable_trees_up_to(max_n)
    reports = [optima_report(t) for t in trees]
    violations = [
        {
            "edges": t.edges(),
            "one_vertices": list(report.one_vertices),
            "two_leaves": list(report.two_leaves),
            "site_violations": [
                {"site": list(site), "optimum": list(values)}
                for site, values in report.site_violations
            ],
        }
        for t, report in zip(trees, reports)
        if not report.passed
    ]
    return {
        "max_n": max_n,
        "stable_trees": len(trees),
        "optima_examined": sum(r.optima_count for r in reports),
        "sites_examined": sum(len(r.sites) for r in reports),
        "violations": violations,
        "passed": not violations,
    }

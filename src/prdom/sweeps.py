"""Exhaustive verification sweeps over all small trees.

Three suites, shared by the CLI ``verify`` command and the acceptance
tests. The characterization sweep compares three independent routes to
"this tree is stable": the definitional deletion check, the peeling
recognizer, and membership in the breadth-first closure of the
construction. The attachment sweep measures the weight delta of each
pendant attachment, and the optima sweep inspects the structure of all
minimum-weight labelings of every stable tree.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from .canonical import canonical_form
from .enumeration import enumerate_free_trees, random_labeled_tree
from .family import (
    SECOND_NOT_DEGREE_2,
    THIRD_NOT_DEGREE_2,
    check_stable_profile,
    enumerate_family,
    recognize,
)
from .graphs import Tree
from .solver import SizeLimitError, forced_zero_set, prd_number
from .stability import attach_pendant_path, optima_report, stability_report

CHARACTERIZATION_MAX_N = 15
ATTACHMENT_MAX_N = 15
ATTACHMENT_RANDOM_PAIRS = 200
ATTACHMENT_RANDOM_MAX_N = 60
OPTIMA_SWEEP_MAX_N = 12

_DEGREE_REASONS = (SECOND_NOT_DEGREE_2, THIRD_NOT_DEGREE_2)


@dataclass
class CharacterizationResult:
    max_n: int
    trees_checked: int = 0
    stable_per_order: dict[int, int] = field(default_factory=dict)
    mismatches: list[dict] = field(default_factory=list)
    profile_violations: list[dict] = field(default_factory=list)
    degree_rejections_of_stable: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches and not self.profile_violations

    def payload(self) -> dict:
        return {
            "max_n": self.max_n,
            "trees_checked": self.trees_checked,
            "stable_per_order": {str(k): v for k, v in sorted(self.stable_per_order.items())},
            "mismatches": self.mismatches,
            "profile_violations": self.profile_violations,
            "degree_rejections_of_stable": self.degree_rejections_of_stable,
            "passed": self.passed,
        }


def characterization_sweep(max_n: int) -> CharacterizationResult:
    """Compare stability, recognition, and closure membership on all trees.

    Every free tree with 3 <= n <= max_n is tested; the three answers must
    agree pairwise. Recognized trees must also have order divisible by 3
    and domination number exactly 2n/3.
    """
    if max_n > CHARACTERIZATION_MAX_N:
        raise SizeLimitError(
            f"characterization sweep capped at n={CHARACTERIZATION_MAX_N}, got {max_n}"
        )
    result = CharacterizationResult(max_n=max_n)
    for n in range(3, max_n + 1):
        family_keys = enumerate_family(n).members.keys() if n % 3 == 0 else None
        stable_count = 0
        for t in enumerate_free_trees(n):
            stable = stability_report(t).stable
            rec = recognize(t)
            member = family_keys is not None and canonical_form(t) in family_keys
            result.trees_checked += 1
            if not (stable == rec.accepted == member):
                result.mismatches.append(
                    {
                        "n": n,
                        "edges": t.edges(),
                        "stable": stable,
                        "recognized": rec.accepted,
                        "family_member": member,
                        "reason": rec.reason,
                    }
                )
            if stable:
                stable_count += 1
                if not check_stable_profile(t):
                    result.profile_violations.append(
                        {"n": n, "edges": t.edges(), "number": prd_number(t)}
                    )
                if not rec.accepted and rec.reason in _DEGREE_REASONS:
                    result.degree_rejections_of_stable.append(
                        {"n": n, "edges": t.edges(), "reason": rec.reason}
                    )
        result.stable_per_order[n] = stable_count
    return result


@dataclass
class AttachmentDeltaResult:
    max_n: int
    pendant3_attachments: int = 0
    forced_zero_attachments: int = 0
    random_attachments: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def payload(self) -> dict:
        return {
            "max_n": self.max_n,
            "pendant3_attachments": self.pendant3_attachments,
            "forced_zero_attachments": self.forced_zero_attachments,
            "random_attachments": self.random_attachments,
            "violations": self.violations,
            "passed": self.passed,
        }


@functools.cache
def _stable_trees(n: int) -> tuple[Tree, ...]:
    """The stable free trees of order n, found once for both suites that read them."""
    return tuple(t for t in enumerate_free_trees(n) if stability_report(t).stable)


def _stable_trees_up_to(max_n: int) -> list[Tree]:
    return [t for n in range(3, max_n + 1, 3) for t in _stable_trees(n)]


def attachment_delta_sweep(max_n: int = 12, seed: int = 0) -> AttachmentDeltaResult:
    """Measure the weight delta of every pendant attachment.

    On every stable tree up to max_n: a pendant 3-path adds exactly 2 at
    every vertex, a single pendant vertex adds exactly 1 at forced-zero
    vertices, and a pendant 2-path adds exactly 2 at forced-zero vertices.
    The 3-path delta needs no stability hypothesis at all, so it is also
    fired at ATTACHMENT_RANDOM_PAIRS seeded random (tree, vertex) pairs of
    up to ATTACHMENT_RANDOM_MAX_N vertices.
    """
    if max_n > ATTACHMENT_MAX_N:
        raise SizeLimitError(f"attachment sweep capped at n={ATTACHMENT_MAX_N}, got {max_n}")
    result = AttachmentDeltaResult(max_n=max_n)

    def check(t: Tree, before: int, u: int, length: int, expect: int, context: str) -> None:
        after = prd_number(attach_pendant_path(t, u, length))
        if after - before != expect:
            result.violations.append(
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
            result.pendant3_attachments += 1
        for u in sorted(forced):
            check(t, base, u, 1, 1, "stable tree, forced-zero vertex")
            check(t, base, u, 2, 2, "stable tree, forced-zero vertex")
            result.forced_zero_attachments += 2
    rng = random.Random(seed)
    for _ in range(ATTACHMENT_RANDOM_PAIRS):
        n = rng.randint(1, ATTACHMENT_RANDOM_MAX_N)
        t = random_labeled_tree(n, rng)
        u = rng.randrange(n)
        check(t, prd_number(t), u, 3, 2, "random tree, random vertex")
        result.random_attachments += 1
    return result


@dataclass
class OptimaStructureResult:
    max_n: int
    stable_trees: int = 0
    optima_examined: int = 0
    sites_examined: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def payload(self) -> dict:
        return {
            "max_n": self.max_n,
            "stable_trees": self.stable_trees,
            "optima_examined": self.optima_examined,
            "sites_examined": self.sites_examined,
            "violations": self.violations,
            "passed": self.passed,
        }


def optima_structure_sweep(max_n: int = 12) -> OptimaStructureResult:
    """Enumerate all optima of every stable tree and inspect their labels.

    Expected on stable trees: no vertex ever takes label 1, no leaf ever
    takes label 2, and at every two-leaf branch site the center takes 2
    with its surroundings at 0.
    """
    if max_n > OPTIMA_SWEEP_MAX_N:
        raise SizeLimitError(f"optima sweep capped at n={OPTIMA_SWEEP_MAX_N}, got {max_n}")
    result = OptimaStructureResult(max_n=max_n)
    for t in _stable_trees_up_to(max_n):
        report = optima_report(t)
        result.stable_trees += 1
        result.optima_examined += report.optima_count
        result.sites_examined += len(report.sites)
        if not report.passed:
            result.violations.append(
                {
                    "edges": t.edges(),
                    "one_vertices": list(report.one_vertices),
                    "two_leaves": list(report.two_leaves),
                    "site_violations": [
                        {"site": list(site), "optimum": list(values)}
                        for site, values in report.site_violations
                    ],
                }
            )
    return result

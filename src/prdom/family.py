"""The constructive family of stable trees.

Members are exactly the trees reachable from the 3-vertex path by repeatedly
hanging a pendant 3-vertex path off a vertex that every minimum-weight
labeling forces to 0 (``grow``). The recognizer inverts the construction:
from the lowest vertex at diameter distance from another (a leaf) it peels
the pendant 3-chain that leaf ends, demands the chain's two inner vertices
have degree 2, and checks that the anchor the chain hung from is
forced-zero in the peeled tree. It peels the input in place, in input
labels. An accepted tree comes with a replayable build certificate.

Pendant-P3 invariance: hang v3-v2-v1 (labels n, n+1, n+2) off u in T' to
get T; then FZ(T), the forced-zero set, restricted to T' is FZ(T'), and
FZ(T) = FZ(T') + {n, n+2} when u is in FZ(T'). Sketch: the chain costs 2,
as (0, 2, 0), or (0, 0, 2) when u is 2. The only other useful chain,
(2, 0, 1), costs 3 and leaves u a 0 with no 2-neighbor in T'; relabelling u
to 1 gives a labeling of T', so it at best ties an optimum with u at 1 and
adds the label 0 at u only. So ``recognize`` runs one forced-zero pass, and
every walk from P3 carries FZ(P3) = [0, 2], appending n and n+2 per step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .canonical import CanonicalForm, canonical_form
from .graphs import Graph, Tree, _number_reader, _periphery, make_path
from .solver import SizeLimitError, forced_zero_set, prd_number
from .stability import attach_pendant_path, stability_report

FAMILY_MAX_N = 18
# parse_certificate refuses more steps than this before it builds any Step:
# replay checks stability at every step, so its time grows quadratically
CERTIFICATE_MAX_STEPS = 1000


class InvalidStepError(ValueError):
    """A certificate step that the construction rules reject."""


class Step(NamedTuple):
    """One growth step: attach at ``u``, creating labels ``added``.

    ``added`` is (v3, v2, v1): v3 is the new neighbor of u, v1 the new leaf.
    Labels refer to the tree as it stands when the step applies, so a step
    that grows an n-vertex tree always has added == (n, n+1, n+2).
    """

    u: int
    added: tuple[int, int, int]


@dataclass(frozen=True)
class Certificate:
    """Build recipe for a family member: steps applied in order to P3."""

    steps: tuple[Step, ...]

    @property
    def order(self) -> int:
        return 3 + 3 * len(self.steps)


class RecognitionResult(NamedTuple):
    accepted: bool
    certificate: Certificate | None
    reason: str | None = None


def grow(t: Tree, u: int) -> Tree:
    """Attach a pendant 3-path at a forced-zero vertex of t.

    Raises InvalidStepError when some optimal labeling gives u a positive
    label, since only forced-zero attachment points keep the tree stable.
    """
    if not (0 <= u < t.n):
        raise ValueError(f"vertex {u} outside 0..{t.n - 1}")
    if u not in forced_zero_set(t):
        raise InvalidStepError(f"vertex {u} is not forced to 0 by every optimum")
    return attach_pendant_path(t, u, 3)


def replay_certificate(c: Certificate, check_stability: bool = True) -> Tree:
    """Rebuild the tree a certificate describes, re-validating every step.

    Each step must attach at a forced-zero vertex with the expected fresh
    labels; with ``check_stability`` every intermediate tree is also checked
    to be deletion-stable. The forced-zero set is carried, not recomputed.
    """
    edges = [(0, 1), (1, 2)]
    forced = {0, 2}
    for i, step in enumerate(c.steps):
        n = 3 + 3 * i
        if step.added != (n, n + 1, n + 2):
            raise InvalidStepError(
                f"step {i}: expected new labels {(n, n + 1, n + 2)}, got {step.added}"
            )
        if not (0 <= step.u < n):
            raise InvalidStepError(f"step {i}: vertex {step.u} outside 0..{n - 1}")
        if step.u not in forced:
            raise InvalidStepError(f"step {i}: vertex {step.u} is not forced to 0 by every optimum")
        edges += ((step.u, n), (n, n + 1), (n + 1, n + 2))
        forced.update((n, n + 2))
        if check_stability and not stability_report(Tree(Graph(n + 3, edges))).stable:
            raise InvalidStepError(f"step {i}: intermediate tree is not stable")
    return Tree(Graph(c.order, edges))


def random_certificate(steps: int, rng: random.Random) -> Certificate:
    """A random walk from P3 that draws each anchor from the carried forced-zero list."""
    forced = [0, 2]
    walk = []
    for n in range(3, 3 + 3 * steps, 3):
        walk.append(Step(u=rng.choice(forced), added=(n, n + 1, n + 2)))
        forced += (n, n + 2)
    return Certificate(steps=tuple(walk))


def serialize_certificate(c: Certificate) -> str:
    """Text form: base line "P3", then one "u: v3 v2 v1" line per step."""
    lines = ["P3"]
    for step in c.steps:
        v3, v2, v1 = step.added
        lines.append(f"{step.u}: {v3} {v2} {v1}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    """Inverse of serialize_certificate. Labels are ASCII decimal numbers;
    SizeLimitError above CERTIFICATE_MAX_STEPS step lines."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "P3":
        raise InvalidStepError('certificate must start with the base line "P3"')
    if len(lines) - 1 > CERTIFICATE_MAX_STEPS:
        raise SizeLimitError(
            f"certificates capped at {CERTIFICATE_MAX_STEPS} steps, got {len(lines) - 1}"
        )
    number = _number_reader(text)
    steps = []
    for idx, line in enumerate(lines[1:], start=1):
        head, sep, tail = line.partition(":")
        parts = tail.split()
        if not sep or len(parts) != 3:
            raise InvalidStepError(f'step line {idx}: expected "u: v3 v2 v1", got {line!r}')
        try:
            u = number(head)
            added = tuple(number(p) for p in parts)
        except ValueError:
            raise InvalidStepError(f"step line {idx}: non-integer label in {line!r}") from None
        steps.append(Step(u=u, added=added))
    return Certificate(steps=tuple(steps))


def recognize(t: Tree) -> RecognitionResult:
    """Decide family membership, with a build certificate on acceptance.

    Iterative peeling: reject orders not divisible by 3 up front (no member
    has one), accept the 3-vertex base, and otherwise take x1, the lowest
    vertex whose eccentricity is the diameter, and require diameter at least
    4, degree 2 at x1's neighbor x2 and at x2's next neighbor x3, and a
    forced-zero anchor x4 past x3. Each peel then isolates x1, x2 and x3 in
    one copy of the input's adjacency, so every label stays an input label.
    One forced-zero pass on the input serves every peel (each peeled tree's
    set is the input's, restricted), but each of the n/3 peels still sweeps
    all n vertices, so recognition is O(n^2).
    """
    if t.n % 3 != 0:
        return RecognitionResult(False, None, "order not a multiple of 3")
    forced = forced_zero_set(t) if t.n > 3 else frozenset()
    adj = [list(nbrs) for nbrs in t.adjacency]
    peels: list[tuple[int, int, int, int]] = []
    for _ in range(t.n // 3 - 1):
        diam, x1 = _periphery(adj)
        if diam < 4:
            return RecognitionResult(False, None, "diameter below 4")
        (x2,) = adj[x1]
        if len(adj[x2]) != 2:
            return RecognitionResult(False, None, "second path vertex degree is not 2")
        x3 = sum(adj[x2]) - x1  # the other neighbor
        if len(adj[x3]) != 2:
            return RecognitionResult(False, None, "third path vertex degree is not 2")
        x4 = sum(adj[x3]) - x2  # and x3's
        if x4 not in forced:
            return RecognitionResult(False, None, "anchor is not forced-zero after peeling")
        peels.append((x1, x2, x3, x4))
        adj[x4].remove(x3)
        adj[x1] = adj[x2] = adj[x3] = []
    # iso maps input labels to construction labels
    center = next(v for v, nbrs in enumerate(adj) if len(nbrs) == 2)
    leaf0, leaf2 = adj[center]  # still sorted: peeling only removes
    iso = {center: 1, leaf0: 0, leaf2: 2}
    steps: list[Step] = []
    for size, (x1, x2, x3, x4) in zip(range(3, t.n, 3), reversed(peels)):
        steps.append(Step(u=iso[x4], added=(size, size + 1, size + 2)))
        iso.update({x3: size, x2: size + 1, x1: size + 2})
    return RecognitionResult(True, Certificate(steps=tuple(steps)), None)


@dataclass(frozen=True)
class FamilyIndex:
    """Every family member of one order, keyed by canonical form.

    ``members`` maps each canonical form to the first build certificate the
    breadth-first closure finds; iteration order is sorted by key.
    """

    order: int
    members: dict[CanonicalForm, Certificate] = field(default_factory=dict)

    def __contains__(self, key: CanonicalForm) -> bool:
        return key in self.members

    def __len__(self) -> int:
        return len(self.members)


def enumerate_family(n: int) -> FamilyIndex:
    """Breadth-first closure of the construction up to order n.

    Levels step by 3 from the base path; each level attaches at every
    forced-zero vertex of every member and deduplicates by canonical form.
    Each member carries its sorted forced-zero list from the walk.
    """
    if n < 3 or n % 3 != 0:
        raise ValueError(f"family orders are positive multiples of 3, got {n}")
    if n > FAMILY_MAX_N:
        raise SizeLimitError(f"family enumeration capped at n={FAMILY_MAX_N}, got {n}")
    base = make_path(3)
    level: dict[CanonicalForm, tuple[Tree, Certificate, list[int]]] = {
        canonical_form(base): (base, Certificate(steps=()), [0, 2])
    }
    for size in range(3, n, 3):
        nxt: dict[CanonicalForm, tuple[Tree, Certificate, list[int]]] = {}
        for key in sorted(level):
            tree, cert, forced = level[key]
            for u in forced:
                grown = attach_pendant_path(tree, u, 3)
                grown_key = canonical_form(grown)
                if grown_key not in nxt:
                    step = Step(u=u, added=(size, size + 1, size + 2))
                    grown_forced = forced + [size, size + 2]
                    nxt[grown_key] = (grown, Certificate(cert.steps + (step,)), grown_forced)
        level = nxt
    return FamilyIndex(order=n, members={k: level[k][1] for k in sorted(level)})


def check_stable_profile(t: Tree) -> bool:
    """True when the order is a multiple of 3 and the domination number is
    exactly two thirds of it, the profile every stable tree must have."""
    return t.n % 3 == 0 and 3 * prd_number(t) == 2 * t.n

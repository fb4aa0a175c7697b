"""The constructive family of stable trees.

Members are exactly the trees reachable from the 3-vertex path by repeatedly
hanging a pendant 3-vertex path off a vertex that every minimum-weight
labeling forces to 0 (``grow``). The recognizer inverts the construction
greedily: any pendant 3-path x1-x2-x3 (x1 a leaf, x2 and x3 of degree 2)
whose anchor x4 is forced-zero may be peeled next, and the input is a
member exactly when such peels reduce it to the 3-vertex path. It peels the
input in place, in input labels. An accepted tree comes with a replayable
build certificate: the tuple of ``Step``s that grows it from P3.

Pendant-P3 invariance: hang v3-v2-v1 (labels n, n+1, n+2) off u in T' to
get T; then FZ(T), the forced-zero set, restricted to T' is FZ(T'), and
FZ(T) = FZ(T') + {n, n+2} when u is in FZ(T'). Sketch: the chain costs 2,
as (0, 2, 0), or (0, 0, 2) when u is 2. The only other useful chain,
(2, 0, 1), costs 3 and leaves u a 0 with no 2-neighbor in T'; relabelling u
to 1 gives a labeling of T', so it at best ties an optimum with u at 1 and
adds the label 0 at u only. So ``recognize`` runs at most one forced-zero
pass, and every walk from P3 carries FZ(P3) = [0, 2], appending n and n+2
per step.

Deletion lemma: peeling a pendant 3-path off a stable tree T leaves a stable
tree T'. The chain adds exactly 2 whatever its anchor, so for v other than
the anchor x4, number(T' - v) = number(T - v) - 2 = number(T'); and T - x4
is T' - x4 beside a separate P3, whose number is 2. With the paper's
theorem (stable exactly when a member) and the invariance lemma this makes
the greedy peel complete, and it lets ``replay_certificate`` check
stability once, on the finished tree: once a prefix tree is unstable, every
later one is too. That check is ``solver._deletion_stable``, the sweeps'
yes-or-no test, which stops at the first deletion that changes the number.
"""

from __future__ import annotations

import bisect
import random
from typing import NamedTuple

from .canonical import CanonicalForm, canonical_form
from .graphs import EDGE_LIST_MAX_N, Graph, InvalidStepError, Tree, _number_reader, make_path
from .solver import SizeLimitError, _deletion_stable, forced_zero_set, prd_number
from .stability import attach_pendant_path

FAMILY_MAX_N = 18
# parse_certificate refuses more steps than this before it builds any Step:
# the largest member an edge list may hold. Replay is linear: `prdom verify
# --certificate` on 10^5 steps takes 3.2 s at 214 MB peak RSS end to end
# (2 shared x86-64 cores, Python 3.11)
CERTIFICATE_MAX_STEPS = (EDGE_LIST_MAX_N - 3) // 3

# the reasons ``recognize`` gives for a rejection
ORDER_NOT_MULTIPLE_OF_3 = "order not a multiple of 3"
SECOND_NOT_DEGREE_2 = "second path vertex degree is not 2"
THIRD_NOT_DEGREE_2 = "third path vertex degree is not 2"
ANCHOR_NOT_FORCED_ZERO = "anchor is not forced-zero after peeling"


class Step(NamedTuple):
    """One growth step: attach at ``u``, creating labels ``added``.

    ``added`` is (v3, v2, v1): v3 is the new neighbor of u, v1 the new leaf.
    Labels refer to the tree as it stands when the step applies, so a step
    that grows an n-vertex tree always has added == (n, n+1, n+2).
    """

    u: int
    added: tuple[int, int, int]


# a build recipe for a family member: steps applied in order to P3, so a
# certificate of k steps builds 3 + 3k vertices
Certificate = tuple[Step, ...]


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


def replay_certificate(c: Certificate) -> Tree:
    """Rebuild the tree a certificate describes, re-validating every step.

    Each step must attach at a forced-zero vertex with the expected fresh
    labels; the forced-zero set is carried, not recomputed. The finished
    tree is then checked to be deletion-stable, once, by
    ``_deletion_stable``: by the deletion lemma every intermediate tree is
    stable when the last one is, and only when it is not does a bisection
    over the prefix trees, with the same check, find the first failing step.
    """
    edges = [(0, 1), (1, 2)]
    forced = {0, 2}
    for i, step in enumerate(c):
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
    tree = Tree(Graph._from_edges(3 + 3 * len(c), edges))
    if not _deletion_stable(tree.walk[1]):

        def unstable(i: int) -> bool:
            # the tree after step i: 6 + 3i vertices, the first 5 + 3i edges
            prefix = Tree(Graph._from_edges(6 + 3 * i, edges[: 5 + 3 * i]))
            return not _deletion_stable(prefix.walk[1])

        first = bisect.bisect_left(range(len(c)), True, key=unstable)
        raise InvalidStepError(f"step {first}: intermediate tree is not stable")
    return tree


def random_certificate(steps: int, rng: random.Random) -> Certificate:
    """A random walk from P3 that draws each anchor from the carried forced-zero list."""
    forced = [0, 2]
    walk = []
    for n in range(3, 3 + 3 * steps, 3):
        walk.append(Step(u=rng.choice(forced), added=(n, n + 1, n + 2)))
        forced += (n, n + 2)
    return tuple(walk)


def serialize_certificate(c: Certificate) -> str:
    """Text form: base line "P3", then one "u: v3 v2 v1" line per step."""
    lines = ["P3"]
    for step in c:
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
    return tuple(steps)


def recognize(t: Tree) -> RecognitionResult:
    """Decide family membership, with a build certificate on acceptance.

    Greedy peeling: reject orders not divisible by 3 up front (no member
    has one), then peel pendant 3-paths x1-x2-x3 off forced-zero anchors x4
    until the 3-vertex base is left. One forced-zero pass on the input
    serves every peel (each peeled tree's set is the input's, restricted),
    and it runs only when a peel first reaches an anchor check, so a tree
    rejected by its order or by a degree pays for no rerooting pass.
    The input's adjacency is read, never copied: a degree and a
    neighbor-label sum per vertex give the other neighbor of any degree-2
    vertex. A worklist holds the leaves that may start a peel; a peel
    changes only x4's degree, so when that falls to 2 or less only the
    leaves within distance 2 of x4 are queued again. Recognition is O(n).
    When the worklist runs dry first, the lowest remaining leaf names the
    reason.
    """
    if t.n % 3 != 0:
        return RecognitionResult(False, None, ORDER_NOT_MULTIPLE_OF_3)
    forced: frozenset[int] | None = None
    adj = t.adjacency
    degree = list(map(len, adj))
    label_sum = list(map(sum, adj))
    work = [v for v in range(t.n) if degree[v] == 1]

    def blocked(x1: int) -> str | None:
        """Why the pendant path that leaf x1 ends cannot be peeled, or None."""
        nonlocal forced
        x2 = label_sum[x1]
        if degree[x2] != 2:
            return SECOND_NOT_DEGREE_2
        x3 = label_sum[x2] - x1  # the other neighbor
        if degree[x3] != 2:
            return THIRD_NOT_DEGREE_2
        if forced is None:
            forced = forced_zero_set(t)
        if label_sum[x3] - x2 not in forced:
            return ANCHOR_NOT_FORCED_ZERO
        return None

    peels: list[tuple[int, int, int, int]] = []
    goal = t.n // 3 - 1
    while work and len(peels) < goal:
        x1 = work.pop()
        if degree[x1] != 1 or blocked(x1):
            continue
        x2 = label_sum[x1]
        x3 = label_sum[x2] - x1
        x4 = label_sum[x3] - x2
        peels.append((x1, x2, x3, x4))
        degree[x1] = degree[x2] = degree[x3] = 0
        degree[x4] -= 1
        label_sum[x4] -= x3
        if degree[x4] <= 2:
            if degree[x4] == 1:
                work.append(x4)
            for u in adj[x4]:
                if degree[u] == 2:
                    u = label_sum[u] - x4  # the far end
                if degree[u] == 1:
                    work.append(u)
    if len(peels) < goal:
        lowest = next(v for v in range(t.n) if degree[v] == 1)
        return RecognitionResult(False, None, blocked(lowest))
    # iso maps input labels to construction labels
    center = next(v for v in range(t.n) if degree[v] == 2)
    leaf0, leaf2 = (u for u in adj[center] if degree[u])  # in order: adj is sorted
    iso = {center: 1, leaf0: 0, leaf2: 2}
    steps: list[Step] = []
    for size, (x1, x2, x3, x4) in zip(range(3, t.n, 3), reversed(peels)):
        steps.append(Step(u=iso[x4], added=(size, size + 1, size + 2)))
        iso.update({x3: size, x2: size + 1, x1: size + 2})
    return RecognitionResult(True, tuple(steps), None)


def enumerate_family(n: int) -> dict[CanonicalForm, Certificate]:
    """Breadth-first closure of the construction up to order n.

    Levels step by 3 from the base path; each level attaches at every
    forced-zero vertex of every member and deduplicates by canonical form.
    Each member carries its sorted forced-zero list from the walk. Returns
    every member of order n, keyed by canonical form in sorted order, with
    the first build certificate the closure finds for it.
    """
    if n < 3 or n % 3 != 0:
        raise ValueError(f"family orders are positive multiples of 3, got {n}")
    if n > FAMILY_MAX_N:
        raise SizeLimitError(f"family enumeration capped at n={FAMILY_MAX_N}, got {n}")
    base = make_path(3)
    level: dict[CanonicalForm, tuple[Tree, Certificate, list[int]]] = {
        canonical_form(base): (base, (), [0, 2])
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
                    nxt[grown_key] = (grown, cert + (step,), grown_forced)
        level = nxt
    return {k: level[k][1] for k in sorted(level)}


def check_stable_profile(t: Tree) -> bool:
    """True when the order is a multiple of 3 and the domination number is
    exactly two thirds of it, the profile every stable tree must have."""
    return t.n % 3 == 0 and 3 * prd_number(t) == 2 * t.n

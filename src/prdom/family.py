"""The constructive family of stable trees.

Members are exactly the trees reachable from the 3-vertex path by repeatedly
hanging a pendant 3-vertex path off a vertex that every minimum-weight
labeling forces to 0 (``grow``). The recognizer inverts the construction
greedily: any pendant 3-path x1-x2-x3 (x1 a leaf, x2 and x3 of degree 2)
whose anchor x4 is forced-zero may be peeled next, and the input is a
member exactly when such peels reduce it to the 3-vertex path. It peels the
input in place, in input labels. An accepted tree comes with a replayable
build certificate: the tuple of anchors that grows it from P3. Step i hangs
the path n-(n+1)-(n+2), n = 3 + 3i, off its anchor u, so the certificate
spells the tree's parent array: [-1, 0, 1], then (u, n, n + 1) per step.

Pendant-P3 invariance: hang v3-v2-v1 (labels n, n+1, n+2) off u in T' to
get T; then FZ(T), the forced-zero set, restricted to T' is FZ(T'), and
FZ(T) = FZ(T') + {n, n+2} when u is in FZ(T'). Sketch: the chain costs 2,
as (0, 2, 0), or (0, 0, 2) when u is 2. The only other useful chain,
(2, 0, 1), costs 3 and leaves u a 0 with no 2-neighbor in T'; relabelling u
to 1 gives a labeling of T', so it at best ties an optimum with u at 1 and
adds the label 0 at u only. So ``recognize`` runs at most one forced-zero
pass, and every tree a walk from P3 builds has the closed form
FZ = {v : v % 3 != 1}: FZ(P3) = {0, 2}, and each step adds n and n + 2.
A walk therefore checks an anchor by its label alone.

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

from .canonical import CanonicalForm, _forms
from .graphs import EDGE_LIST_MAX_N, Graph, InvalidStepError, Tree, _number_reader
from .solver import SizeLimitError, _deletion_stable, forced_zero_set, prd_number
from .stability import attach_pendant_path

FAMILY_MAX_N = 18
# parse_certificate refuses more steps than this before it reads any step:
# the largest member an edge list may hold. Replay is linear: `prdom verify
# --certificate` on 10^5 steps takes about 2 s at 133 MB peak RSS end to end
# (2 shared x86-64 cores, Python 3.11)
CERTIFICATE_MAX_STEPS = (EDGE_LIST_MAX_N - 3) // 3

# the reasons ``recognize`` gives for a rejection
ORDER_NOT_MULTIPLE_OF_3 = "order not a multiple of 3"
SECOND_NOT_DEGREE_2 = "second path vertex degree is not 2"
THIRD_NOT_DEGREE_2 = "third path vertex degree is not 2"
ANCHOR_NOT_FORCED_ZERO = "anchor is not forced-zero after peeling"


# a build recipe for a family member: the anchor of each step, applied in
# order to P3, so a certificate of k anchors builds 3 + 3k vertices
Certificate = tuple[int, ...]


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

    Each anchor must be a label of the tree so far that every optimum
    forces to 0, which the closed form decides by the label alone. The
    finished tree is then checked to be deletion-stable, once, by
    ``_deletion_stable`` on its walk: by the deletion lemma every
    intermediate tree is stable when the last one is, and only when it is
    not does a bisection over the prefixes of the certificate's parent
    array, with the same check, find the first failing step.
    """
    parent = [-1, 0, 1]
    for i, u in enumerate(c):
        n = 3 + 3 * i
        if not (0 <= u < n):
            raise InvalidStepError(f"step {i}: vertex {u} outside 0..{n - 1}")
        if u % 3 == 1:
            raise InvalidStepError(f"step {i}: vertex {u} is not forced to 0 by every optimum")
        parent += (u, n, n + 1)
    n = len(parent)
    tree = Tree(Graph._from_edges(n, ((parent[v], v) for v in range(1, n))))
    if not _deletion_stable(tree.walk[1]):

        def unstable(i: int) -> bool:
            # the tree after step i: the first 6 + 3i entries
            return not _deletion_stable(parent[: 6 + 3 * i])

        first = bisect.bisect_left(range(len(c)), True, key=unstable)
        raise InvalidStepError(f"step {first}: intermediate tree is not stable")
    return tree


def random_certificate(steps: int, rng: random.Random) -> Certificate:
    """A random walk from P3: step i draws its anchor uniformly from the
    2 + 2i forced-zero labels so far, of which the j-th is (3j + 1) // 2."""
    return tuple((3 * rng.randrange(2 + 2 * i) + 1) // 2 for i in range(steps))


def serialize_certificate(c: Certificate) -> str:
    """Text form: base line "P3", then one "u: v3 v2 v1" line per step,
    v3 the new neighbor of u and v1 the new leaf."""
    lines = ["P3"]
    for n, u in zip(range(3, 3 + 3 * len(c), 3), c):
        lines.append(f"{u}: {n} {n + 1} {n + 2}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    """Inverse of serialize_certificate. Labels are ASCII decimal numbers,
    and step i must create exactly n, n + 1 and n + 2, n = 3 + 3i; that is
    checked once every line has been read. SizeLimitError above
    CERTIFICATE_MAX_STEPS step lines."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "P3":
        raise InvalidStepError('certificate must start with the base line "P3"')
    if len(lines) - 1 > CERTIFICATE_MAX_STEPS:
        raise SizeLimitError(
            f"certificates capped at {CERTIFICATE_MAX_STEPS} steps, got {len(lines) - 1}"
        )
    number = _number_reader(text)
    anchors = []
    wrong_labels = None
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
        n = 3 * idx
        if wrong_labels is None and added != (n, n + 1, n + 2):
            wrong_labels = f"step {idx - 1}: expected new labels {(n, n + 1, n + 2)}, got {added}"
        anchors.append(u)
    if wrong_labels is not None:
        raise InvalidStepError(wrong_labels)
    return tuple(anchors)


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
    anchors: list[int] = []
    for size, (x1, x2, x3, x4) in zip(range(3, t.n, 3), reversed(peels)):
        anchors.append(iso[x4])
        iso.update({x3: size, x2: size + 1, x1: size + 2})
    return RecognitionResult(True, tuple(anchors), None)


def enumerate_family(n: int) -> dict[CanonicalForm, Certificate]:
    """Breadth-first closure of the construction up to order n.

    Levels step by 3 from the base path; each level attaches at every
    forced-zero label, v % 3 != 1, of every member and deduplicates by
    canonical form. A member is its certificate's parent array, which
    ``_forms`` reads directly, so no candidate becomes a ``Tree``. Returns
    every member of order n, keyed by canonical form in sorted order, with
    the first build certificate the closure finds for it.
    """
    if n < 3 or n % 3 != 0:
        raise ValueError(f"family orders are positive multiples of 3, got {n}")
    if n > FAMILY_MAX_N:
        raise SizeLimitError(f"family enumeration capped at n={FAMILY_MAX_N}, got {n}")
    base = [-1, 0, 1]
    level: dict[CanonicalForm, tuple[list[int], Certificate]] = {_forms(base)[0]: (base, ())}
    for size in range(3, n, 3):
        nxt: dict[CanonicalForm, tuple[list[int], Certificate]] = {}
        for key in sorted(level):
            parent, cert = level[key]
            for u in range(size):
                if u % 3 != 1:
                    grown = parent + [u, size, size + 1]
                    (grown_key,) = _forms(grown)
                    if grown_key not in nxt:
                        nxt[grown_key] = (grown, cert + (u,))
        level = nxt
    return {k: level[k][1] for k in sorted(level)}


def check_stable_profile(t: Tree) -> bool:
    """True when the order is a multiple of 3 and the domination number is
    exactly two thirds of it, the profile every stable tree must have."""
    return t.n % 3 == 0 and 3 * prd_number(t) == 2 * t.n

"""The constructive family of stable trees.

Members are exactly the trees reachable from the 3-vertex path by repeatedly
hanging a pendant 3-vertex path off a vertex that every minimum-weight
labeling forces to 0 (``grow``). An accepted tree comes with a replayable
build certificate: the tuple of anchors that grows it from P3. Step i hangs
the path n-(n+1)-(n+2), n = 3 + 3i, off its anchor u, so the certificate
spells the tree's parent array: [-1, 0, 1], then (u, n, n + 1) per step.

Pendant-P3 invariance: hang v3-v2-v1 (labels n, n+1, n+2) off u in T' to
get T; then FZ(T), the forced-zero set, restricted to T' is FZ(T'), and
FZ(T) = FZ(T') + {n, n+2} when u is in FZ(T'). Sketch: the chain costs 2,
as (0, 2, 0), or (0, 0, 2) when u is 2. The only other useful chain,
(2, 0, 1), costs 3 and leaves u a 0 with no 2-neighbor in T'; relabelling u
to 1 gives a labeling of T', so it at best ties an optimum with u at 1 and
adds the label 0 at u only. So every tree a walk from P3 builds has the
closed form FZ = {v : v % 3 != 1}: FZ(P3) = {0, 2}, and each step adds n
and n + 2. A walk therefore checks an anchor by its label alone.

Block partition: a tree is a member exactly when its vertices split into
blocks, paths x-c-y whose middle c has degree 2 in the tree: a perfect
matching with each edge subdivided, so the split is unique when it
exists. A walk builds blocks: labels 3j, 3j + 1, 3j + 2 form one, and each
step hangs a block by an end off an anchor u % 3 != 1, an end. Conversely,
contract the blocks to a tree and take a leaf block B. Middles have no
neighbors outside their blocks, so B hangs by an end off an end u of the
rest, which is a member by induction; its walk's blocks are its blocks by
uniqueness, so u is forced-zero by the closed form and hanging B is a
legal step. ``recognize`` therefore reads no labeling: it finds the blocks.

Deletion lemma: peeling a pendant 3-path off a stable tree T leaves a stable
tree T'. The chain adds exactly 2 whatever its anchor, so for v other than
the anchor x4, number(T' - v) = number(T - v) - 2 = number(T'); and T - x4
is T' - x4 beside a separate P3, whose number is 2. With the paper's
theorem (stable exactly when a member) this lets ``replay_certificate``
check stability once, on the finished tree: once a prefix tree is
unstable, every later one is too. That check is ``solver._deletion_stable``,
the sweeps' yes-or-no test, which stops at the first deletion that changes
the number.
"""

from __future__ import annotations

import bisect
import random
import string
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
LEFT_WITHOUT_BLOCK = "a vertex is left with no block"


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
    """Inverse of serialize_certificate. Lines end at "\n" alone, as edge
    lists and graph6 do, and lose ASCII whitespace (so "\r\n" ends one too).
    Labels are ASCII decimal numbers, and step i must create exactly n,
    n + 1 and n + 2, n = 3 + 3i; that is checked once every line has been
    read. SizeLimitError above CERTIFICATE_MAX_STEPS step lines."""
    lines = [line for line in (raw.strip(string.whitespace) for raw in text.split("\n")) if line]
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


def _block_middles(t: Tree) -> list[int] | str:
    """The middle of each vertex's block (a middle is its own), or why t
    has none. A leaf x of the part not yet covered can only be an end, so
    its block is x, its one uncovered neighbor c, of degree 2 in the tree,
    and c's other neighbor y. Covering them changes only the uncovered
    degrees of y's other neighbors: at 1 a vertex is a new leaf, at 0 it
    is left with no block. That degree and an uncovered-neighbor label sum
    per vertex give c and y in O(1), so this is O(n). The worklist is a
    stack of the tree's leaves in ascending order, then each new leaf; the
    first failure met is the reason. Popped last in, first out, it keeps y
    uncovered: whatever is pushed after a new leaf lies in other parts, so
    its part is cut no more before its pop. If a cover at y cut a part down
    to x and c, x was then a leaf of the tree, and c, pushed after it, is
    popped first and fails the degree test.
    """
    if t.n % 3 != 0:
        return ORDER_NOT_MULTIPLE_OF_3
    adj = t.adjacency
    free = list(map(len, adj))  # uncovered neighbors per vertex
    label_sum = list(map(sum, adj))  # and the sum of their labels
    middle = [-1] * t.n
    work = [v for v in range(t.n) if free[v] == 1]
    while work:
        x = work.pop()
        if middle[x] >= 0:
            continue
        c = label_sum[x]
        if len(adj[c]) != 2:
            return SECOND_NOT_DEGREE_2
        y = label_sum[c] - x  # uncovered: see above
        middle[x] = middle[c] = middle[y] = c
        for w in adj[y]:
            if middle[w] < 0:
                free[w] -= 1
                label_sum[w] -= y
                if free[w] == 1:
                    work.append(w)
                elif free[w] == 0:
                    return LEFT_WITHOUT_BLOCK
    return middle


def recognize(t: Tree) -> RecognitionResult:
    """Decide family membership, with a build certificate on acceptance.

    A tree is a member exactly when ``_block_middles`` finds its blocks,
    so recognition is O(n), in place, in input labels, with no labeling
    DP. On acceptance one breadth-first pass over block ends writes the
    certificate. Vertex 0's block takes labels 0, 1, 2 (lower end, middle,
    higher end). Each block first reached from a labelled end u through
    its end w takes n, n + 1, n + 2 (w, its middle, its other end), and
    its anchor is u's label: an end, so forced-zero by the closed form.
    """
    middle = _block_middles(t)
    if isinstance(middle, str):
        return RecognitionResult(False, None, middle)
    adj = t.adjacency
    label = [-1] * t.n
    a, b = adj[middle[0]]  # in order: adj is sorted
    label[a], label[middle[0]], label[b] = 0, 1, 2
    ends = [a, b]
    anchors: list[int] = []
    for u in ends:  # ends grows as blocks are placed: a breadth-first pass
        for w in adj[u]:
            if label[w] < 0:  # an end of a block not yet placed
                c = middle[w]
                y = sum(adj[c]) - w
                n = 3 + 3 * len(anchors)
                anchors.append(label[u])
                label[w], label[c], label[y] = n, n + 1, n + 2
                ends += (w, y)
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

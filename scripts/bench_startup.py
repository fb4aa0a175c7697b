"""End-to-end timing of short ``prdom`` commands, where start-up dominates.

Run from the root of a checkout. The committed ``BENCH_startup.json``
holds two sides, the parent commit's source and this checkout's, and is
rebuilt with

    mkdir -p ../parent && git archive PARENT_COMMIT src | tar -x -C ../parent
    python3 scripts/bench_startup.py --side parent=../parent/src --side change=src

With no ``--side`` the script times this checkout alone as ``current``.
It will not overwrite a result file that holds other sides; give such a
run its own ``--out``.

The inputs are written once to a temporary directory, from a fixed seed:

- ``tree600``: a 600-vertex tree from a uniform Pruefer sequence, edges
  flipped and shuffled;
- ``member183``: a family member grown from P3 by 60 random construction
  steps, labels shuffled and edges flipped and shuffled.

The commands are ``prdom --version``, ``solve --wset`` and ``stable`` on
``tree600``, ``recognize`` on ``member183`` and ``generate --steps 60``:
each does a few milliseconds of work, so a child's wall time is mostly
interpreter start-up and imports. Each run is one ``python -m prdom.cli``
child, timed and measured as in ``scripts/bench_solve.py``, whose helpers
this script imports; the sides take turns run by run. The record notes
``PYTHONDONTWRITEBYTECODE``, since without it the children read prdom's
cached bytecode instead of compiling the source. Stdlib only.
"""

from __future__ import annotations

import argparse
import datetime
import heapq
import json
import os
import platform
import random
import signal
import sys
import tempfile
from pathlib import Path

from bench_recognize import member_edges, random_walk
from bench_solve import (
    ROOT,
    check_sides,
    machine,
    parse_side,
    run_child,
    summary,
    write_edge_list,
)

SEED = 20242
REPEAT = 15  # the runs are short and noisy, so more of them than bench_solve's 3
TREE_N = 600
MEMBER_STEPS = 60


def prufer_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """The tree of a uniform random Pruefer sequence, edges flipped at random
    and shuffled."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    edges = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
    rng.shuffle(edges)
    return edges


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--side",
        type=parse_side,
        action="append",
        metavar="LABEL=SRC",
        help="a prdom source directory to run, repeatable (default: current=this checkout's src)",
    )
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_startup.json", help="result file")
    args = parser.parse_args(argv)
    sides = dict(args.side or [("current", ROOT / "src")])
    if not check_sides("bench_startup", sides, args.out):
        return 2
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    rng = random.Random(SEED)
    results: dict = {label: {} for label in sides}
    with tempfile.TemporaryDirectory(prefix="bench_startup_") as work:
        tree = Path(work) / "tree600.txt"
        member = Path(work) / "member183.txt"
        digests = {
            "tree600": write_edge_list(tree, TREE_N, prufer_edges(TREE_N, rng)),
            "member183": write_edge_list(
                member, 3 + 3 * MEMBER_STEPS, member_edges(random_walk(MEMBER_STEPS, rng), rng)
            ),
        }
        commands = {
            "--version": ["--version"],
            "solve --wset tree600": ["solve", "--wset", "--input", str(tree)],
            "stable tree600": ["stable", "--input", str(tree)],
            "recognize member183": ["recognize", "--input", str(member)],
            f"generate --steps {MEMBER_STEPS}": ["generate", "--steps", str(MEMBER_STEPS)],
        }
        for name, command in commands.items():
            runs: dict[str, list[tuple[float, float, str]]] = {label: [] for label in sides}
            for _ in range(REPEAT):
                for label, src in sides.items():
                    runs[label].append(run_child(src, command))
            for label, samples in runs.items():
                results[label][name] = entry = summary(samples)
                print(f"{label} {name}: {entry}", file=sys.stderr)

    record = {
        "date": datetime.date.today().isoformat(),
        "machine": machine(),
        "python": platform.python_version(),
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "workload": {
            "seed": SEED,
            "inputs": {
                "tree600": "600-vertex uniform Pruefer tree, shuffled edges, edge list",
                "member183": "183-vertex family member, shuffled labels and edges, edge list",
            },
            "input_sha256": digests,
            "commands": [f"prdom {name}" for name in commands],
            "repeat": REPEAT,
            "measure": "median wall seconds of a python -m prdom.cli child; peak RSS from os.wait4",
        },
        "results": results,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end timing of ``prdom recognize`` and ``prdom verify --certificate``.

Run from the root of a checkout. The committed ``BENCH_recognize.json``
holds two sides, the parent commit's source and this checkout's, and is
rebuilt with

    mkdir -p ../parent && git archive PARENT_COMMIT src | tar -x -C ../parent
    python3 scripts/bench_recognize.py --side parent=../parent/src --side change=src

With no ``--side`` the script times this checkout alone as ``current``.
It will not overwrite a result file that holds other sides; give such a
run its own ``--out``.

The inputs are written once to a temporary directory, from a fixed seed:

- ``member1000`` and ``member3000``: family members grown from P3 by 1000
  and 3000 random construction steps (each anchor drawn from the carried
  forced-zero list), labels shuffled and edges flipped and shuffled, as
  edge lists;
- ``cert1000``: the certificate of a 1000-step walk.

Each run is one ``python -m prdom.cli`` child, timed and measured as in
``scripts/bench_solve.py``, whose helpers this script imports; the sides
take turns run by run. Stdlib only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import random
import signal
import sys
import tempfile
from pathlib import Path

from bench_solve import (
    ROOT,
    check_sides,
    machine,
    parse_side,
    run_child,
    summary,
    write_edge_list,
)

SEED = 20241
REPEAT = 3


def random_walk(steps: int, rng: random.Random) -> list[tuple[int, int]]:
    """The anchors of a random construction walk from P3, as (u, n) pairs:
    step k hangs n-(n+1)-(n+2), n = 3 + 3k, off u."""
    forced = [0, 2]
    walk = []
    for n in range(3, 3 + 3 * steps, 3):
        walk.append((rng.choice(forced), n))
        forced += (n, n + 2)
    return walk


def member_edges(walk: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    """The walk's tree, relabelled by a random permutation, edges flipped at
    random and shuffled."""
    n = 3 + 3 * len(walk)
    edges = [(0, 1), (1, 2)]
    for u, v in walk:
        edges += ((u, v), (v, v + 1), (v + 1, v + 2))
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a]) for a, b in edges]
    rng.shuffle(out)
    return out


def certificate_text(walk: list[tuple[int, int]]) -> str:
    return "".join(["P3\n"] + [f"{u}: {v} {v + 1} {v + 2}\n" for u, v in walk])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--side",
        type=parse_side,
        action="append",
        metavar="LABEL=SRC",
        help="a prdom source directory to run, repeatable (default: current=this checkout's src)",
    )
    parser.add_argument(
        "--out", type=Path, default=ROOT / "BENCH_recognize.json", help="result file"
    )
    args = parser.parse_args(argv)
    sides = dict(args.side or [("current", ROOT / "src")])
    if not check_sides("bench_recognize", sides, args.out):
        return 2
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    rng = random.Random(SEED)
    results: dict = {label: {} for label in sides}
    with tempfile.TemporaryDirectory(prefix="bench_recognize_") as work:
        commands = {}
        digests = {}
        for steps in (1000, 3000):
            file = Path(work) / f"member{steps}.txt"
            edges = member_edges(random_walk(steps, rng), rng)
            digests[file.stem] = write_edge_list(file, 3 + 3 * steps, edges)
            commands[f"recognize {file.stem}"] = ["recognize", "--input", str(file)]
        file = Path(work) / "cert1000.txt"
        file.write_text(certificate_text(random_walk(1000, rng)))
        commands["verify --certificate cert1000"] = ["verify", "--certificate", str(file)]
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
        "workload": {
            "seed": SEED,
            "inputs": {
                "member1000": "3003-vertex family member, shuffled labels and edges, edge list",
                "member3000": "9003-vertex family member, shuffled labels and edges, edge list",
                "cert1000": "certificate of a 1000-step construction walk",
            },
            "input_sha256": digests,
            "commands": [f"prdom {' '.join(c[:2])} FILE" for c in commands.values()],
            "repeat": REPEAT,
            "measure": "median wall seconds of a python -m prdom.cli child; peak RSS from os.wait4",
        },
        "results": results,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

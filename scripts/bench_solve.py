"""End-to-end timing of ``prdom solve`` on two 1M-vertex trees.

Run from the root of a checkout. The committed ``BENCH_solve.json`` holds
two sides, the parent commit's source and this checkout's, and is rebuilt
with

    mkdir -p ../parent && git archive PARENT_COMMIT src | tar -x -C ../parent
    python3 scripts/bench_solve.py --side parent=../parent/src --side change=src

With no ``--side`` the script times this checkout alone as ``current``.
It will not overwrite a result file that holds other sides; give such a
run its own ``--out``.

Each run is one ``python -m prdom.cli solve`` child with ``PYTHONPATH`` at
a side's source directory; its wall time is measured around the child and
its peak RSS comes from the child's own ``os.wait4`` record. The inputs are
written once to a temporary directory:

- ``path``: the path 0-1-...-(n-1);
- ``rrt``: a random recursive tree (vertex i joins a uniform vertex below
  it), labels shuffled and edges flipped and shuffled, from a fixed seed.

Every command runs ``REPEAT`` times per input and side, the sides taking
turns run by run, so a drift in the machine's speed hits each alike. The
medians per side go to ``--out`` with the machine, the Python version and
the workload, and a digest of each report without its ``timing`` key, so
that sides can be seen to agree. The record notes
``PYTHONDONTWRITEBYTECODE``, since with it set every child compiles the
modules it imports instead of reading cached bytecode. Stdlib only.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
N = 1_000_000
SEED = 20240
REPEAT = 3
COMMANDS = {"solve": [], "solve --witness": ["--witness"]}


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def recursive_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random recursive tree, relabelled by a random permutation, edges
    flipped at random and shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = perm[u], perm[v]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(edges)
    return edges


def write_edge_list(path: Path, n: int, edges: list[tuple[int, int]]) -> str:
    text = "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in edges])
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def run_child(src: Path, argv: list[str]) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and output digest of one prdom child: of
    its JSON report without ``timing``, or of any other output as it is."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "prdom.cli", *argv],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # an interrupt or SIGTERM must not leave the child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            message = err.read().decode(errors="replace").strip()
            raise RuntimeError(f"prdom {' '.join(argv)} exited {code}: {message}")
        out.seek(0)
        text = out.read()
    try:
        report = json.loads(text)
    except ValueError:  # graph6 lines or the version line
        return wall, usage.ru_maxrss / 1024, hashlib.sha256(text).hexdigest()
    report.pop("timing", None)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    return wall, usage.ru_maxrss / 1024, digest


def parse_side(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {text!r}")
    return label, Path(src)


def summary(samples: list[tuple[float, float, str]]) -> dict:
    """Median and per-run wall seconds, the largest peak RSS and the
    distinct report digests of one command's runs on one side."""
    return {
        "wall_s": round(statistics.median(r[0] for r in samples), 3),
        "wall_s_runs": [round(r[0], 3) for r in samples],
        "peak_rss_mb": round(max(r[1] for r in samples), 1),
        "report_sha256": sorted({r[2] for r in samples}),
    }


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "processor": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
    }


def check_sides(prog: str, sides: dict[str, Path], out: Path) -> bool:
    """True when every side has a prdom source and ``out`` holds no other
    sides; otherwise say why on stderr."""
    for label, src in sides.items():
        if not (src / "prdom" / "cli.py").is_file():
            print(f"{prog}: no prdom source at {src} for {label}", file=sys.stderr)
            return False
    if out.is_file():
        held = set(json.loads(out.read_text()).get("results", {}))
        if held != set(sides):
            print(
                f"{prog}: {out} holds sides {sorted(held)}, not {sorted(sides)};"
                " pass --out to write this run elsewhere",
                file=sys.stderr,
            )
            return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--side",
        type=parse_side,
        action="append",
        metavar="LABEL=SRC",
        help="a prdom source directory to run, repeatable (default: current=this checkout's src)",
    )
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_solve.json", help="result file")
    args = parser.parse_args(argv)
    sides = dict(args.side or [("current", ROOT / "src")])
    if not check_sides("bench_solve", sides, args.out):
        return 2
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    results: dict = {label: {} for label in sides}
    digests: dict = {}
    with tempfile.TemporaryDirectory(prefix="bench_solve_") as work:
        inputs = {}
        path = Path(work) / "path.txt"
        inputs["path"] = (path, write_edge_list(path, N, path_edges(N)))
        rrt = Path(work) / "rrt.txt"
        inputs["rrt"] = (rrt, write_edge_list(rrt, N, recursive_tree_edges(N, random.Random(SEED))))
        for name, (file, input_digest) in inputs.items():
            digests[name] = input_digest
            for command, flags in COMMANDS.items():
                runs: dict[str, list[tuple[float, float, str]]] = {label: [] for label in sides}
                for _ in range(REPEAT):
                    for label, src in sides.items():
                        runs[label].append(run_child(src, ["solve", "--input", str(file), *flags]))
                for label, samples in runs.items():
                    entry = summary(samples)
                    results[label].setdefault(name, {})[command] = entry
                    print(f"{label} {name} {command}: {entry}", file=sys.stderr)

    record = {
        "date": datetime.date.today().isoformat(),
        "machine": machine(),
        "python": platform.python_version(),
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "workload": {
            "vertices": N,
            "seed": SEED,
            "inputs": {
                "path": "path 0-1-...-(n-1)",
                "rrt": "random recursive tree, shuffled labels and edges",
            },
            "input_sha256": digests,
            "commands": [f"prdom {c} --input FILE" for c in COMMANDS],
            "repeat": REPEAT,
            "measure": "median wall seconds of a python -m prdom.cli child; peak RSS from os.wait4",
        },
        "results": results,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

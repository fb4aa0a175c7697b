"""End-to-end timing of ``prdom`` commands, one ``BENCH_<record>.json`` per record.

Run from the root of a checkout. Each committed record holds two sides,
the parent commit's source and this checkout's, and is rebuilt with

    mkdir -p ../parent && git archive PARENT_COMMIT src | tar -x -C ../parent
    PYTHONDONTWRITEBYTECODE=1 python3 scripts/bench.py RECORD \\
        --side parent=../parent/src --side change=src

where RECORD is a key of ``RECORDS``: ``solve`` (1M-vertex trees),
``recognize`` (family members and a certificate), ``startup`` (commands
that do a few milliseconds of work, so start-up and imports dominate) or
``verify`` (the exhaustive sweeps). With no ``--side`` the script times
this checkout alone as ``current``. It will not overwrite a result file
that holds other sides; give such a run its own ``--out``.

A record's inputs are written once, from its seed, to a temporary
directory, which is every child's working directory: commands name inputs
by relative file names, so no report holds the temporary path. Each run is
one ``python -m prdom.cli`` child with ``PYTHONPATH`` at a side's source;
its wall time is measured around it and its peak RSS read from its
``os.wait4`` record. The sides take turns run by run, and their order is
reversed every round, so a drift in the machine's speed hits each alike.
The medians per side go to ``--out`` with the machine, the Python version,
the workload and a digest of each report without its ``timing`` key, so
that sides can be seen to agree. The record
notes ``PYTHONDONTWRITEBYTECODE``, since with it set every child compiles
the modules it imports instead of reading cached bytecode. Stdlib only.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import heapq
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
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# put(stem, description, text) writes one input file and returns its name
Put = Callable[[str, str, str], str]


def edge_list(n: int, edges: list[tuple[int, int]]) -> str:
    return "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in edges])


def recursive_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random recursive tree (vertex i joins a uniform vertex below it),
    relabelled by a random permutation, edges flipped at random and
    shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = perm[u], perm[v]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(edges)
    return edges


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


def random_walk(steps: int, rng: random.Random) -> list[tuple[int, int]]:
    """The anchors of a random construction walk from P3, as (u, n) pairs:
    step k hangs n-(n+1)-(n+2), n = 3 + 3k, off u, an anchor drawn from the
    carried forced-zero list."""
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


def solve_inputs(put: Put, rng: random.Random) -> dict[str, list[str]]:
    n = 1_000_000
    files = {
        "path": put("path", "1M-vertex path 0-1-...-(n-1)", edge_list(n, [(i, i + 1) for i in range(n - 1)])),
        "rrt": put(
            "rrt",
            "1M-vertex random recursive tree, shuffled labels and edges",
            edge_list(n, recursive_tree_edges(n, rng)),
        ),
    }
    return {
        f"solve{flag} {stem}": ["solve", *flag.split(), "--input", file]
        for stem, file in files.items()
        for flag in ("", " --witness", " --wset")
    }


def recognize_inputs(put: Put, rng: random.Random) -> dict[str, list[str]]:
    commands = {}
    for steps in (1000, 3000):
        stem = f"member{steps}"
        n = 3 + 3 * steps
        text = edge_list(n, member_edges(random_walk(steps, rng), rng))
        file = put(stem, f"{n}-vertex family member, shuffled labels and edges, edge list", text)
        commands[f"recognize {stem}"] = ["recognize", "--input", file]
    walk = random_walk(1000, rng)
    text = "".join(["P3\n"] + [f"{u}: {v} {v + 1} {v + 2}\n" for u, v in walk])
    file = put("cert1000", "certificate of a 1000-step construction walk", text)
    commands["verify --certificate cert1000"] = ["verify", "--certificate", file]
    return commands


def startup_inputs(put: Put, rng: random.Random) -> dict[str, list[str]]:
    tree = put(
        "tree600",
        "600-vertex uniform Pruefer tree, shuffled edges, edge list",
        edge_list(600, prufer_edges(600, rng)),
    )
    member = put(
        "member183",
        "183-vertex family member, shuffled labels and edges, edge list",
        edge_list(183, member_edges(random_walk(60, rng), rng)),
    )
    return {
        "--version": ["--version"],
        "solve --wset tree600": ["solve", "--wset", "--input", tree],
        "stable tree600": ["stable", "--input", tree],
        "recognize member183": ["recognize", "--input", member],
        "generate --steps 60": ["generate", "--steps", "60"],
    }


def verify_inputs(put: Put, rng: random.Random) -> dict[str, list[str]]:
    return {
        f"verify --suite {suite} --max-n {n}": ["verify", "--suite", suite, "--max-n", str(n)]
        for suite, n in (("theorem", 12), ("theorem", 13), ("theorem", 14), ("theorem", 15), ("all", 14))
    }


class Record(NamedTuple):
    seed: int | None
    repeat: int
    inputs: Callable[[Put, random.Random], dict[str, list[str]]]


# startup's runs are short and noisy, so it takes more of them
RECORDS = {
    "solve": Record(20240, 3, solve_inputs),
    "recognize": Record(20241, 3, recognize_inputs),
    "startup": Record(20242, 15, startup_inputs),
    "verify": Record(None, 7, verify_inputs),
}


def write_inputs(name: str, work: Path) -> tuple[dict[str, list[str]], dict[str, str], dict[str, str]]:
    """Write record ``name``'s inputs into ``work``; return its commands,
    keyed by result key, and each input's description and SHA-256."""
    descriptions: dict[str, str] = {}
    digests: dict[str, str] = {}

    def put(stem: str, description: str, text: str) -> str:
        file = f"{stem}.txt"
        (work / file).write_text(text)
        descriptions[stem] = description
        digests[stem] = hashlib.sha256(text.encode()).hexdigest()
        return file

    record = RECORDS[name]
    commands = record.inputs(put, random.Random(record.seed))
    return commands, descriptions, digests


def run_child(src: Path, argv: list[str], cwd: Path) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and output digest of one prdom child run
    in ``cwd``: of its JSON report without ``timing``, or of any other output
    as it is."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "prdom.cli", *argv],
            cwd=cwd,
            env=dict(os.environ, PYTHONPATH=str(src)),
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
    """A ``LABEL=SRC`` pair, its source made absolute, since children run in
    the input directory."""
    label, sep, src = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {text!r}")
    return label, Path(src).resolve()


def summary(samples: list[tuple[float, float, str]]) -> dict:
    """Median and per-run wall seconds, the largest peak RSS and the
    distinct report digests of one command's runs on one side."""
    return {
        "wall_s": round(statistics.median(r[0] for r in samples), 3),
        "wall_s_runs": [round(r[0], 3) for r in samples],
        "peak_rss_mb": round(max(r[1] for r in samples), 1),
        "report_sha256": sorted({r[2] for r in samples}),
    }


def refusal(sides: dict[str, Path], out: Path) -> str | None:
    """Why this run may not go ahead: a side without a prdom source, or an
    ``out`` that is no bench record or holds other sides."""
    for label, src in sides.items():
        if not (src / "prdom" / "cli.py").is_file():
            return f"no prdom source at {src} for {label}"
    if not out.is_file():
        return None
    try:
        record = json.loads(out.read_text())
        held = set(record["results"])
    except (ValueError, TypeError, KeyError):
        return f"{out} is not a bench record; pass --out to write elsewhere"
    if held != set(sides):
        return f"{out} holds sides {sorted(held)}, not {sorted(sides)}; pass --out to write elsewhere"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("record", choices=RECORDS, help="the record to run")
    parser.add_argument(
        "--side",
        type=parse_side,
        action="append",
        metavar="LABEL=SRC",
        help="a prdom source directory to run, repeatable (default: current=this checkout's src)",
    )
    parser.add_argument("--out", type=Path, help="result file (default: BENCH_<record>.json at the root)")
    args = parser.parse_args(argv)
    sides = dict(args.side or [("current", ROOT / "src")])
    out = args.out or ROOT / f"BENCH_{args.record}.json"
    reason = refusal(sides, out)
    if reason:
        print(f"bench: {reason}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = RECORDS[args.record]
    results: dict = {label: {} for label in sides}
    with tempfile.TemporaryDirectory(prefix=f"bench_{args.record}_") as tmp:
        work = Path(tmp)
        commands, descriptions, digests = write_inputs(args.record, work)
        order = list(sides.items())
        for key, command in commands.items():
            runs: dict[str, list[tuple[float, float, str]]] = {label: [] for label in sides}
            for _ in range(spec.repeat):
                for label, src in order:
                    runs[label].append(run_child(src, command, work))
                order.reverse()  # the other side goes first next round
            for label, samples in runs.items():
                results[label][key] = entry = summary(samples)
                print(f"{label} {key}: {entry}", file=sys.stderr)

    record = {
        "date": datetime.date.today().isoformat(),
        "machine": {
            "platform": platform.platform(),
            "processor": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
        },
        "python": platform.python_version(),
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "workload": {
            "seed": spec.seed,
            "inputs": descriptions,
            "input_sha256": digests,
            "commands": [f"prdom {key}" for key in commands],
            "repeat": spec.repeat,
            "measure": "median wall seconds of a python -m prdom.cli child; peak RSS from os.wait4",
        },
        "results": results,
    }
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

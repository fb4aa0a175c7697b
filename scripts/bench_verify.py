"""End-to-end timing of the exhaustive ``prdom verify`` sweeps.

Run from the root of a checkout. The committed ``BENCH_verify.json`` holds
two sides, the parent commit's source and this checkout's, and is rebuilt
with

    mkdir -p ../parent && git archive PARENT_COMMIT src | tar -x -C ../parent
    python3 scripts/bench_verify.py --side parent=../parent/src --side change=src

With no ``--side`` the script times this checkout alone as ``current``.
It will not overwrite a result file that holds other sides; give such a
run its own ``--out``.

The commands are ``verify --suite theorem`` at orders 12 to 15, which
check stability, recognition and closure membership on every free tree up
to that order, and ``verify --suite all --max-n 14``. They read no input
file. Each run is one ``python -m prdom.cli`` child, timed and measured as
in ``scripts/bench_solve.py``, whose helpers this script imports: wall
seconds around the child, peak RSS from its ``os.wait4`` record and a
digest of its report without ``timing``. The sides take turns run by run.
The record notes ``PYTHONDONTWRITEBYTECODE``, since without it the
children read prdom's cached bytecode instead of compiling the source.
Stdlib only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import sys
from pathlib import Path

from bench_solve import ROOT, check_sides, machine, parse_side, run_child, summary

REPEAT = 7
COMMANDS = {
    f"verify --suite {suite} --max-n {n}": ["verify", "--suite", suite, "--max-n", str(n)]
    for suite, n in (("theorem", 12), ("theorem", 13), ("theorem", 14), ("theorem", 15), ("all", 14))
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--side",
        type=parse_side,
        action="append",
        metavar="LABEL=SRC",
        help="a prdom source directory to run, repeatable (default: current=this checkout's src)",
    )
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_verify.json", help="result file")
    args = parser.parse_args(argv)
    sides = dict(args.side or [("current", ROOT / "src")])
    if not check_sides("bench_verify", sides, args.out):
        return 2
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    results: dict = {label: {} for label in sides}
    for name, command in COMMANDS.items():
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
            "commands": [f"prdom {name}" for name in COMMANDS],
            "repeat": REPEAT,
            "measure": "median wall seconds of a python -m prdom.cli child; peak RSS from os.wait4",
        },
        "results": results,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

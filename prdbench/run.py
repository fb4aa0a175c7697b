"""End-to-end and per-layer benchmark of the prdom command-line program.

Run from the root of a checkout:

    python3 prdbench/run.py --workload ingest-solve --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the commands of one
iteration run one after another, each as its own ``python -m prdom.cli``
child with ``PYTHONPATH`` at the checkout's ``src``, and iterations repeat
until ``--seconds`` have passed. Every output is checked; an operation (one
command) fails on a nonzero exit or on any failed check.

``--trace 0`` reports the end-to-end metrics: the median set-up time of the
program (``prdom --version``), and per iteration the median wall and CPU
seconds summed over its children and the largest peak RSS of any child.
``--trace 1`` runs the same commands in this process through
``prdom.cli.main``, first plain and then with every public prdom function
wrapped (see ``spans.py``), and reports per-function calls, self and total
seconds and input vertices. Lines before the last one are for people:
per-command times, throughputs and the machine; the last line is the JSON
result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import inputs
import reference
from spans import MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".prdbench_work"

DEADLINE_S = 170  # a run must end within 180 s
SETUP_SPAWNS = 2  # set-up samples at the start and after each iteration
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

FOREST_PART = 25_000  # ingest-solve: four components of this many vertices
FAMILY_STEPS = 60  # stability-family: generate --steps
MEMBER_N = 3 + 3 * FAMILY_STEPS
RANDOM_TREE_N = 600  # stability-family: the Pruefer tree for stable and solve --wset
SAMPLED_VERTICES = 32  # vertices whose delta and forced-zero status are recomputed
VERIFY_MAX_N = 14
# A000055, free trees on n = 0, 1, 2, ... vertices
FREE_TREES = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741)
STABLE_PER_ORDER = {"3": 1, "6": 1, "9": 2, "12": 5}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: <module>.<function>.<stat> for these functions, each
# module's summed self time, and three ratios.
SIZED = ("calls", "self_s", "total_s", "vertices")
TIMED = ("calls", "self_s", "total_s")
LAYER_FUNCTIONS = {
    "cli.main": TIMED,
    "graphs.parse_edge_list": SIZED,
    "graphs.Graph.init": SIZED,
    "graphs.Forest.init": SIZED,
    "graphs.Forest.component_trees": TIMED,
    "graphs.remove_vertex": TIMED,
    "graphs.delete_vertices": TIMED,
    "graphs.longest_path": TIMED,
    "graphs.diameter": TIMED,
    "graph6.emit_graph6": SIZED,
    "graph6.parse_graph6": SIZED,
    "canonical.canonical_form": SIZED,
    "solver.prd_number": SIZED,
    "solver.optimal_assignment": SIZED,
    "solver.forced_zero_set": SIZED,
    "solver.brute_force": SIZED,
    "stability.stability_report": SIZED,
    "stability.attach_pendant_path": TIMED,
    "stability.optima_report": TIMED,
    "family.grow": TIMED,
    "family.recognize": SIZED,
    "family.enumerate_family": TIMED,
    "enumeration.enumerate_free_trees": TIMED,
    "enumeration.random_labeled_tree": TIMED,
    "sweeps.characterization_sweep": TIMED,
    "sweeps.attachment_delta_sweep": TIMED,
    "sweeps.optima_structure_sweep": TIMED,
}
RATIOS = ("enumeration.dedupe_yield", "family.closure_yield", "trace_overhead_ratio")


def layer_metric_names() -> list[str]:
    names = [f"{fn}.{stat}" for fn, stats in LAYER_FUNCTIONS.items() for stat in stats]
    return names + [f"{module}.self_s" for module in MODULES] + list(RATIOS)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".vertices")):
        return "count"
    return "ratio"


@functools.cache
def baseline() -> dict:
    """Expected digests recorded at the seed commit, with the benchmark's notes."""
    return json.loads((HERE / "baseline.json").read_text())


def payload_digest(text: str) -> str:
    """SHA-256 of a JSON report without its ``timing`` key, or of any other output as is."""
    try:
        report = json.loads(text)
    except ValueError:
        return hashlib.sha256(text.encode()).hexdigest()
    report.pop("timing", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def is_tree(n: int, edges: list[tuple[int, int]]) -> bool:
    if n < 1 or len(edges) != n - 1:
        return False
    adj = reference.adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


class Runner:
    """Runs commands one at a time, as children or in this process, and checks their outputs.

    The first output of each command is checked in full; later iterations must
    reproduce it byte for byte (``timing`` excepted).
    """

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.in_process = False
        self.samples: dict[str, list[tuple[float, float, float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0  # summed over every command run so far
        self.cpu_s = 0.0
        self.first: dict[str, str] = {}  # command -> payload digest of its first output

    def run(self, name: str, argv: list[str], check) -> None:
        out = WORK / f"{name}.out"
        out.unlink(missing_ok=True)
        self.attempted += 1
        code, wall, cpu, rss = (self._call if self.in_process else self._spawn)([*argv, "--output", str(out)])
        self.samples.setdefault(name, []).append((wall, cpu, rss))
        self.wall_s += wall
        self.cpu_s += cpu
        if code != 0:
            return self._fail(name, f"exit code {code}")
        text = out.read_text()
        digest = payload_digest(text)
        if name in self.first:
            if digest != self.first[name]:
                self._fail(name, "output differs from the first run of this command")
            return
        self.first[name] = digest
        errors = []
        try:
            errors.extend(check(text))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            errors.append(f"malformed output: {exc!r}")
        expected = baseline()["digests"].get(self.workload, {}).get(str(self.seed), {}).get(name)
        if expected is not None and expected != digest:
            errors.append(f"payload digest {digest} differs from the seed commit's {expected}")
        if errors:
            self._fail(name, "; ".join(errors))

    def _fail(self, name: str, message: str) -> None:
        self.failed += 1
        print(f"FAILED {name}: {message}", file=sys.stderr)

    def time_setup(self) -> float:
        """Wall time of one ``prdom --version`` child: interpreter start-up plus the prdom and numpy imports."""
        code, wall, _, _ = self._spawn(["--version"])
        if code != 0:
            raise RuntimeError(f"prdom --version exited with code {code}")
        return wall

    def _spawn(self, argv: list[str]) -> tuple[int, float, float, float]:
        """One child; its CPU time and peak RSS come from its own ``wait4`` record.

        A blocking ``wait4`` notices the exit at once; ``Popen.wait`` with a
        timeout polls and would round wall times up to its 50 ms sleeps.
        """
        err_path = WORK / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "prdom.cli", *argv],
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def _call(self, argv: list[str]) -> tuple[int, float, float, float]:
        import prdom.cli

        start = time.perf_counter()
        cpu = time.process_time()
        try:
            code = prdom.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return code, wall, time.process_time() - cpu, rss


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


class IngestSolve:
    """``solve --witness`` on one shuffled 100k-vertex forest of four shapes."""

    def __init__(self, rng: random.Random):
        q = FOREST_PART
        parts = [
            (q, inputs.prufer_tree(q, rng)),
            (q, inputs.path_tree(q)),
            (q, inputs.star_tree(q)),
            (q, inputs.caterpillar_tree(q)),
        ]
        self.n, edges = inputs.disjoint_union(parts)
        edges = inputs.shuffled(self.n, edges, rng)
        self.adj = reference.adjacency(self.n, edges)
        self.path = WORK / "forest.txt"
        self.path.write_text(inputs.edge_list_text(self.n, edges))

    def iteration(self, r: Runner) -> None:
        r.run("solve", ["solve", "--input", str(self.path), "--witness"], self.check_solve)

    def check_solve(self, text: str) -> list[str]:
        report = json.loads(text)
        info, result = report["input"], report["result"]
        errors = []
        if (info["n"], info["edges"], info["components"]) != (self.n, self.n - 4, 4):
            errors.append(f"input summary {info} does not describe the 4-component forest")
        number = reference.prd_number(self.adj)
        if result["number"] != number:
            errors.append(f"number {result['number']}, reference {number}")
        witness = result["witness"]
        if not reference.is_prdf(self.adj, witness):
            errors.append("witness is not a perfect Roman dominating function")
        elif sum(witness) != result["number"]:
            errors.append(f"witness weight {sum(witness)} differs from number {result['number']}")
        return errors

    def summary(self, r: Runner) -> dict[str, tuple[float, str]]:
        return {"vertices_per_s": (self.n / statistics.median(s[0] for s in r.samples["solve"]), "1/s")}


class StabilityFamily:
    """Generate a family member and check it back; stable and solve --wset on a random tree."""

    def __init__(self, rng: random.Random, seed: int):
        self.seed = seed
        self.rng = rng
        self.member_path = WORK / "member.g6"
        n = RANDOM_TREE_N
        edges = inputs.shuffled(n, inputs.prufer_tree(n, rng), rng)
        self.tree_adj = reference.adjacency(n, edges)
        self.tree_path = WORK / "random_tree.txt"
        self.tree_path.write_text(inputs.edge_list_text(n, edges))
        self.sample = rng.sample(range(n), SAMPLED_VERTICES)
        self.tree_number = reference.prd_number(self.tree_adj)
        self.digest: dict[str, str] = {}

    def iteration(self, r: Runner) -> None:
        r.run("generate", ["generate", "--steps", str(FAMILY_STEPS), "--seed", str(self.seed)], self.check_generate)
        member = ["--input", str(self.member_path), "--format", "graph6"]
        r.run("recognize", ["recognize", *member], self.check_recognize)
        r.run("stable_member", ["stable", *member], self.check_stable_member)
        r.run("stable_random", ["stable", "--input", str(self.tree_path)], self.check_stable_random)
        r.run("wset", ["solve", "--wset", "--input", str(self.tree_path)], self.check_wset)

    def check_generate(self, text: str) -> list[str]:
        lines = text.split("\n")
        if len(lines) != 2 or lines[1]:
            return [f"expected one graph6 line, got {len(lines) - 1}"]
        n, edges = inputs.read_graph6(lines[0])
        if n != MEMBER_N or not is_tree(n, edges):
            return [f"generated graph is not a tree on {MEMBER_N} vertices"]
        self.member_path.write_text(inputs.graph6_text(n, inputs.shuffled(n, edges, self.rng)))
        return []

    def check_recognize(self, text: str) -> list[str]:
        report = json.loads(text)
        self.digest["member"] = report["input"]["digest"]
        result = report["result"]
        expected = {"accepted": True, "order": MEMBER_N, "steps": FAMILY_STEPS, "reason": None}
        return [] if result == expected else [f"recognize result {result}, expected {expected}"]

    def check_stable_member(self, text: str) -> list[str]:
        report = json.loads(text)
        result = report["result"]
        errors = []
        if report["input"]["digest"] != self.digest.get("member"):
            errors.append("input digest differs from the one recognize reported")
        if not result["stable"] or set(result["deltas"]) != {0} or len(result["deltas"]) != MEMBER_N:
            errors.append("member is not stable with all deltas 0")
        if 3 * result["base"] != 2 * MEMBER_N:
            errors.append(f"base {result['base']} is not 2n/3")
        return errors

    def check_stable_random(self, text: str) -> list[str]:
        report = json.loads(text)
        self.digest["random"] = report["input"]["digest"]
        result = report["result"]
        base, deltas = result["base"], result["deltas"]
        errors = []
        if base != self.tree_number:
            errors.append(f"base {base}, reference {self.tree_number}")
        if len(deltas) != RANDOM_TREE_N or result["stable"] != (set(deltas) == {0}):
            errors.append("deltas and the stable flag disagree")
        for v in self.sample:
            delta = reference.prd_number(self.tree_adj, removed=v) - self.tree_number
            if deltas[v] != delta:
                errors.append(f"delta at {v} is {deltas[v]}, reference {delta}")
        return errors

    def check_wset(self, text: str) -> list[str]:
        report = json.loads(text)
        result = report["result"]
        forced = result["forced_zero"]
        errors = []
        if report["input"]["digest"] != self.digest.get("random"):
            errors.append("input digest differs from the one stable reported")
        if result["number"] != self.tree_number:
            errors.append(f"number {result['number']}, reference {self.tree_number}")
        if "witness" in result or forced != sorted(set(forced)) or not set(forced) <= set(range(RANDOM_TREE_N)):
            errors.append("forced_zero is not a sorted set of vertices")
        members = set(forced)
        for v in self.sample:
            if (v in members) != reference.forced_zero(self.tree_adj, v, self.tree_number):
                errors.append(f"forced-zero status of {v} differs from the reference")
        return errors

    def summary(self, r: Runner) -> dict[str, tuple[float, str]]:
        return {}


class VerifySweep:
    """``verify --suite all`` over every free tree up to 14 vertices."""

    def __init__(self, seed: int):
        self.seed = seed
        self.trees = sum(FREE_TREES[3:VERIFY_MAX_N + 1])

    def iteration(self, r: Runner) -> None:
        r.run(
            "verify",
            ["verify", "--suite", "all", "--max-n", str(VERIFY_MAX_N), "--seed", str(self.seed)],
            self.check_verify,
        )

    def check_verify(self, text: str) -> list[str]:
        result = json.loads(text)["result"]
        suites = result["suites"]
        theorem = suites["theorem"]
        errors = []
        if not result["passed"] or not all(s["passed"] for s in suites.values()):
            errors.append("a suite did not pass")
        if theorem["trees_checked"] != self.trees:
            errors.append(f"trees_checked {theorem['trees_checked']}, A000055 gives {self.trees}")
        if any(theorem["stable_per_order"].get(k) != v for k, v in STABLE_PER_ORDER.items()):
            errors.append(f"stable_per_order {theorem['stable_per_order']} lacks {STABLE_PER_ORDER}")
        digest = hashlib.sha256(json.dumps(result, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        if digest != baseline()["verify_result_sha256"]:
            errors.append(f"result digest {digest} differs from the seed commit's")
        return errors

    def summary(self, r: Runner) -> dict[str, tuple[float, str]]:
        return {"trees_per_s": (self.trees / statistics.median(s[0] for s in r.samples["verify"]), "1/s")}


WORKLOADS = ("ingest-solve", "stability-family", "verify-sweep")


def make_workload(name: str, seed: int):
    rng = random.Random(f"{name}:{seed}")
    if name == "ingest-solve":
        return IngestSolve(rng)
    if name == "stability-family":
        return StabilityFamily(rng, seed)
    return VerifySweep(seed)


def run_untraced(workload, r: Runner, seconds: int) -> tuple[dict, dict]:
    """Iterations until ``seconds`` have passed, with set-up samples spread between them.

    The machine's speed drifts over seconds, so many short samples spread over
    the run give steadier medians than a few taken together.
    """
    r.time_setup()  # warm-up: byte-compiles prdom in a fresh checkout
    setup = [r.time_setup() for _ in range(SETUP_SPAWNS)]
    walls, cpus = [], []
    started = time.perf_counter()
    while True:
        wall, cpu = r.wall_s, r.cpu_s
        workload.iteration(r)
        walls.append(r.wall_s - wall)
        cpus.append(r.cpu_s - cpu)
        setup.extend(r.time_setup() for _ in range(SETUP_SPAWNS))
        if time.perf_counter() - started >= seconds or time.monotonic() + 2 * walls[-1] > r.deadline:
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(s[2] for samples in r.samples.values() for s in samples),
    }
    info = {f"{name}_s": (statistics.median(s[0] for s in samples), "s") for name, samples in r.samples.items()}
    info.update({f"{name}_rss_mb": (max(s[2] for s in samples), "MB") for name, samples in r.samples.items()})
    info["iterations"] = (len(walls), "count")
    return metrics, info


def run_traced(workload, r: Runner, seconds: int) -> tuple[dict, dict]:
    """Plain and traced in-process iterations in pairs; per-layer figures are per traced iteration."""
    sys.path.insert(0, str(SRC))
    os.environ.update({var: "1" for var in THREAD_VARS})
    import prdom.cli  # noqa: F401  (imported before anything is timed)

    tracer = Tracer()
    r.in_process = True
    plain, traced = [], []
    started = time.perf_counter()
    workload.iteration(r)  # warm-up, so the first plain iteration is not the first in this process
    while True:
        wall = r.wall_s
        workload.iteration(r)
        plain.append(r.wall_s - wall)
        tracer.install()
        try:
            wall = r.wall_s
            workload.iteration(r)
            traced.append(r.wall_s - wall)
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - started
        if elapsed >= seconds or time.monotonic() + elapsed / (len(plain) + 0.5) > r.deadline:
            break
    k = len(traced)
    stats = tracer.stats
    metrics: dict[str, float] = {}
    for fn, wanted in LAYER_FUNCTIONS.items():
        agg = stats[fn]
        for stat in wanted:
            metrics[f"{fn}.{stat}"] = getattr(agg, stat) / k
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(a.self_s for n, a in stats.items() if n.startswith(module + ".")) / k
    canon_in_enumeration = tracer.via["canonical.canonical_form", "enumeration"]
    attach_in_closure = tracer.under["stability.attach_pendant_path", "family.enumerate_family"]
    metrics["enumeration.dedupe_yield"] = stats["enumeration.enumerate_free_trees"].items / canon_in_enumeration if canon_in_enumeration else 0.0
    metrics["family.closure_yield"] = stats["family.enumerate_family"].distinct / attach_in_closure if attach_in_closure else 0.0
    metrics["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    main_total = stats["cli.main"].total_s
    self_sum = sum(a.self_s for a in stats.values())
    info = {
        "self_s_sum": (self_sum / k, "s"),
        "untraced_wall_s": (statistics.median(plain), "s"),
        "traced_wall_s": (statistics.median(traced), "s"),
        "traced_iterations": (k, "count"),
    }
    r.attempted += 1  # the spans themselves are checked as one more operation
    if abs(self_sum - main_total) > 1e-6 * (1 + sum(a.calls for a in stats.values())):
        r._fail("trace", f"self times sum to {self_sum}, cli.main took {main_total}")
    return metrics, info


def declared_names(key: str) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    return [m["name"] for m in json.loads(path.read_text())[key]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prdom" / "cli.py").is_file():
        print(f"prdbench: no prdom source at {SRC}; run from the root of a prdom checkout", file=sys.stderr)
        return 2
    declared = declared_names("per_layer" if args.trace else "end_to_end")
    emitted = layer_metric_names() if args.trace else list(END_TO_END)
    if declared is not None and sorted(declared) != sorted(emitted):
        print("prdbench: BENCHMARK.json does not declare the metrics this script emits", file=sys.stderr)
        return 3

    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        workload = make_workload(args.workload, args.seed)
        r = Runner(args.workload, args.seed, deadline)
        if args.trace:
            metrics, info = run_traced(workload, r, args.seconds)
        else:
            metrics, info = run_untraced(workload, r, args.seconds)
            info.update(workload.summary(r))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    print("env " + json.dumps(env, sort_keys=True))
    for name, digest in sorted(r.first.items()):
        print(f"digest {name} {digest}")
    for name, (value, unit) in info.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {r.failed / r.attempted:.6g} ratio ({r.failed} of {r.attempted} operations)")
    units = {name: layer_unit(name) for name in metrics} if args.trace else END_TO_END
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_run_child_kills_and_reaps_its_child_when_interrupted(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_solve

    pids = []

    def interrupted(pid, options):
        pids.append(pid)
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "wait4", interrupted)
    with pytest.raises(KeyboardInterrupt):
        bench_solve.run_child(ROOT / "src", ["verify", "--max-n", "12"])
    # reaped: the pid is no longer a child of this process, running or not
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def _check_two_sides_that_agree(record_name, by_input=False):
    """A bench record holds a parent and a change side, each with every
    command of its workload, and each command's report digest agrees. A
    record ``by_input`` nests its commands under each of its inputs."""
    record = json.loads((ROOT / record_name).read_text())
    assert {"date", "machine", "python", "pythondontwritebytecode", "workload"} <= record.keys()
    workload = record["workload"]
    sides = record["results"]
    assert set(sides) == {"parent", "change"}
    commands = {
        command.removeprefix("prdom ").removesuffix(" --input FILE")
        for command in workload["commands"]
    }
    if by_input:
        sides = {
            label: {(name, command): entry for name, runs in side.items() for command, entry in runs.items()}
            for label, side in sides.items()
        }
        commands = {(name, command) for name in workload["inputs"] for command in commands}
    assert set(sides["parent"]) == set(sides["change"]) == commands
    for command, parent in sides["parent"].items():
        change = sides["change"][command]
        for entry in (parent, change):
            assert len(entry["wall_s_runs"]) == workload["repeat"]
            assert min(entry["wall_s_runs"]) <= entry["wall_s"] <= max(entry["wall_s_runs"])
            assert len(entry["report_sha256"]) == 1
        assert parent["report_sha256"] == change["report_sha256"], command


def test_startup_record_compares_two_sides_that_agree():
    _check_two_sides_that_agree("BENCH_startup.json")


def test_verify_record_compares_two_sides_that_agree():
    _check_two_sides_that_agree("BENCH_verify.json")


def test_solve_record_compares_two_sides_that_agree():
    _check_two_sides_that_agree("BENCH_solve.json", by_input=True)

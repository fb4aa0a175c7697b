import json
import os
import random
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench

    return bench


def test_run_child_kills_and_reaps_its_child_when_interrupted(bench, monkeypatch, tmp_path):
    pids = []

    def interrupted(pid, options):
        pids.append(pid)
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "wait4", interrupted)
    with pytest.raises(KeyboardInterrupt):
        bench.run_child(ROOT / "src", ["verify", "--max-n", "12"], tmp_path)
    # reaped: the pid is no longer a child of this process, running or not
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def test_report_digests_do_not_depend_on_the_input_directory(bench, tmp_path):
    """The certificate report names its file; run in the input directory it
    names it by a relative name, so the digest recurs from run to run."""
    digests = []
    for work in (tmp_path / "a", tmp_path / "b"):
        work.mkdir()
        commands, _, _ = bench.write_inputs("recognize", work)
        digests.append(bench.run_child(ROOT / "src", commands["verify --certificate cert1000"], work)[2])
    assert digests[0] == digests[1]


def test_the_sides_alternate_which_runs_first(bench, monkeypatch, tmp_path):
    sides = {}
    for label in ("parent", "change"):
        src = tmp_path / label
        (src / "prdom").mkdir(parents=True)
        (src / "prdom" / "cli.py").touch()
        sides[src.resolve()] = label
    runs = []

    def stub(src, argv, cwd):
        runs.append(sides[src])
        return 0.1, 1.0, "digest"

    monkeypatch.setattr(bench, "run_child", stub)
    out = tmp_path / "out.json"
    assert bench.main(["verify", "--side", f"parent={tmp_path / 'parent'}",
                       "--side", f"change={tmp_path / 'change'}", "--out", str(out)]) == 0
    rounds = len(bench.verify_inputs(None, None)) * bench.RECORDS["verify"].repeat
    assert runs == ["parent", "change", "change", "parent"] * (rounds // 2) + ["parent", "change"] * (rounds % 2)
    assert set(json.loads(out.read_text())["results"]) == {"parent", "change"}


@pytest.mark.parametrize("text", ["", "[]", '"results"', "{}"])
def test_an_out_file_that_is_no_record_is_refused(bench, tmp_path, capsys, text):
    out = tmp_path / "BENCH_verify.json"
    out.write_text(text)
    assert bench.main(["verify", "--out", str(out)]) == 2
    assert out.read_text() == text
    err = capsys.readouterr().err
    assert err.startswith("bench: ") and err.count("\n") == 1


def test_the_records_at_the_root_are_the_bench_records(bench):
    names = {path.name.removeprefix("BENCH_").removesuffix(".json") for path in ROOT.glob("BENCH_*.json")}
    assert names == set(bench.RECORDS)


@pytest.mark.parametrize("name", ["solve", "recognize", "startup", "verify"])
def test_record_compares_two_sides_that_agree(name):
    """A bench record holds a parent and a change side, each with every
    command of its workload, and each command's report digest agrees."""
    record = json.loads((ROOT / f"BENCH_{name}.json").read_text())
    assert {"date", "machine", "python", "pythondontwritebytecode", "workload"} <= record.keys()
    workload = record["workload"]
    assert {"seed", "inputs", "input_sha256", "commands", "repeat"} <= workload.keys()
    sides = record["results"]
    assert set(sides) == {"parent", "change"}
    commands = {command.removeprefix("prdom ") for command in workload["commands"]}
    assert set(sides["parent"]) == set(sides["change"]) == commands
    for command, parent in sides["parent"].items():
        change = sides["change"][command]
        for entry in (parent, change):
            assert len(entry["wall_s_runs"]) == workload["repeat"]
            assert min(entry["wall_s_runs"]) <= entry["wall_s"] <= max(entry["wall_s_runs"])
            assert len(entry["report_sha256"]) == 1
        assert parent["report_sha256"] == change["report_sha256"], command


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("steps", [0, 1, 60, 1000])
def test_the_bench_walks_are_family_certificates(bench, seed, steps):
    """The bench draws its members with its own copy of the walk, which must
    stay the family's: its anchors are random_certificate's, step for step."""
    from prdom.family import random_certificate

    walk = bench.random_walk(steps, random.Random(seed))
    assert [n for _, n in walk] == list(range(3, 3 + 3 * steps, 3))
    assert tuple(u for u, _ in walk) == random_certificate(steps, random.Random(seed))

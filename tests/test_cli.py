import ast
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prdom.cli as cli
import prdom.family
import prdom.graph6
import prdom.graphs
import prdom.sweeps
from conftest import NOT_TREES, shuffled_member
from prdom import (
    Tree,
    canonical_form,
    emit_edge_list,
    emit_graph6,
    forced_zero_set,
    grow,
    make_path,
    parse_certificate,
    parse_graph6,
    replay_certificate,
)

ROOT = Path(__file__).resolve().parents[1]
# SHA-256 of the compact, key-sorted "result" of `verify --suite all --max-n 14`
VERIFY_14_RESULT_SHA256 = "58dee713fd5d8dbd65233d59a3a8eeb02fcb0071dc69c00cef9317481c9e9118"
P3_EDGELIST = "3\n0 1\n1 2\n"
P6_EDGELIST = "6\n0 1\n1 2\n2 3\n3 4\n4 5\n"


def run_cli(args, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_p3(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["solve", "--witness", "--wset"], P3_EDGELIST, monkeypatch, capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["number"] == 2
    assert payload["result"]["witness"] == [0, 2, 0]
    assert payload["result"]["forced_zero"] == [0, 2]
    assert payload["input"]["n"] == 3
    assert payload["input"]["digest"].startswith("sha256:")


def test_solve_k1(monkeypatch, capsys):
    code, out, _ = run_cli(["solve"], "1\n", monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["result"]["number"] == 1


def test_solve_forest_input(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["solve", "--wset"], "5\n0 1\n3 4\n", monkeypatch, capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["number"] == 5  # P2 + K1 + P2
    assert payload["input"]["components"] == 3


def test_solve_graph6_input(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["solve", "--format", "graph6"], "Bg\n", monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["result"]["number"] == 2


@pytest.mark.parametrize("stdin_text", ["", "  \n\t\n"])
def test_graph6_stdin_without_a_line_is_a_parse_error(stdin_text, monkeypatch, capsys):
    code, out, err = run_cli(["solve", "--format", "graph6"], stdin_text, monkeypatch, capsys)
    assert (code, out, err) == (2, "", "prdom: parse error: empty graph6 input\n")


@pytest.mark.parametrize(
    ("stdin_text", "message"),
    [
        ("\u2003Bg\u00a0", "non-ASCII character '\\u2003' at offset 0"),
        ("Bg\x1f", "byte 31 at offset 2 outside graph6 range 63..126"),
    ],
    ids=["unicode-spaces", "unit-separator"],
)
def test_graph6_line_is_stripped_only_as_parse_graph6_strips_it(stdin_text, message, monkeypatch, capsys):
    # the CLI refuses what parse_graph6 refuses: it strips ASCII whitespace only
    with pytest.raises(prdom.graphs.ParseError) as info:
        parse_graph6(stdin_text)
    assert str(info.value) == message
    code, out, err = run_cli(["solve", "--format", "graph6"], stdin_text + "\n", monkeypatch, capsys)
    assert (code, out, err) == (2, "", f"prdom: parse error: {message}\n")


@pytest.mark.parametrize("stdin_text", ["Bg", "Bg\n", "Bg\r\n", " Bg \n\n"])
def test_graph6_line_may_end_in_ascii_whitespace(stdin_text, monkeypatch, capsys):
    code, out, _ = run_cli(["solve", "--format", "graph6"], stdin_text, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["result"]["number"] == 2


# A spider with legs 1, 2, 3 (one centroid), a star K1,3 joined at its centre
# to the end of a P4 (two centroids, unequal halves), P8 and three isolated
# vertices, with labels and edge order shuffled.
GOLDEN_FOREST = (
    "26\n20 23\n19 11\n15 13\n22 5\n12 8\n12 6\n25 20\n6 2\n19 4\n0 21\n"
    "13 17\n9 0\n19 24\n12 22\n19 1\n5 18\n1 9\n17 7\n7 25\n14 15\n"
)


def test_golden_digest(monkeypatch, capsys):
    code, out, _ = run_cli(["solve"], GOLDEN_FOREST, monkeypatch, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == {
        "components": 6,
        "digest": "sha256:eb8a06b000fe8df600ea51ee062d71d4de84c366b1676d493fcb16050e10ebd0",
        "edges": 20,
        "n": 26,
    }


def test_determinism_excluding_timing(monkeypatch, capsys):
    payloads = []
    for _ in range(2):
        _, out, _ = run_cli(
            ["solve", "--witness", "--wset"], P3_EDGELIST, monkeypatch, capsys
        )
        data = json.loads(out)
        del data["timing"]
        payloads.append(json.dumps(data, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_stable_p6(monkeypatch, capsys):
    code, out, _ = run_cli(["stable"], P6_EDGELIST, monkeypatch, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["stable"] is True
    assert payload["result"]["deltas"] == [0] * 6


def test_stable_star(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["stable"], "4\n0 1\n0 2\n0 3\n", monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["result"]["stable"] is False


def test_stable_p4(monkeypatch, capsys):
    code, out, _ = run_cli(["stable"], "4\n0 1\n1 2\n2 3\n", monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["result"]["stable"] is False


def test_stable_requires_tree(monkeypatch, capsys):
    code, _, err = run_cli(["stable"], "4\n0 1\n2 3\n", monkeypatch, capsys)
    assert code == 2
    assert "not a tree" in err


def test_recognize_with_certificate(tmp_path, monkeypatch, capsys):
    cert_path = tmp_path / "cert.txt"
    code, out, _ = run_cli(
        ["recognize", "--emit-certificate", str(cert_path)],
        P6_EDGELIST,
        monkeypatch,
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["accepted"] is True
    assert payload["result"]["steps"] == 1
    cert = parse_certificate(cert_path.read_text())
    rebuilt = replay_certificate(cert)
    assert rebuilt.n == 6
    assert canonical_form(rebuilt) == canonical_form(make_path(6))


def test_recognize_rejects_double_star(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["recognize"], "8\n0 1\n0 2\n0 3\n0 4\n4 5\n4 6\n4 7\n", monkeypatch, capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["accepted"] is False
    assert payload["result"]["reason"]


def test_parse_error_exit_code(monkeypatch, capsys):
    code, _, err = run_cli(["solve"], "bogus\n", monkeypatch, capsys)
    assert code == 2
    assert "parse error" in err


def test_cycle_input_exit_code(monkeypatch, capsys):
    code, _, err = run_cli(["solve"], "3\n0 1\n1 2\n2 0\n", monkeypatch, capsys)
    assert code == 2
    assert "not a forest" in err


def test_size_limit_exit_code(monkeypatch, capsys):
    code, _, err = run_cli(
        ["verify", "--suite", "theorem", "--max-n", "20"], "", monkeypatch, capsys
    )
    assert code == 3
    assert "size limit" in err


def test_edge_list_vertex_cap_exit_code(monkeypatch, capsys):
    code, out, err = run_cli(["solve"], "100000000000\n", monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert err == "prdom: size limit: edge lists capped at n=10000000, got 100000000000\n"


def test_unexpected_error_exit_code(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_solve", broken)
    code, out, err = run_cli(["solve"], P3_EDGELIST, monkeypatch, capsys)
    assert code == 4
    assert out == ""
    assert err == "prdom: internal error: RuntimeError: boom second line\n"


REPORT_KEYS = {"command", "options", "input", "result", "version", "timing"}


def spy_writes(monkeypatch):
    """The texts handed to cli._write_output, which still writes them."""
    writes = []
    write = cli._write_output

    def spy(args, text):
        writes.append(text)
        write(args, text)

    monkeypatch.setattr(cli, "_write_output", spy)
    return writes


@pytest.mark.parametrize(
    "argv, stdin_text, expected",
    [
        (["solve", "--witness", "--wset"], P3_EDGELIST, 0),
        (["stable"], P6_EDGELIST, 0),
        (["recognize"], P6_EDGELIST, 0),
        (["generate", "--steps", "2"], "", 0),
        (["verify", "--suite", "theorem", "--max-n", "6"], "", 0),
        (["verify", "--certificate", "valid.txt"], "", 0),
        (["verify", "--certificate", "invalid.txt"], "", 1),
    ],
)
def test_main_writes_each_run_once(argv, stdin_text, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "valid.txt").write_text("P3\n0: 3 4 5\n")
    (tmp_path / "invalid.txt").write_text("P3\n1: 3 4 5\n")  # base center is never forced-zero
    writes = spy_writes(monkeypatch)
    code, out, err = run_cli(argv, stdin_text, monkeypatch, capsys)
    assert (code, err, writes) == (expected, "", [out])
    if argv[0] != "generate":
        report = json.loads(out)
        assert set(report) == REPORT_KEYS
        assert report["command"] == argv[0]


@pytest.mark.parametrize(
    "argv, stdin_text, expected",
    [
        (["solve"], "3\n0 x\n", 2),
        (["stable"], "5\n0 1\n3 4\n", 2),
        (["verify", "--certificate", "valid.txt", "--input", "forest.txt"], "", 2),
        (["verify", "--max-n", "2"], "", 2),
        (["generate", "--all", "4"], "", 2),
        (["solve"], "100000000000\n", 3),
        (["verify", "--suite", "theorem", "--max-n", "16"], "", 3),
        (["generate", "--steps", "100000"], "", 3),
    ],
)
def test_main_writes_nothing_on_a_refusal(argv, stdin_text, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "valid.txt").write_text("P3\n")
    (tmp_path / "forest.txt").write_text("5\n0 1\n3 4\n")
    writes = spy_writes(monkeypatch)
    code, out, _ = run_cli(argv, stdin_text, monkeypatch, capsys)
    assert (code, out, writes) == (expected, "", [])


def test_generate_zero_steps_is_base_path(monkeypatch, capsys):
    code, out, _ = run_cli(["generate", "--steps", "0"], "", monkeypatch, capsys)
    assert code == 0
    assert out == "Bg\n"  # graph6 of the labeled path 0-1-2


def test_generate_walk_is_recognized(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["generate", "--steps", "2", "--seed", "7"], "", monkeypatch, capsys
    )
    assert code == 0
    g = parse_graph6(out.strip())
    assert g.n == 9
    from prdom import recognize

    assert recognize(Tree(g)).accepted


def test_generate_is_seed_reproducible(monkeypatch, capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(
            ["generate", "--steps", "4", "--seed", "11"], "", monkeypatch, capsys
        )
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_generate_matches_the_recomputing_walk(seed, monkeypatch, capsys):
    # the walk that recomputed the forced-zero set at every step; a k-step
    # walk draws the first k choices, so one 60-step walk gives every prefix
    rng = random.Random(seed)
    t = make_path(3)
    expected = [emit_graph6(t)]
    for _ in range(60):
        t = grow(t, rng.choice(sorted(forced_zero_set(t))))
        expected.append(emit_graph6(t))
    for k, g6 in enumerate(expected):
        code, out, _ = run_cli(
            ["generate", "--steps", str(k), "--seed", str(seed)], "", monkeypatch, capsys
        )
        assert code == 0
        assert out == g6.decode("ascii") + "\n"


def test_generate_all_six(monkeypatch, capsys):
    code, out, _ = run_cli(["generate", "--all", "6"], "", monkeypatch, capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    g = parse_graph6(lines[0])
    assert canonical_form(Tree(g)) == canonical_form(make_path(6))


def test_generate_all_sorted_duplicate_free(monkeypatch, capsys):
    code, out, _ = run_cli(["generate", "--all", "12"], "", monkeypatch, capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    forms = [canonical_form(Tree(parse_graph6(line))) for line in lines]
    assert forms == sorted(forms)
    assert len(set(forms)) == 5


def test_generate_all_rejects_bad_order(monkeypatch, capsys):
    code, _, err = run_cli(["generate", "--all", "7"], "", monkeypatch, capsys)
    assert code == 2


def test_verify_passes_and_reports(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "all", "--max-n", "9"], "", monkeypatch, capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["passed"] is True
    suites = payload["result"]["suites"]
    assert set(suites) == {"theorem", "lemmas", "observation"}
    assert suites["theorem"]["stable_per_order"]["9"] == 2


def test_verify_all_clamps_each_suite(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "all", "--max-n", "13"], "", monkeypatch, capsys
    )
    assert code == 0
    suites = json.loads(out)["result"]["suites"]
    assert suites["theorem"]["max_n"] == 13
    assert suites["observation"]["max_n"] == 12  # clamped to its own cap


def test_verify_result_bytes_are_pinned(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "all", "--max-n", "14"], "", monkeypatch, capsys
    )
    assert code == 0
    compact = json.dumps(json.loads(out)["result"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(compact.encode()).hexdigest() == VERIFY_14_RESULT_SHA256


def test_verify_certificate_round_trip(tmp_path, monkeypatch, capsys):
    cert_path = tmp_path / "cert.txt"
    tree_path = tmp_path / "tree.txt"
    tree_path.write_text(P6_EDGELIST)
    run_cli(
        ["recognize", "--emit-certificate", str(cert_path)],
        P6_EDGELIST,
        monkeypatch,
        capsys,
    )
    code, out, _ = run_cli(
        ["verify", "--certificate", str(cert_path), "--input", str(tree_path)],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["valid"] is True
    assert result["matches_input"] is True
    assert result["steps"] == 1


@pytest.mark.parametrize("collecting", [True, False])
def test_main_puts_the_cyclic_collector_back_as_it_found_it(collecting, tmp_path, monkeypatch, capsys):
    cert = tmp_path / "cert.txt"
    cert.write_text("P3\n1: 3 4 5\n")  # base center is never forced-zero
    during = []

    def broken(args):
        during.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_stable", broken)
    runs = [
        (["solve"], P3_EDGELIST, 0),
        (["verify", "--certificate", str(cert)], "", 1),
        (["solve"], "3\n0 x\n", 2),
        (["solve"], "100000000000\n", 3),
        (["stable"], P3_EDGELIST, 4),
    ]
    was = gc.isenabled()
    try:
        for argv, stdin_text, expected in runs:
            (gc.enable if collecting else gc.disable)()
            code, _, _ = run_cli(argv, stdin_text, monkeypatch, capsys)
            assert (code, gc.isenabled()) == (expected, collecting), argv
        for argv, expected in ((["--version"], 0), (["solve", "--no-such-option"], 2)):
            (gc.enable if collecting else gc.disable)()
            with pytest.raises(SystemExit) as exc:
                run_cli(argv, "", monkeypatch, capsys)
            assert (exc.value.code, gc.isenabled()) == (expected, collecting), argv
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_verify_certificate_standalone(tmp_path, monkeypatch, capsys):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("P3\n0: 3 4 5\n")
    code, out, _ = run_cli(
        ["verify", "--certificate", str(cert_path)], "", monkeypatch, capsys
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["valid"] is True and result["order"] == 6


def test_verify_certificate_rejects_tampered(tmp_path, monkeypatch, capsys):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("P3\n1: 3 4 5\n")  # base center is never forced-zero
    code, out, _ = run_cli(
        ["verify", "--certificate", str(cert_path)], "", monkeypatch, capsys
    )
    assert code == 1
    payload = json.loads(out)
    # the options echo the flags, as on a valid certificate
    assert payload["options"] == {"certificate": True, "format": "edgelist"}
    result = payload["result"]
    assert result["valid"] is False
    assert "error" in result


def test_verify_certificate_names_a_label_fault_before_an_earlier_anchor_fault(
    tmp_path, monkeypatch, capsys
):
    # labels are checked while the file is parsed, anchors on replay: with
    # both faults, the later wrong labels are the error reported
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("P3\n1: 3 4 5\n0: 6 7 8\n0: 9 9 9\n")
    code, out, _ = run_cli(["verify", "--certificate", str(cert_path)], "", monkeypatch, capsys)
    assert code == 1
    assert json.loads(out)["result"] == {
        "certificate_path": str(cert_path),
        "valid": False,
        "error": "step 2: expected new labels (9, 10, 11), got (9, 9, 9)",
    }


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["verify", "--certificate", ""], "--certificate"),
        (["verify", "--certificate", "", "--max-n", "-3"], "--certificate"),
        (["recognize", "--emit-certificate", ""], "--emit-certificate"),
    ],
)
def test_an_empty_certificate_path_is_a_usage_error(argv, flag, monkeypatch, capsys):
    # refused before any work: stdin, a valid input for either command, is not read
    stdin = io.StringIO(P3_EDGELIST)
    monkeypatch.setattr(sys, "stdin", stdin)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"prdom: {flag} needs a nonempty file path\n")
    assert stdin.tell() == 0


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["solve", "--input", "", "--output", ""], "--input"),
        (["solve", "--witness", "--input", ""], "--input"),
        (["solve", "--output", ""], "--output"),
        (["stable", "--input", ""], "--input"),
        (["stable", "--output", ""], "--output"),
        (["recognize", "--input", ""], "--input"),
        (["recognize", "--output", ""], "--output"),
        (["generate", "--steps", "2", "--output", ""], "--output"),
        (["verify", "--max-n", "5", "--output", ""], "--output"),
        (["verify", "--certificate", "cert.txt", "--input", ""], "--input"),
    ],
)
def test_an_empty_input_or_output_path_is_a_usage_error(argv, flag, monkeypatch, capsys):
    # an empty path is not read as "stdin" or "stdout": refused before any work
    stdin = io.StringIO(P3_EDGELIST)
    monkeypatch.setattr(sys, "stdin", stdin)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"prdom: {flag} needs a nonempty file path\n")
    assert stdin.tell() == 0


def test_an_empty_path_is_refused_by_the_program(tmp_path):
    # the whole program, as run: one line on stderr and exit 2
    proc = subprocess.run(
        [sys.executable, "-m", "prdom.cli", "solve", "--input", "", "--output", ""],
        input=P3_EDGELIST,
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "prdom: --input needs a nonempty file path\n"
    )


def test_the_empty_certificate_builds_p3(tmp_path, monkeypatch, capsys):
    # P3's certificate is the empty tuple, so nothing may read it as false
    cert_path = tmp_path / "cert.txt"
    code, out, _ = run_cli(
        ["recognize", "--emit-certificate", str(cert_path)], P3_EDGELIST, monkeypatch, capsys
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["accepted"], result["steps"], result["order"]) == (True, 0, 3)
    assert result["certificate_path"] == str(cert_path)
    assert cert_path.read_text() == "P3\n"
    code, out, _ = run_cli(["verify", "--certificate", str(cert_path)], "", monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["result"] == {
        "certificate_path": str(cert_path),
        "valid": True,
        "steps": 0,
        "order": 3,
    }
    code, out, _ = run_cli(["generate", "--all", "3"], "", monkeypatch, capsys)
    assert (code, out) == (0, "Bg\n")


def test_verify_certificate_mismatched_input(tmp_path, monkeypatch, capsys):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("P3\n0: 3 4 5\n")  # rebuilds P6
    tree_path = tmp_path / "tree.txt"
    tree_path.write_text("6\n0 1\n0 2\n0 3\n0 4\n0 5\n")  # star on 6 vertices
    code, out, _ = run_cli(
        ["verify", "--certificate", str(cert_path), "--input", str(tree_path)],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 1
    assert json.loads(out)["result"]["matches_input"] is False


def test_verify_property_failure_exit_code(monkeypatch, capsys):
    mismatch = {"n": 5, "edges": [], "stable": True, "recognized": False,
                "family_member": False, "reason": None}
    failing = {"max_n": 5, "trees_checked": 1, "stable_per_order": {"5": 1},
               "mismatches": [mismatch], "profile_violations": [],
               "degree_rejections_of_stable": [], "passed": False}
    monkeypatch.setattr(prdom.sweeps, "characterization_sweep", lambda max_n: failing)
    code, out, _ = run_cli(
        ["verify", "--suite", "theorem", "--max-n", "5"], "", monkeypatch, capsys
    )
    assert code == 1
    assert json.loads(out)["result"]["passed"] is False


def test_generate_internal_breach_exit_code(monkeypatch, capsys):
    # a walk that attaches at the base path's centre, which is never forced-zero
    monkeypatch.setattr(
        prdom.family, "random_certificate", lambda steps, rng: (1,)
    )
    code, _, err = run_cli(
        ["generate", "--steps", "1"], "", monkeypatch, capsys
    )
    assert code == 4
    assert "invariant" in err


def test_generate_steps_past_the_graph6_cap_exit_code(monkeypatch, capsys):
    # 3 + 3 * 86015 = 258048 vertices, one past GRAPH6_MAX_N; refused before the walk
    def no_walk(steps, rng):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(prdom.family, "random_certificate", no_walk)
    code, out, err = run_cli(["generate", "--steps", "86015"], "", monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert err == (
        "prdom: size limit: --steps 86015 builds more than the graph6 cap of 258047 vertices\n"
    )


def test_generate_steps_past_the_byte_cap_exit_code(monkeypatch, capsys):
    # 3 + 3 * 9459 = 28380 vertices: a graph6 line of 67116339 bytes, past 64 MiB
    def no_emit(g):
        raise AssertionError("emit_graph6 ran")

    monkeypatch.setattr(prdom.graph6, "emit_graph6", no_emit)
    code, out, err = run_cli(["generate", "--steps", "9459"], "", monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert err == (
        "prdom: size limit: --steps 9459 writes a graph6 line of 67116339 bytes,"
        " above the cap of 67108864\n"
    )


def test_generate_byte_cap_admits_a_line_of_exactly_the_cap(monkeypatch, capsys):
    # --steps 20 builds 63 vertices: a 4-byte size field and 326 edge bytes
    monkeypatch.setattr(cli, "GENERATE_MAX_BYTES", 330)
    code, out, _ = run_cli(["generate", "--steps", "20"], "", monkeypatch, capsys)
    assert code == 0 and len(out) == 330 + 1
    monkeypatch.setattr(prdom.graph6, "emit_graph6", None)
    code, out, err = run_cli(["generate", "--steps", "21"], "", monkeypatch, capsys)
    assert code == 3 and out == ""
    assert err == (
        "prdom: size limit: --steps 21 writes a graph6 line of 362 bytes, above the cap of 330\n"
    )


@pytest.mark.parametrize(("g", "tree_message", "forest_message"), NOT_TREES)
def test_stable_and_solve_name_why_the_input_is_refused(g, tree_message, forest_message,
                                                          monkeypatch, capsys):
    text = emit_edge_list(g)
    code, out, err = run_cli(["stable"], text, monkeypatch, capsys)
    assert (code, out, err) == (2, "", f"prdom: input is not a tree: {tree_message}\n")
    code, out, err = run_cli(["solve"], text, monkeypatch, capsys)
    if forest_message is None:
        assert code == 0 and err == ""
    else:
        assert (code, out, err) == (2, "", f"prdom: input is not a forest: {forest_message}\n")


# number forms that int() reads but the edge-list format does not: Unicode
# digits, digit separators and a plus sign, in the count and in a label
@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("\u0663\n\u0660 \u0661\n\u0661 \u0662\n", "line 1: vertex count is not an integer: '\u0663'"),
        ("1_0\n0 1\n", "line 1: vertex count is not an integer: '1_0'"),
        ("+3\n0 1\n", "line 1: vertex count is not an integer: '+3'"),
        ("3\n+0 1\n1 2\n", "line 2: non-integer label in '+0 1'"),
        ("11\n0 1\n1 1_0\n", "line 3: non-integer label in '1 1_0'"),
        ("3\n0 1\n\u0661 2\n", "line 3: non-integer label in '\u0661 2'"),
    ],
)
def test_edge_lists_take_ascii_decimal_numbers_only(text, message, monkeypatch, capsys):
    code, out, err = run_cli(["solve"], text, monkeypatch, capsys)
    assert (code, out, err) == (2, "", f"prdom: parse error: {message}\n")


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("3\n0 1\n1 0\n", "line 3: duplicate edge '1 0'"),
        ("4\n0 1\n1 2\n2 1\n", "line 4: duplicate edge '2 1'"),
    ],
)
def test_solve_names_a_repeated_edge(text, message, monkeypatch, capsys):
    code, out, err = run_cli(["solve"], text, monkeypatch, capsys)
    assert (code, out, err) == (2, "", f"prdom: parse error: {message}\n")


def test_edge_lists_keep_reading_plain_numbers_beside_other_text(monkeypatch, capsys):
    # a non-ASCII space turns on the per-token check, which still reads -1
    # and 0 as numbers and refuses only the label's range
    code, out, _ = run_cli(["solve"], "3\n0\u00a01\n1 2\n", monkeypatch, capsys)
    assert code == 0 and json.loads(out)["result"]["number"] == 2
    code, _, err = run_cli(["solve"], "3\n0\u00a01\n-1 2\n", monkeypatch, capsys)
    assert (code, err) == (2, "prdom: parse error: line 3: label outside 0..2 in '-1 2'\n")


@pytest.mark.parametrize(
    ("text", "line"),
    [
        ("P3\n\u0660: \u0663 \u0664 \u0665\n", "\u0660: \u0663 \u0664 \u0665"),
        ("P3\n0: 3 4 5\n+2: 6 7 8\n", "+2: 6 7 8"),
        ("P3\n0: 3 4 5\n2: 6 7 8_0\n", "2: 6 7 8_0"),
    ],
)
def test_certificates_take_ascii_decimal_numbers_only(text, line, tmp_path, monkeypatch, capsys):
    path = tmp_path / "cert.txt"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(["verify", "--certificate", str(path)], "", monkeypatch, capsys)
    assert code == 1
    step = text.splitlines().index(line)
    assert json.loads(out)["result"] == {
        "certificate_path": str(path),
        "valid": False,
        "error": f"step line {step}: non-integer label in {line!r}",
    }


@pytest.mark.parametrize("separator", ["\x1c", "\u2028"])
def test_certificate_lines_end_at_newline_alone(separator, tmp_path, monkeypatch, capsys):
    # str.splitlines would end a line here too and read one valid step
    path = tmp_path / "cert.txt"
    path.write_text(f"P3{separator}0: 3 4 5\n", encoding="utf-8")
    code, out, _ = run_cli(["verify", "--certificate", str(path)], "", monkeypatch, capsys)
    assert code == 1
    assert json.loads(out)["result"] == {
        "certificate_path": str(path),
        "valid": False,
        "error": 'certificate must start with the base line "P3"',
    }
    path.write_bytes(b"P3\r\n0: 3 4 5\r\n")
    code, out, _ = run_cli(["verify", "--certificate", str(path)], "", monkeypatch, capsys)
    assert code == 0 and json.loads(out)["result"]["valid"]


def test_recognized_certificates_replay_past_a_thousand_steps(tmp_path, monkeypatch, capsys):
    member = shuffled_member(1001, random.Random(2))
    tree_path, cert_path = tmp_path / "tree.txt", tmp_path / "cert.txt"
    tree_path.write_text(emit_edge_list(member))
    code, out, _ = run_cli(
        ["recognize", "--input", str(tree_path), "--emit-certificate", str(cert_path)],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 0 and json.loads(out)["result"]["steps"] == 1001
    code, out, _ = run_cli(
        ["verify", "--certificate", str(cert_path), "--input", str(tree_path)],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["valid"], result["steps"], result["matches_input"]) == (True, 1001, True)


def test_certificate_length_is_capped_before_replay(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(prdom.family, "CERTIFICATE_MAX_STEPS", 3)
    steps = ["0: 3 4 5", "3: 6 7 8", "6: 9 10 11", "9: 12 13 14"]
    path = tmp_path / "cert.txt"
    path.write_text("\n".join(["P3"] + steps[:3]) + "\n")
    code, out, _ = run_cli(["verify", "--certificate", str(path)], "", monkeypatch, capsys)
    assert code == 0 and json.loads(out)["result"]["steps"] == 3
    path.write_text("\n".join(["P3"] + steps) + "\n")
    monkeypatch.setattr(prdom.family, "replay_certificate", None)
    code, out, err = run_cli(["verify", "--certificate", str(path)], "", monkeypatch, capsys)
    assert (code, out, err) == (3, "", "prdom: size limit: certificates capped at 3 steps, got 4\n")


@pytest.mark.parametrize(
    ("suite", "max_n"), [("theorem", "2"), ("lemmas", "0"), ("observation", "1"), ("all", "-3")]
)
def test_verify_max_n_below_three_is_a_usage_error(suite, max_n, monkeypatch, capsys):
    code, out, err = run_cli(
        ["verify", "--suite", suite, "--max-n", max_n], "", monkeypatch, capsys
    )
    assert code == 2
    assert out == ""
    assert err == f"prdom: --max-n must be at least 3, got {max_n}\n"


def test_verify_certificate_ignores_max_n(tmp_path, monkeypatch, capsys):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("P3\n0: 3 4 5\n")
    code, out, _ = run_cli(
        ["verify", "--certificate", str(cert_path), "--max-n", "-3"], "", monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["result"]["valid"] is True


def test_missing_input_file(monkeypatch, capsys):
    code, _, err = run_cli(
        ["solve", "--input", "/nonexistent/x.txt"], "", monkeypatch, capsys
    )
    assert code == 2


NOT_UTF8_EDGELIST = b"3\n0 1\n1 \xff2\n"


def test_undecodable_input_file_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(NOT_UTF8_EDGELIST)
    code, out, err = run_cli(["solve", "--input", str(path)], "", monkeypatch, capsys)
    assert code == 2
    assert out == ""
    assert err == "prdom: parse error: input is not valid UTF-8: cannot decode byte 0xff\n"


def test_undecodable_certificate_file_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"P3\n1: 3 \xff 5\n")
    code, out, err = run_cli(["verify", "--certificate", str(path)], "", monkeypatch, capsys)
    assert code == 2
    assert out == ""
    assert err == "prdom: parse error: input is not valid UTF-8: cannot decode byte 0xff\n"


def test_undecodable_stdin_exit_code(monkeypatch, capsys):
    # a byte stream read the way UTF-8 mode reads stdin, with surrogateescape
    stdin = io.TextIOWrapper(
        io.BytesIO(NOT_UTF8_EDGELIST), encoding="utf-8", errors="surrogateescape"
    )
    monkeypatch.setattr(sys, "stdin", stdin)
    code = cli.main(["stable"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "prdom: parse error: input is not valid UTF-8: cannot decode byte 0xff\n"


def test_undecodable_stdin_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "prdom.cli", "solve", "--format", "graph6"],
        input=b"B\xffg\n",
        capture_output=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.decode() == (
        "prdom: parse error: input is not valid UTF-8: cannot decode byte 0xff\n"
    )


def test_a_closed_stdin_is_unusable_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", None)
    code = cli.main(["solve"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "prdom: standard input is closed\n")


@pytest.mark.parametrize("argv", [["solve"], ["generate"]])
def test_a_closed_stdout_is_unusable_output(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(P3_EDGELIST))
    monkeypatch.setattr(sys, "stdout", None)
    code = cli.main(argv)
    assert (code, capsys.readouterr().err) == (2, "prdom: standard output is closed\n")


def test_a_closed_stdin_subprocess():
    proc = subprocess.run(
        ["sh", "-c", '"$0" -m prdom.cli solve <&-', sys.executable],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "prdom: standard input is closed\n")


def test_output_file(tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["solve", "--output", str(out_path)], P3_EDGELIST, monkeypatch, capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["result"]["number"] == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "prdom.cli", "solve"],
        input=P3_EDGELIST,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["number"] == 2


# the modules that importing the CLI and running cli.main(argv) add to a fresh
# interpreter, one per line
_LOADED_BY_MAIN = """
import contextlib, io, sys
before = set(sys.modules)
from prdom import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:  # --version
        pass
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def _loaded_by_main(argv):
    # a child, since this process has loaded every prdom module (and dataclasses)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_MAIN, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines())


def test_version_loads_no_command_module():
    loaded = _loaded_by_main(["--version"])
    assert {m for m in loaded if m.split(".")[0] == "prdom"} == {"prdom", "prdom.cli", "prdom.graphs"}


@pytest.mark.parametrize(
    "command",
    [["solve", "--witness", "--wset"], ["stable"], ["recognize"], ["generate", "--steps", "3"]],
)
def test_commands_load_neither_the_sweeps_nor_dataclasses(command, tmp_path):
    if command[0] != "generate":
        path = tmp_path / "p6.txt"
        path.write_text(P6_EDGELIST)
        command = [*command, "--input", str(path)]
    loaded = _loaded_by_main([*command, "--output", str(tmp_path / "out")])
    assert "prdom.cli" in loaded
    assert not loaded & {"prdom.sweeps", "prdom.enumeration", "dataclasses"}


def test_importing_the_cli_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, prdom.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "False\n"


def test_brute_force_and_the_optima_sweep_leave_numpy_unloaded():
    script = (
        "import sys\n"
        "from prdom import brute_force, make_spider, optima_structure_sweep\n"
        "brute_force(make_spider([3] * 5))  # 16 vertices\n"
        "optima_structure_sweep(12)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_prdom_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "prdom").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_solve_witness_walks_the_input_once(tmp_path, monkeypatch, capsys):
    # the validating walk serves the DP, the witness and the digest, which
    # re-roots it at the centroids
    calls = []
    walk = prdom.graphs.rooted_order

    def counting(*args, **kwargs):
        calls.append(1)
        return walk(*args, **kwargs)

    # every prdom module that imports the walk (the solvers read Forest.walk),
    # loaded first: a command imports its modules only when it runs
    for home in ("canonical", "solver"):
        importlib.import_module(f"prdom.{home}")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "prdom" and hasattr(module, "rooted_order"):
            monkeypatch.setattr(module, "rooted_order", counting)
    path = tmp_path / "forest.txt"
    path.write_text("9\n0 1\n1 2\n3 4\n4 5\n4 6\n7 8\n")
    code, _, _ = run_cli(["solve", "--input", str(path), "--witness"], "", monkeypatch, capsys)
    assert code == 0
    assert len(calls) == 1


_FUZZ_TEXT = st.text(alphabet="0123456789 \n-:Px~?@AB_\t", max_size=40).map(str.encode)
_SMALL = st.integers(-1, 12)
# near-valid edge lists and certificates, to get past the first parse check
_FUZZ_EDGES = st.builds(
    lambda n, edges: "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in edges]).encode(),
    _SMALL,
    st.lists(st.tuples(_SMALL, _SMALL), max_size=14),
)
_FUZZ_STEPS = st.lists(st.tuples(_SMALL, _SMALL, _SMALL, _SMALL), max_size=4).map(
    lambda steps: "".join(["P3\n"] + [f"{u}: {a} {b} {c}\n" for u, a, b, c in steps]).encode()
)
_FUZZ_BYTES = st.one_of(st.binary(max_size=40), _FUZZ_TEXT, _FUZZ_EDGES, _FUZZ_STEPS)
_FUZZ_COMMANDS = [
    ["solve", "--witness", "--wset"],
    ["stable"],
    ["recognize"],
    ["solve", "--format", "graph6", "--witness"],
    ["stable", "--format", "graph6"],
    ["recognize", "--format", "graph6"],
    ["verify", "--certificate"],
]


@given(data=_FUZZ_BYTES, command=st.sampled_from(_FUZZ_COMMANDS))
@settings(max_examples=300, deadline=None)
def test_raw_bytes_end_in_a_documented_exit_code(tmp_path_factory, data, command):
    # a lower vertex cap keeps every case small; inputs past it exit 3
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "input.bin"
    path.write_bytes(data)
    if command[-1] == "--certificate":
        argv = [*command, str(path)]
    else:
        argv = [*command, "--input", str(path)]
    err = io.StringIO()
    with mock.patch.object(prdom.graphs, "EDGE_LIST_MAX_N", 10_000), \
            contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--output", str(work / "report.json")])
    assert code in (0, 1, 2, 3, 4)
    message = err.getvalue()
    assert "Traceback" not in message
    assert message.count("\n") <= 1
    # success and a failed check report in the JSON; every other exit says why
    assert (message == "") == (code in (0, 1))


def _maybe_flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


# --steps stays below 86014, whose member is just under the graph6 cap (gigabytes
# of output), apart from values past the cap, which are refused before any work
_GENERATE_ARGV = st.builds(
    lambda steps, every, seed: ["generate", *steps, *every, *seed],
    _maybe_flag("--steps", st.one_of(st.integers(-3, 60), st.sampled_from([86015, 10**6]))),
    _maybe_flag("--all", st.integers(-3, 24)),
    _maybe_flag("--seed", st.integers(-(2**64), 2**64)),
)
# bounds past a suite's cap only for a named suite: under "all" they clamp and run
_VERIFY_ARGV = st.one_of(
    st.builds(
        lambda suite, n: ["verify", *suite, "--max-n", str(n)],
        st.sampled_from([[], ["--suite", "all"]]),
        st.integers(-3, 9),
    ),
    st.builds(
        lambda suite, n: ["verify", "--suite", suite, "--max-n", str(n)],
        st.sampled_from(["theorem", "lemmas", "observation"]),
        st.one_of(st.integers(-3, 9), st.sampled_from([16, 10**6])),
    ),
)


@given(argv=st.one_of(_GENERATE_ARGV, _VERIFY_ARGV))
@settings(max_examples=200, deadline=None)
def test_flags_end_in_a_documented_exit_code(tmp_path_factory, argv):
    output = tmp_path_factory.mktemp("flags") / "output.txt"
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--output", str(output)])
    except SystemExit as exc:  # argparse's own usage errors, such as --steps with --all
        assert exc.code == 2
        return
    assert code in (0, 1, 2, 3, 4)
    message = err.getvalue()
    assert "Traceback" not in message
    if code in (2, 3, 4):
        assert message.startswith("prdom: ") and message.count("\n") == 1
        assert message.endswith("\n")
    else:
        assert message == ""

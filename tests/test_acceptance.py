"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The lines also appear in the terminal summary (see conftest). Budgets are
asserted, not just observed: the whole suite is meant to run on a laptop.
"""

import hashlib
import json
import math
import random
import time

import pytest

from prdom import (
    canonical_form,
    brute_force,
    enumerate_free_trees,
    forced_zero_set,
    grow,
    make_path,
    prd_number,
    random_labeled_tree,
    recognize,
    replay_certificate,
)
from prdom.sweeps import (
    attachment_delta_sweep,
    characterization_sweep,
    optima_structure_sweep,
)

ACCEPTANCE_LINES = []

ORACLE_SEED = 20260808
WALK_SEED = 42
# SHA-256 of characterization_sweep(15)'s compact, key-sorted payload
CHARACTERIZATION_15_SHA256 = "54cd2478c5de5a14634158e0679bb857c8bbe518ecd019e3d02f68c23612a798"


def _record(num: int, passed: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def characterization_15():
    started = time.perf_counter()
    result = characterization_sweep(15)
    return result, time.perf_counter() - started


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            checked += 1
            if prd_number(t) != brute_force(t)[0]:
                mismatches += 1
    rng = random.Random(ORACLE_SEED)
    for _ in range(500):
        t = random_labeled_tree(rng.randint(13, 16), rng)
        checked += 1
        if prd_number(t) != brute_force(t)[0]:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 300
    _record(
        1,
        ok,
        f"dp equals exhaustive search on {checked} trees "
        f"({mismatches} mismatches, {elapsed:.1f}s)",
    )
    assert mismatches == 0
    assert elapsed < 300


def test_criterion_2_characterization_sweep(characterization_15):
    result, elapsed = characterization_15
    ok = result["passed"] and not result["mismatches"] and elapsed < 600
    counts = {int(n): c for n, c in result["stable_per_order"].items() if c}
    _record(
        2,
        ok,
        f"stability == recognition == closure membership on "
        f"{result['trees_checked']} trees, n <= 15 "
        f"(stable counts {counts}, {len(result['mismatches'])} mismatches, "
        f"{elapsed:.1f}s)",
    )
    assert result["mismatches"] == []
    assert result["degree_rejections_of_stable"] == []
    assert elapsed < 600
    compact = json.dumps(result, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(compact.encode()).hexdigest() == CHARACTERIZATION_15_SHA256


def test_criterion_3_stable_profile(characterization_15):
    result, _ = characterization_15
    empty_orders = {4, 5, 7, 8, 10, 11, 13, 14}
    strays = {
        int(n): c for n, c in result["stable_per_order"].items() if int(n) in empty_orders and c
    }
    ok = not result["profile_violations"] and not strays
    _record(
        3,
        ok,
        f"every stable tree has order divisible by 3 and number 2n/3 "
        f"({len(result['profile_violations'])} profile violations, "
        f"stray orders {strays or 'none'})",
    )
    assert result["profile_violations"] == []
    assert strays == {}


def test_criterion_4_attachment_deltas():
    result = attachment_delta_sweep(max_n=12, seed=0)
    _record(
        4,
        result["passed"],
        f"pendant deltas +2/+1/+2 held on {result['pendant3_attachments']} any-vertex, "
        f"{result['forced_zero_attachments']} forced-zero, and "
        f"{result['random_attachments']} random attachments "
        f"({len(result['violations'])} violations)",
    )
    assert result["violations"] == []
    assert result["random_attachments"] == 200


def test_criterion_5_optima_structure():
    result = optima_structure_sweep(12)
    _record(
        5,
        result["passed"],
        f"all {result['optima_examined']} optima of {result['stable_trees']} stable trees "
        f"avoid label 1 and 2-labeled leaves; {result['sites_examined']} branch sites "
        f"({len(result['violations'])} violations)",
    )
    assert result["violations"] == []


def test_criterion_6_certificate_round_trip():
    rng = random.Random(WALK_SEED)
    failures = 0
    for _ in range(100):
        t = make_path(3)
        for _ in range(rng.randint(0, 19)):  # up to 60 vertices
            t = grow(t, rng.choice(sorted(forced_zero_set(t))))
        outcome = recognize(t)
        if not outcome.accepted:
            failures += 1
            continue
        rebuilt = replay_certificate(outcome.certificate)  # re-validates each step
        if canonical_form(rebuilt) != canonical_form(t):
            failures += 1
    _record(
        6,
        failures == 0,
        f"100 random construction walks recognized and replayed isomorphically "
        f"({failures} failures)",
    )
    assert failures == 0


def test_criterion_7_performance_and_path_formula():
    big = make_path(1_000_000)
    started = time.perf_counter()
    value = prd_number(big)
    elapsed = time.perf_counter() - started
    formula_ok = value == math.ceil(2 * 1_000_000 / 3)
    regression_ok = all(
        prd_number(make_path(n)) == math.ceil(2 * n / 3) for n in range(1, 3001)
    )
    ok = formula_ok and regression_ok and elapsed < 2.0
    _record(
        7,
        ok,
        f"million-vertex path solved in {elapsed:.2f}s (< 2s); "
        f"ceil(2n/3) regression holds for n <= 3000",
    )
    assert formula_ok
    assert regression_ok
    assert elapsed < 2.0

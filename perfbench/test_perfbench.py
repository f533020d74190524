"""Tests of the benchmark itself: generators, oracle and traced driver.

Run with::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from run import parse_cli_output, percentile_with_tail  # noqa: E402

from repro import run_script  # noqa: E402
from repro.smtlib import parse_script  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: A few scripts of every workload; hard_certified gets one full round.
SAMPLES = {"fuzz_small": 24, "hard_certified": len(W.HARD_ROUND), "incremental_big": 2}


def sample(workload: str, seed: int) -> list[W.Case]:
    generate = W.WORKLOADS[workload].generate
    return [generate(seed, index) for index in range(SAMPLES[workload])]


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_same_seed_gives_identical_scripts(workload):
    first, again, other = sample(workload, 5), sample(workload, 5), sample(workload, 6)
    assert [case.text.encode() for case in first] == [case.text.encode() for case in again]
    assert [case.expected for case in first] == [case.expected for case in again]
    assert [case.text for case in first] != [case.text for case in other]


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1])
def test_every_generated_script_parses(workload, seed):
    for case in sample(workload, seed):
        script = parse_script(case.text)
        checks = sum(type(command).__name__ == "CheckSat" for command in script.commands)
        assert checks == len(case.expected), case.name


def tiny(theory: str, atoms, base, rounds=()):
    return W.decide(W.FUZZ_THEORIES[theory](random.Random(0)), atoms, base, rounds)


def test_oracle_matches_hand_checked_verdicts():
    # Propositional: p0 and not p0.
    p0 = ("p0", lambda env: env["p0"])
    assert tiny("prop", [p0], [("and", 0, ("not", 0))]) == ("unsat",)
    assert tiny("prop", [p0], [("=>", 0, 0)], [("not", 0)]) == ("sat", "sat")
    # LIA: the box is -2..2, so x >= 3 is unsat while x >= 2 is sat.
    assert tiny("lia", [("(>= x 3)", lambda env: env["x"] >= 3)], [0]) == ("unsat",)
    assert tiny("lia", [("(>= x 2)", lambda env: env["x"] >= 2)], [0]) == ("sat",)
    # LRA: 0 < u < 1 needs a non-integer value; u < v < u is unsat.
    scale = W.LRA_SCALE
    between = [("(> u 0.0)", lambda env: env["u"] > 0), ("(< u 1.0)", lambda env: env["u"] < scale)]
    assert tiny("lra", between, [0, 1]) == ("sat",)
    cycle = [
        ("(< (- u v) 0.0)", lambda env: env["u"] - env["v"] < 0),
        ("(< (- v u) 0.0)", lambda env: env["v"] - env["u"] < 0),
    ]
    assert tiny("lra", cycle, [0], [1]) == ("sat", "unsat")
    # QF_UF: congruence forces f(a) = f(b) once a = b.
    uf = [
        ("(= a b)", lambda env: env["a"] == env["b"]),
        ("(distinct (f a) (f b))", lambda env: env["(f a)"] != env["(f b)"]),
    ]
    assert tiny("uf", uf, [0, 1]) == ("unsat",)
    assert tiny("uf", uf, [("not", 0), 1]) == ("sat",)
    # QF_AX: reading back a write gives the written value.
    def read_after_write(env):
        cells = list(env["a"])
        cells[env["i"]] = env["v"]
        return cells[env["i"]] == env["w"]

    ax = [
        ("(= (select (store a i v) i) w)", read_after_write),
        ("(distinct v w)", lambda env: env["v"] != env["w"]),
    ]
    assert tiny("ax", ax, [0, 1]) == ("unsat",)
    assert tiny("ax", ax, [0]) == ("sat",)
    # QF_BV: nothing is unsigned-below zero.
    assert tiny("bv", [("(bvult a #b000)", lambda env: env["a"] < 0)], [0]) == ("unsat",)


@pytest.mark.parametrize(
    "family, size",
    [("diamond", 3), ("bv_factor", 4), ("sparse_simplex", 6), ("dense_simplex", 6), ("php", 3)],
)
def test_small_hard_families_get_their_constructed_verdicts(family, size):
    generate = {name: generate for name, generate, _size in W.HARD_ROUND}[family]
    verdicts = set()
    for seed in range(6):
        text, expected = generate(random.Random(seed), size)
        assert run_script(text).answers == list(expected)
        verdicts.update(expected)
    if family in ("diamond", "bv_factor"):
        assert verdicts == {"sat", "unsat"}


@pytest.mark.parametrize("theory_index", range(len(W.FUZZ_THEORIES)))
def test_oracle_agrees_with_the_solver_on_fuzz_scripts(theory_index):
    for index in range(theory_index, theory_index + 30, len(W.FUZZ_THEORIES)):
        case = W.fuzz_case(3, index)
        answers = run_script(case.text, timeout=2).answers
        for answer, expected in zip(answers, case.expected):
            assert answer in ("unknown", expected), case.name


def test_percentile_with_tail():
    samples = [float(value) for value in range(1, 101)]
    assert percentile_with_tail(samples) == (90.0, "p90 of 100 scripts, 10 beyond it")
    value, label = percentile_with_tail(samples[:5])
    assert value == 5.0 and label.startswith("max of 5")


def test_parse_cli_output():
    stdout = "sat\nunknown\n; check-sat #0: sat (conflicts=3, vars=7)\n"
    stdout += "; check-sat #1: unknown reason=timeout (conflicts=9, vars=7)\n"
    answers, checks = parse_cli_output(stdout)
    assert answers == ["sat", "unknown"]
    assert [(c.answer, c.reason, c.budget_bound) for c in checks] == [
        ("sat", None, False),
        ("unknown", "timeout", True),
    ]
    assert checks[0].stats == {"conflicts": 3, "vars": 7}


def test_driver_layer_times_fit_in_its_wall_time(tmp_path):
    text, _expected = W.euf_php_case(random.Random(0), 3)
    script = tmp_path / "php.smt2"
    script.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    driver = ROOT / "perfbench" / "driver.py"
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(driver), str(script), "--check-proofs"],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    wall = time.perf_counter() - started
    document = json.loads(completed.stdout.splitlines()[-1])
    spans = document["spans"]
    layers = spans["import"] + spans["parse"] + spans["run"] + spans["proof_check"]
    assert layers <= spans["total"] <= wall
    (check,) = document["checks"]
    assert check["answer"] == "unsat" and check["proof_check"]["ok"]
    phases = check["phases"]
    engine = sum(phases.get(name, 0) for name in ("prepare", "encode", "search", "model", "validate"))
    assert engine <= phases["total"] <= spans["run"] * 1e9

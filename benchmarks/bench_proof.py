#!/usr/bin/env python3
"""Benchmark suite for proof production and checking.

Four deterministic workload families measure the certification
pipeline end to end:

* ``pigeonhole_plain`` / ``pigeonhole_logged`` — the same PHP(n+1, n)
  refutation with proof logging off and on: the pair bounds the
  logging overhead on a learning-heavy unsat search.
* ``pigeonhole_check`` — replaying the logged proof through the
  independent RUP/DRAT checker (two-watched-literal propagation over
  its own data structures, sharing no code with the solver): checker
  throughput on a real proof.  Its ``checker`` block (clauses,
  deletions, RUP tests, propagations) is gated exactly, and
  ``us_per_check_propagation`` — check µs per checker assignment — is
  the checker's unit cost.
* ``random_3sat_logged`` — fixed-seed phase-transition 3-SAT with
  logging on; every unsat instance's proof is checked, so the row
  carries both solve and check time on mixed verdicts.
* ``engine_unsat_core`` — an engine-level script with many ``:named``
  assertions of which exactly one clashing pair matters: measures the
  named-selector machinery, core extraction and proof certification
  through the full SMT-LIB stack.

Every answer, core and proof is verified.  Tiers: ``smoke`` (CI's
per-push gate) and ``full``.

Usage::

    PYTHONPATH=src python benchmarks/bench_proof.py [--mode {smoke,full}] [--out PATH]
"""

from __future__ import annotations

import time

import harness
from bench_sat import RANDOM_3SAT_SEEDS, pigeonhole_clauses, random_3sat_clauses
from repro.engine import solve_script
from repro.proof import ProofLog, check_proof
from repro.sat import Solver

#: (pigeonhole holes, random-3sat vars, named assertions) per tier.  35
#: vars puts two of the three fixed seeds on the unsat side, so even the
#: smoke run checks proofs on mixed verdicts.
MODE_SIZES = {
    "smoke": (4, 35, 20),
    "full": (6, 100, 200),
}
COLUMNS = [
    ("workload", 20),
    ("n", 6),
    ("answer", 16),
    ("proof.steps", 8),
    ("us_per_check_propagation", 8),
    ("seconds", 0),
]


def named_core_script(width: int) -> str:
    """``width`` named facts on distinct variables plus one clashing
    pair on x: the core must be exactly that pair."""
    lines = ["(set-logic QF_LIA)", "(set-option :produce-unsat-cores true)"]
    lines.append("(declare-const x Int)")
    for i in range(width):
        lines.append(f"(declare-const v{i} Int)")
        lines.append(f"(assert (! (<= v{i} {i}) :named pad{i}))")
    lines.append("(assert (! (<= x 0) :named low))")
    lines.append("(assert (! (>= x 1) :named high))")
    lines.append("(check-sat)")
    lines.append("(get-unsat-core)")
    return "\n".join(lines) + "\n"


def _solve(clauses: list[list[int]], logged: bool):
    solver = Solver()
    if logged:
        solver.proof = ProofLog()
    for clause in clauses:
        solver.add_clause(clause)
    t0 = time.perf_counter()
    answer = solver.solve()
    return solver, answer, time.perf_counter() - t0


def run_pigeonhole(holes: int) -> list[dict]:
    clauses = pigeonhole_clauses(holes)
    _, answer_plain, plain_s = _solve(clauses, logged=False)
    solver, answer, logged_s = _solve(clauses, logged=True)
    assert answer_plain == answer == "unsat", (answer_plain, answer)
    proof = solver.proof.snapshot(())
    t0 = time.perf_counter()
    verdict = check_proof(proof)
    check_s = time.perf_counter() - t0
    assert verdict.ok, verdict.error
    counts = proof.counts()
    shape = {
        "steps": len(proof),
        "rup": counts["rup"],
        "deletions": counts["delete"],
    }
    return [
        {
            "workload": "pigeonhole_plain",
            "n": holes,
            "answer": answer_plain,
            "seconds": {"solve": round(plain_s, 6)},
        },
        {
            "workload": "pigeonhole_logged",
            "n": holes,
            "answer": answer,
            "proof": shape,
            "seconds": {"solve": round(logged_s, 6)},
        },
        {
            "workload": "pigeonhole_check",
            "n": holes,
            "answer": "certified" if verdict.ok else "REJECTED",
            "checker": verdict.stats,
            "us_per_check_propagation": round(
                check_s * 1e6 / max(1, verdict.stats["propagations"]), 3
            ),
            "seconds": {"check": round(check_s, 6)},
        },
    ]


def run_random_3sat(num_vars: int) -> dict:
    solve_s = check_s = 0.0
    answers = []
    steps = 0
    for seed in RANDOM_3SAT_SEEDS:
        clauses = random_3sat_clauses(num_vars, seed)
        solver, answer, seconds = _solve(clauses, logged=True)
        solve_s += seconds
        answers.append(answer)
        if answer == "unsat":
            proof = solver.proof.snapshot(())
            steps += len(proof)
            t0 = time.perf_counter()
            verdict = check_proof(proof)
            check_s += time.perf_counter() - t0
            assert verdict.ok, verdict.error
    return {
        "workload": "random_3sat_logged",
        "n": num_vars,
        "answer": ",".join(answers),
        "proof": {"steps": steps},
        "seconds": {"solve": round(solve_s, 6), "check": round(check_s, 6)},
    }


def run_engine_cores(width: int) -> dict:
    source = named_core_script(width)
    t0 = time.perf_counter()
    checks = solve_script(source, produce_proofs=True, produce_unsat_cores=True)
    solve_s = time.perf_counter() - t0
    (check,) = checks
    t0 = time.perf_counter()
    verdict = check_proof(check.proof) if check.proof is not None else None
    check_s = time.perf_counter() - t0
    assert check.answer == "unsat", check.answer
    assert check.unsat_core == ("low", "high"), check.unsat_core
    assert verdict is not None and verdict.ok, verdict
    return {
        "workload": "engine_unsat_core",
        "n": width,
        "answer": check.answer,
        "core": list(check.unsat_core or ()),
        "proof": {"steps": len(check.proof) if check.proof is not None else 0},
        "seconds": {"solve": round(solve_s, 6), "check": round(check_s, 6)},
    }


def workloads(sizes) -> list[dict]:
    holes, sat3_vars, width = sizes
    return [*run_pigeonhole(holes), run_random_3sat(sat3_vars), run_engine_cores(width)]


if __name__ == "__main__":
    raise SystemExit(harness.main("proof", MODE_SIZES, workloads, COLUMNS))

#!/usr/bin/env python3
"""Benchmark suite for the parallel portfolio runner.

Races the diversified :class:`~repro.sat.SolverConfig` lineup against the
sequential engine on the two heavy-tier families where single-trajectory
luck dominates wall clock:

* ``pigeonhole`` — PHP(n+1, n), resolution-hard and always unsat.
* ``random_3sat`` — uniform 3-SAT at the phase-transition ratio (fixed
  seeds, mixed answers).

Measurement is **interleaved A/B**: for every worker count the suite
runs the sequential engine immediately before the portfolio race and
derives the speedup from that adjacent pair, so machine drift between
the first and last run cannot flatter either side.  Every run's verdicts
are asserted equal to the sequential engine's (a portfolio must never
change an answer), and the win-attribution table records which config
won each race.

NOTE: on a single-core machine the portfolio cannot beat the sequential
engine except by diversification luck — workers time-share one CPU.
Speedups here are honest measurements of whatever hardware runs them
(the JSON records ``cpus``), not a claim about the 1-core case.  Tiers:
``smoke`` (CI's per-push gate), ``full`` and ``heavy``.

Usage::

    PYTHONPATH=src python benchmarks/bench_portfolio.py [--mode {smoke,full,heavy}] [--out PATH]
"""

from __future__ import annotations

import time

import harness
from bench_sat import pigeonhole_clauses, random_3sat_clauses
from repro import run_script
from repro.portfolio import solve_portfolio

#: (pigeonhole holes, 3-SAT vars, 3-SAT seeds, worker counts) per tier.
MODE_SIZES = {
    "smoke": (4, 30, (0,), (1, 2)),
    "full": (6, 120, (0, 1), (1, 2, 4)),
    "heavy": (7, 200, (0, 1), (1, 2, 4, 8)),
}
#: Hard wall-clock ceiling per race, so a pathological heavy run cannot
#: wedge CI; hitting it shows up as a verdict mismatch (unknown/timeout).
RACE_TIMEOUT = 600.0
COUNTERS = ("conflicts", "decisions", "propagations", "restarts", "learned")
COLUMNS = [
    ("workload", 18), ("n", 5), ("answer", 8), ("seconds", 0), ("speedup", 0), ("wins", 0)
]


def clauses_to_script(clauses: list[list[int]]) -> str:
    """Render a CNF clause list as an SMT-LIB script over Bool consts."""
    num_vars = max(abs(lit) for clause in clauses for lit in clause)
    lines = ["(set-logic QF_UF)"]
    lines.extend(f"(declare-const b{v} Bool)" for v in range(1, num_vars + 1))
    for clause in clauses:
        lits = " ".join(
            f"b{lit}" if lit > 0 else f"(not b{-lit})" for lit in clause
        )
        lines.append(f"(assert (or {lits}))")
    lines.append("(check-sat)")
    return "\n".join(lines)


def sequential_run(script: str) -> tuple[list[str], float, dict[str, int]]:
    t0 = time.perf_counter()
    result = run_script(script, timeout=RACE_TIMEOUT)
    elapsed = time.perf_counter() - t0
    metrics = result.check_results[0].metrics
    solver = {key: metrics[f"sat.{key}"] for key in COUNTERS}
    return result.answers, elapsed, solver


def portfolio_run(script: str, workers: int) -> tuple[list[str], float, str]:
    t0 = time.perf_counter()
    outcome = solve_portfolio(script, workers=workers, timeout=RACE_TIMEOUT)
    elapsed = time.perf_counter() - t0
    return outcome.result.answers, elapsed, outcome.winner_config.name


def run_family(name: str, n: int, script: str, worker_counts: tuple[int, ...]) -> dict:
    seconds: dict[str, float] = {}
    speedup: dict[str, float] = {}
    wins: dict[str, str] = {}
    baseline_answers, seq_s, solver = sequential_run(script)
    seconds["sequential"] = round(seq_s, 6)
    for workers in worker_counts:
        # Interleaved A/B: a fresh sequential run right before each race.
        answers_a, seq_adjacent, _ = sequential_run(script)
        assert answers_a == baseline_answers, (name, workers, "sequential drifted")
        answers_b, port_s, winner = portfolio_run(script, workers)
        assert answers_b == baseline_answers, (
            f"{name}: portfolio w{workers} changed the verdict "
            f"({answers_b} vs {baseline_answers})"
        )
        seconds[f"portfolio_w{workers}"] = round(port_s, 6)
        speedup[f"w{workers}"] = round(seq_adjacent / port_s, 3) if port_s else 0.0
        wins[f"w{workers}"] = winner
    return {
        "workload": name,
        "n": n,
        "answer": ",".join(baseline_answers),
        "solver": solver,
        "seconds": seconds,
        "speedup": speedup,
        "wins": wins,
    }


def workloads(sizes) -> list[dict]:
    holes, sat3_vars, seeds, worker_counts = sizes
    scripts = {"pigeonhole": (holes, pigeonhole_clauses(holes))}
    for seed in seeds:
        scripts[f"random_3sat_s{seed}"] = (sat3_vars, random_3sat_clauses(sat3_vars, seed))
    return [
        run_family(name, n, clauses_to_script(clauses), worker_counts)
        for name, (n, clauses) in scripts.items()
    ]


if __name__ == "__main__":
    raise SystemExit(harness.main("portfolio", MODE_SIZES, workloads, COLUMNS))

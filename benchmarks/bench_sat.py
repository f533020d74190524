#!/usr/bin/env python3
"""Benchmark suite for the CNF pipeline and the CDCL solver.

Three classic workload families, all deterministic:

* ``pigeonhole`` — PHP(n+1, n) as direct CNF clauses: resolution-hard,
  always unsat; stresses conflict analysis, learning and restarts.
* ``random_3sat`` — uniform 3-SAT at the phase-transition ratio m/n = 4.26
  over fixed seeds, aggregated into one row: the classic mixed sat/unsat
  stress test.
* ``xor_chain_sat`` / ``xor_chain_unsat`` — chained parity constraints
  built as *terms* and lowered through ``to_nnf`` + Tseitin, so this family
  measures the whole cnf pipeline, not just the solver.

Each row reports CNF size, the answer, solver counters and wall-clock
split into encode and solve.  Tiers: ``smoke`` (milliseconds, CI's
per-push gate), ``full`` (sub-second) and ``heavy`` (pigeonhole 8,
random 3-SAT at n=200, 4000-long xor chains — seconds-scale, so a real
speedup is distinguishable from timer noise).

Usage::

    PYTHONPATH=src python benchmarks/bench_sat.py [--mode {smoke,full,heavy}] [--out PATH]
"""

from __future__ import annotations

import random
from collections import Counter

import harness
from repro.obs import Tracer, phase_seconds
from repro.sat import Solver
from repro.smtlib import BOOL, TRUE, Apply, Symbol, TseitinEncoder, bool_const, evaluate, to_nnf

#: (pigeonhole holes, random-3sat vars, xor length) per tier.
MODE_SIZES = {
    "smoke": (4, 30, 60),
    "full": (7, 150, 1200),
    "heavy": (8, 200, 4000),
}
PHASE_TRANSITION_RATIO = 4.26
RANDOM_3SAT_SEEDS = (0, 1, 2)
COUNTERS = ("conflicts", "decisions", "propagations", "restarts", "learned")
COLUMNS = [
    ("workload", 16), ("n", 6), ("nodes.vars", 7), ("nodes.clauses", 8),
    ("answer", 12), ("solver.conflicts", 10), ("seconds", 0),
]


def pigeonhole_clauses(holes: int) -> list[list[int]]:
    """PHP(holes+1, holes): every pigeon in a hole, no hole shared."""
    pigeons = holes + 1

    def var(i: int, j: int) -> int:
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, j), -var(b, j)])
    return clauses


def random_3sat_clauses(num_vars: int, seed: int) -> list[list[int]]:
    """Uniform random 3-SAT at the phase-transition ratio."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(round(PHASE_TRANSITION_RATIO * num_vars)):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def xor_chain_terms(length: int, satisfiable: bool):
    """Parity constraints over a chain: ``z_i = x_i xor z_{i-1}``, with the
    chain head pinned and the overall parity asserted both through the
    chain and directly over the ``x_i`` — consistent when ``satisfiable``,
    a parity contradiction otherwise."""
    xs = [Symbol(f"x{i}", BOOL) for i in range(length)]
    zs = [Symbol(f"z{i}", BOOL) for i in range(length)]
    assertions = [Apply("=", (zs[0], xs[0]), BOOL)]
    for i in range(1, length):
        step = Apply("xor", (xs[i], zs[i - 1]), BOOL)
        assertions.append(Apply("=", (zs[i], step), BOOL))
    direct = Apply("xor", tuple(xs), BOOL)
    assertions.append(Apply("=", (zs[-1], direct), BOOL))
    if not satisfiable:
        assertions.append(Apply("xor", (zs[-1], direct), BOOL))
    return assertions


def clause_instance(clauses: list[list[int]], num_vars: int = 0):
    """An instance encoder for a clause list: the model check is direct."""

    def encode():
        solver = Solver(num_vars or max(abs(lit) for clause in clauses for lit in clause))
        solver.add_clauses(clauses)
        return solver, len(clauses), lambda model: all(
            any((lit > 0) == model[abs(lit)] for lit in c) for c in clauses
        )

    return encode


def term_instance(assertions):
    """An instance encoder lowering terms through NNF + Tseitin; the model
    check evaluates the original terms."""

    def encode():
        encoder = TseitinEncoder()
        for term in assertions:
            encoder.assert_term(to_nnf(term))
        formula = encoder.formula
        solver = Solver(formula.num_vars)
        solver.add_clauses(formula.clauses)

        def holds(model):
            env = {atom.name: bool_const(model[var]) for atom, var in formula.atom_vars.items()}
            return all(evaluate(term, env) is TRUE for term in assertions)

        return solver, len(formula.clauses), holds

    return encode


def sat_row(name: str, n: int, instances, expected=None) -> dict:
    """Encode and solve each instance (timed as ``encode`` and ``solve``),
    check every sat model, and aggregate the counters into one row.  An
    instance is a function returning ``(solver, clause count, model
    check)``."""
    tracer = Tracer()
    answers, totals = [], Counter()
    for encode in instances:
        with tracer.span("encode", merge=True):
            solver, num_clauses, holds = encode()
        with tracer.span("solve", merge=True):
            answer = solver.solve()
        assert answer != "sat" or holds(solver.model), name
        answers.append(answer)
        totals.update(solver.stats)
        num_vars = solver.num_vars
    assert expected is None or answers == expected, (name, answers, expected)
    phases = phase_seconds(tracer)
    return {
        "workload": name,
        "n": n,
        "nodes": {"vars": num_vars, "clauses": num_clauses},
        "answer": ",".join(answers),
        "solver": {key: totals[key] for key in COUNTERS},
        "seconds": phases,
        "phases": phases,
        "metrics": {f"sat.{key}": value for key, value in totals.items()},
    }


def workloads(sizes) -> list[dict]:
    holes, sat3_vars, xor_length = sizes
    return [
        sat_row("pigeonhole", holes, [clause_instance(pigeonhole_clauses(holes))], ["unsat"]),
        sat_row(
            "random_3sat",
            sat3_vars,
            [
                clause_instance(random_3sat_clauses(sat3_vars, seed), sat3_vars)
                for seed in RANDOM_3SAT_SEEDS
            ],
        ),
        sat_row(
            "xor_chain_sat", xor_length, [term_instance(xor_chain_terms(xor_length, True))], ["sat"]
        ),
        sat_row(
            "xor_chain_unsat",
            xor_length,
            [term_instance(xor_chain_terms(xor_length, False))],
            ["unsat"],
        ),
    ]


if __name__ == "__main__":
    raise SystemExit(harness.main("sat", MODE_SIZES, workloads, COLUMNS))

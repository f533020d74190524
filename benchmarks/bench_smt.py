#!/usr/bin/env python3
"""Benchmark suite for the DPLL(T) engine: EUF workloads and
incremental push/pop solving.

Four deterministic workload families, all driven through the full
engine (parse-free: scripts are built as command tuples):

* ``euf_orbit`` — the orbit collapse ``f^n(x) = x ∧ f^(n+1)(x) = x ∧
  f(x) ≠ x``: a deep congruence-closure chain, always unsat; stresses
  registration, congruence propagation and proof-forest explanations.
* ``euf_pigeonhole`` — n+1 constants mapped by an uninterpreted ``f``
  into n named holes, images pairwise distinct: the SAT core enumerates
  hole choices and EUF vetoes them with blocking lemmas — the classic
  lazy-SMT search/theory ping-pong, always unsat.
* ``euf_model`` — a satisfiable equality web over function chains;
  measures closure plus model construction and in-engine validation.
* ``incremental`` — a shared boolean core (``bench_sat``'s satisfiable
  xor chain) plus ``rounds`` push/assert/check/pop deltas, solved twice:
  once through ONE persistent engine (selector-literal frames, retained
  learned clauses, zero re-encoding of the core) and once from scratch
  with a fresh engine per query.  The row reports both times and their
  ratio; the suite asserts that both paths agree on every answer, that
  the core is never re-encoded, and that the persistent path is at
  least 2x faster.

Tiers: ``smoke`` (CI's per-push gate) and ``full``.

Usage::

    PYTHONPATH=src python benchmarks/bench_smt.py [--mode {smoke,full}] [--out PATH]
"""

from __future__ import annotations

import time

import harness
from bench_sat import xor_chain_terms
from repro import Engine
from repro.smtlib import (
    BOOL,
    Apply,
    Assert,
    CheckSat,
    DeclareFun,
    Pop,
    Push,
    Script,
    Symbol,
    uninterpreted_sort,
)

#: (orbit n, pigeonhole holes, model n, xor core length, rounds) per tier.
MODE_SIZES = {
    "smoke": (60, 4, 80, 120, 6),
    "full": (400, 6, 600, 500, 14),
}
COUNTERS = ("sat.conflicts", "sat.propagations", "sat.theory_lemmas", "theory.euf.merges")
COLUMNS = [
    ("workload", 16), ("n", 6), ("nodes.vars", 7), ("nodes.clauses", 8), ("answer", 22),
    ("solver.conflicts", 10), ("speedup", 7), ("seconds", 0),
]
U = uninterpreted_sort("U")


def eq(a, b):
    return Apply("=", (a, b), BOOL)


def neg(a):
    return Apply("not", (a,), BOOL)


def f_chain(term, length):
    for _ in range(length):
        term = Apply("f", (term,), U)
    return term


def orbit_commands(n):
    """f^n(x) = x, f^(n+1)(x) = x, f(x) != x — unsat by gcd collapse."""
    x = Symbol("x", U)
    return (
        DeclareFun("f", (U,), U),
        Assert(eq(f_chain(x, n), x)),
        Assert(eq(f_chain(x, n + 1), x)),
        Assert(neg(eq(f_chain(x, 1), x))),
        CheckSat(),
    )


def euf_pigeonhole_commands(holes):
    """holes+1 pigeons mapped into ``holes`` named cells, images pairwise
    distinct — unsat, found through SAT/EUF lemma exchange."""
    pigeons = [Symbol(f"p{i}", U) for i in range(holes + 1)]
    cells = [Symbol(f"h{j}", U) for j in range(holes)]
    commands = [DeclareFun("f", (U,), U)]
    for pigeon in pigeons:
        image = Apply("f", (pigeon,), U)
        choice = tuple(eq(image, cell) for cell in cells)
        commands.append(
            Assert(choice[0] if len(choice) == 1 else Apply("or", choice, BOOL))
        )
    for i in range(len(pigeons)):
        for j in range(i + 1, len(pigeons)):
            commands.append(
                Assert(
                    neg(eq(Apply("f", (pigeons[i],), U), Apply("f", (pigeons[j],), U)))
                )
            )
    commands.append(CheckSat())
    return tuple(commands)


def euf_model_commands(n):
    """A satisfiable equality web: chains glued at every other link plus
    scattered disequalities; exercises model construction/validation."""
    commands = [DeclareFun("f", (U,), U)]
    symbols = [Symbol(f"a{i}", U) for i in range(n)]
    for i in range(n - 1):
        if i % 2 == 0:
            commands.append(Assert(eq(f_chain(symbols[i], 2), symbols[i + 1])))
        else:
            commands.append(Assert(eq(symbols[i], f_chain(symbols[i + 1], 1))))
    for i in range(0, n - 3, 4):
        commands.append(Assert(neg(eq(symbols[i], symbols[i + 3]))))
    commands.append(CheckSat())
    return tuple(commands)


def incremental_workload(length, rounds):
    """Returns (incremental commands, per-check flattened scripts, expected
    answers)."""
    base = xor_chain_terms(length, True)
    xs = [Symbol(f"x{i}", BOOL) for i in range(length)]
    zs = [Symbol(f"z{i}", BOOL) for i in range(length)]
    commands = [Assert(term) for term in base]
    commands.append(CheckSat())
    flattened = [Script(tuple(Assert(t) for t in base) + (CheckSat(),))]
    expected = ["sat"]
    for round_index in range(rounds):
        extra_sat = round_index % 2 == 0
        if extra_sat:
            # Pin a couple of chain variables: still satisfiable.
            extras = [
                xs[(3 * round_index) % length],
                neg(xs[(3 * round_index + 1) % length]),
            ]
            expected.append("sat")
        else:
            # Contradict one chain link (a small, local delta): unsat.
            k = 1 + (round_index * 7) % (length - 1)
            extras = [neg(eq(zs[k], Apply("xor", (xs[k], zs[k - 1]), BOOL)))]
            expected.append("unsat")
        commands.append(Push(1))
        commands.extend(Assert(term) for term in extras)
        commands.append(CheckSat())
        commands.append(Pop(1))
        flattened.append(
            Script(
                tuple(Assert(t) for t in base)
                + tuple(Assert(t) for t in extras)
                + (CheckSat(),)
            )
        )
    return commands, flattened, expected


def core_not_reencoded(result) -> None:
    """After the first check, each check adds only a handful of variables."""
    grown = [check.metrics["engine.vars"] for check in result.check_results]
    added = [after - before for before, after in zip(grown, grown[1:])]
    assert max(added, default=0) < 50, f"core re-encoded: {added}"


def incremental_row(length, rounds) -> dict:
    commands, flattened, expected = incremental_workload(length, rounds)
    row = harness.engine_row(
        "incremental",
        length,
        commands,
        expected,
        ("sat.conflicts", "engine.learned_db"),
        verify=core_not_reencoded,
    )
    t0 = time.perf_counter()
    scratch_answers = [Engine().run(reference).answers[0] for reference in flattened]
    scratch_s = time.perf_counter() - t0
    assert scratch_answers == expected, (scratch_answers, expected)
    incremental_s = row["seconds"]["solve"]
    speedup = scratch_s / incremental_s if incremental_s > 0 else float("inf")
    # The full 2x bar applies only above a timing floor, so scheduler
    # noise on smoke-sized runs cannot flake the build; smoke still
    # sanity-checks >= 1.2x against a locally measured ~3x.
    floor = 2.0 if scratch_s >= 0.25 else 1.2
    assert speedup >= floor, f"incremental speedup only {speedup:.2f}x"
    row.update(
        rounds=rounds,
        speedup=round(speedup, 2),
        seconds={"incremental": incremental_s, "scratch": round(scratch_s, 6)},
    )
    return row


def workloads(sizes) -> list[dict]:
    orbit_n, holes, model_n, length, rounds = sizes
    return [
        harness.engine_row("euf_orbit", orbit_n, orbit_commands(orbit_n), ["unsat"], COUNTERS),
        harness.engine_row(
            "euf_pigeonhole", holes, euf_pigeonhole_commands(holes), ["unsat"], COUNTERS
        ),
        harness.engine_row("euf_model", model_n, euf_model_commands(model_n), ["sat"], COUNTERS),
        incremental_row(length, rounds),
    ]


if __name__ == "__main__":
    raise SystemExit(harness.main("smt", MODE_SIZES, workloads, COLUMNS))

#!/usr/bin/env python3
"""Benchmark suite for the hash-consed term core and the simplifier.

Generates deterministic deep/wide/shared term workloads, runs
construction, simplification and (where ground) evaluation over them, and
reports per workload:

* tree node count and DAG node count before/after simplification,
* intern-table hit/miss counts and hit rate for the construction phase,
* wall-clock for build / simplify / evaluate.

A last ``corpus_reparse`` workload parses every ``tests/corpus`` script
twice (intern hits on the second pass), simplifies and round-trips it.
Every simplified term is re-typechecked at its original sort and must be
a simplify fixpoint.  Tiers: ``smoke`` (CI's per-push gate) and ``full``
(20k-deep chains).

Usage::

    PYTHONPATH=src python benchmarks/bench_simplify.py [--mode {smoke,full}] [--out PATH]
"""

from __future__ import annotations

from pathlib import Path

import harness
from repro.obs import Tracer, phase_seconds
from repro.smtlib import (
    BOOL,
    INT,
    STRING,
    Apply,
    Let,
    Symbol,
    Term,
    bitvec_const,
    bitvec_sort,
    bool_const,
    check,
    evaluate,
    int_const,
    intern_stats,
    parse_script,
    reset_intern_stats,
    script_to_smtlib,
    simplify,
    simplify_script,
    string_const,
)

BV8 = bitvec_sort(8)
CORPUS = Path(__file__).resolve().parent.parent / "tests" / "corpus"
COLUMNS = [
    ("workload", 18), ("n", 7), ("nodes.dag_before", 8), ("nodes.dag_after", 8),
    ("intern.hit_rate", 8), ("seconds", 0),
]


# ---------------------------------------------------------------------------
# Workload generators.  All deterministic: same n → same term.
# ---------------------------------------------------------------------------


def deep_ground_add(n: int) -> Term:
    """Left-nested all-literal addition chain: folds to one constant."""
    term: Term = int_const(1)
    for i in range(n):
        term = Apply("+", (term, int_const(i % 7)), INT)
    return term


def deep_mixed_add(n: int) -> Term:
    """Left-nested addition chain over one symbol: folds to ``(+ x c)``."""
    term: Term = Symbol("x", INT)
    for i in range(n):
        term = Apply("+", (term, int_const(i % 7)), INT)
    return term


def wide_and(n: int) -> Term:
    """Wide conjunction with duplicates and ``true`` units interleaved."""
    args: list[Term] = []
    for i in range(n):
        args.append(Symbol(f"b{i % max(1, n // 4)}", BOOL))  # ~4x duplication
        if i % 5 == 0:
            args.append(bool_const(True))
    return Apply("and", tuple(args), BOOL)


def bv_mix(n: int) -> Term:
    """Bit-vector chain mixing bvadd/bvand/bvxor with literal runs."""
    term: Term = Symbol("v", BV8)
    for i in range(n):
        op = ("bvadd", "bvand", "bvxor")[i % 3]
        term = Apply(op, (term, bitvec_const(i * 37, 8)), BV8)
    return term


def string_runs(n: int) -> Term:
    """``str.++`` with long literal runs around a few symbols."""
    args: list[Term] = []
    for i in range(n):
        args.append(string_const(f"lit{i % 11}"))
        if i % 16 == 15:
            args.append(Symbol(f"s{i % 3}", STRING))
    if len(args) < 2:
        args.append(string_const("pad"))
    return Apply("str.++", tuple(args), STRING)


def ite_chain(n: int) -> Term:
    """Nested ``ite`` with literal conditions: collapses to one branch."""
    term: Term = int_const(0)
    for i in range(n):
        term = Apply(
            "ite", (bool_const(i % 2 == 0), int_const(i), term), INT
        )
    return term


def nested_lets(n: int) -> Term:
    """Deep nested-``let`` spine with literal-propagating bindings: the
    accumulated environment folds the whole chain to one constant.
    Exercises the binder path (scope handling, env restriction)."""
    body: Term = Apply("<", (Symbol(f"a{n-1}", INT), int_const(0)), BOOL)
    for i in reversed(range(n)):
        if i == 0:
            value: Term = int_const(7)
        else:
            value = Apply("+", (Symbol(f"a{i-1}", INT), int_const(1)), INT)
        body = Let(((f"a{i}", value),), body)
    return body


def shared_doubling(n: int) -> Term:
    """``t = (+ t t)`` repeated: tree size 2^n, DAG size O(n).

    Exercises the intern table (every level is one node) and the
    simplifier's memoization plus the flattening cap.
    """
    term: Term = Apply("+", (Symbol("x", INT), int_const(1)), INT)
    for _ in range(n):
        term = Apply("+", (term, term), INT)
    return term


WORKLOADS = (
    deep_ground_add,
    deep_mixed_add,
    wide_and,
    bv_mix,
    string_runs,
    ite_chain,
    nested_lets,
    shared_doubling,
)
#: n per workload, in ``WORKLOADS`` order, per tier.
MODE_SIZES = {
    "smoke": (200, 200, 500, 200, 200, 200, 200, 40),
    "full": (20_000, 20_000, 50_000, 10_000, 20_000, 10_000, 10_000, 400),
}


def _intern_row(stats: dict[str, int]) -> dict:
    hit_rate = stats["hits"] / max(1, stats["hits"] + stats["misses"])
    return {**stats, "hit_rate": round(hit_rate, 4)}


def term_row(build, n: int) -> dict:
    name = build.__name__
    tracer = Tracer()
    reset_intern_stats()
    with tracer.span("build"):
        term = build(n)
    stats = intern_stats()

    # Tree size is exponential for the shared workloads; report DAG size
    # always and tree size only when it is tractable.
    tractable = name != "shared_doubling"
    with tracer.span("simplify"):
        simplified = simplify(term)
    if not term.free_symbols():
        with tracer.span("evaluate"):
            value = evaluate(term)
        assert simplified is value or simplified == value, name
    assert simplified.sort == term.sort, name
    assert simplify(simplified) is simplified, name
    check(simplified)

    phases = phase_seconds(tracer)
    return {
        "workload": name,
        "n": n,
        "nodes": {
            "dag_before": term.dag_size(),
            "dag_after": simplified.dag_size(),
            "tree_before": term.size() if tractable else None,
            "tree_after": simplified.size() if tractable else None,
        },
        "intern": _intern_row(stats),
        "seconds": phases,
        "phases": phases,
        "metrics": {f"intern.{key}": value for key, value in intern_stats().items()},
    }


def corpus_row() -> dict:
    """Parse every corpus script twice (measuring intern hits on the second
    pass), then simplify and round-trip print each one."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.smt2"))]
    tracer = Tracer()
    with tracer.span("parse"):
        first = [parse_script(text) for text in texts]
        reset_intern_stats()
        second = [parse_script(text) for text in texts]
    stats = intern_stats()
    for a, b in zip(first, second):
        for ta, tb in zip(a.assertions(), b.assertions()):
            assert ta is tb, "double parse must yield identical object graphs"
    with tracer.span("simplify"):
        simplified = [simplify_script(script) for script in second]
    for script in simplified:
        reparsed = parse_script(script_to_smtlib(script))
        assert script_to_smtlib(reparsed) == script_to_smtlib(script)

    phases = phase_seconds(tracer)
    return {
        "workload": "corpus_reparse",
        "n": len(texts),
        "nodes": {
            "dag_before": sum(t.dag_size() for s in second for t in s.assertions()),
            "dag_after": sum(t.dag_size() for s in simplified for t in s.assertions()),
            "tree_before": sum(t.size() for s in second for t in s.assertions()),
            "tree_after": sum(t.size() for s in simplified for t in s.assertions()),
        },
        "intern": _intern_row(stats),
        "seconds": phases,
        "phases": phases,
        "metrics": {f"intern.{key}": value for key, value in intern_stats().items()},
    }


def workloads(sizes) -> list[dict]:
    return [term_row(build, n) for build, n in zip(WORKLOADS, sizes)] + [corpus_row()]


if __name__ == "__main__":
    raise SystemExit(harness.main("simplify", MODE_SIZES, workloads, COLUMNS))

"""The one harness behind every ``benchmarks/bench_*.py`` suite.

A suite is three things: a size table (``{mode: sizes}``), its workload
generators, and a ``workloads(sizes)`` function returning one JSON row
per workload.  The harness owns everything else:

* the options — ``--mode`` picks a tier of the size table (every suite
  has ``smoke`` and ``full``; some add ``heavy``) and ``--out`` names the
  JSON file;
* the recursion limit (:func:`repro.ensure_recursion_limit`);
* :func:`engine_row`, the row of a workload driven through the engine;
* the table printer and the ``{bench, mode, python, cpus, results}``
  JSON writer that ``check_regression.py`` gates.

Answers are always verified, outside the timed regions: a benchmark
whose verdict is wrong measures nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Iterable, Optional, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro import Engine, ensure_recursion_limit  # noqa: E402
from repro.engine import ScriptResult  # noqa: E402
from repro.obs import Observability, phase_seconds  # noqa: E402
from repro.smtlib import Script  # noqa: E402

#: Engine metrics that are levels, not per-check increments: an engine
#: row reads them from the last check instead of summing over checks.
GAUGES = frozenset({"engine.vars", "engine.learned_db", "engine.frames"})


def engine_row(
    name: str,
    n: int,
    commands: Iterable,
    expected: list[str],
    counters: Sequence[str],
    verify: Optional[Callable[[ScriptResult], None]] = None,
) -> dict:
    """Run ``commands`` through one traced engine and build its row.

    ``counters`` are namespaced ``CheckSatResult.metrics`` keys; the row's
    ``solver`` block sums each over the script's checks (gauges are read
    from the last check) under its name without the namespace, e.g.
    ``theory.arith.pivots`` → ``arith_pivots``.  ``nodes`` holds the
    variables at the last check and the clauses shipped during checks.
    ``verify`` runs extra checks on the result after the clock stops."""
    obs = Observability.tracing()
    engine = Engine(obs=obs)
    t0 = time.perf_counter()
    result = engine.run(Script(tuple(commands)))
    elapsed = time.perf_counter() - t0
    assert result.answers == expected, (name, result.answers, expected)
    if verify is not None:
        verify(result)
    checks = [check.metrics for check in result.check_results]
    return {
        "workload": name,
        "n": n,
        "nodes": {
            "vars": checks[-1]["engine.vars"],
            "clauses": sum(m["engine.clauses_shipped"] for m in checks),
        },
        "answer": ",".join(result.answers),
        "solver": {
            key.split(".", 1)[1].replace(".", "_"): (
                checks[-1][key] if key in GAUGES else sum(m.get(key, 0) for m in checks)
            )
            for key in counters
        },
        "seconds": {"solve": round(elapsed, 6)},
        "phases": phase_seconds(obs.tracer),
        "metrics": engine.metrics.snapshot(),
    }


def _cell(value, width: int) -> str:
    if isinstance(value, dict):
        return " ".join(f"{key}={_cell(item, 0)}" for key, item in value.items())
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    text = str(value)
    return text if not width or len(text) <= width else text[: width - 3] + "..."


def print_table(rows: list[dict], columns: Sequence[tuple[str, int]]) -> None:
    """One line per row.  A column is ``(path, width)``: ``path`` is a row
    key or a dotted ``block.key`` path, headed by its last component; a
    dict value prints as ``key=value`` pairs and a longer string is cut
    to ``width``.  The first column is left-aligned, the rest right."""

    def lookup(row: dict, path: str):
        for part in path.split("."):
            row = row.get(part) if isinstance(row, dict) else None
        return row

    labels = [path.rsplit(".", 1)[-1] for path, _ in columns]
    widths = [max(width, len(label)) for (_, width), label in zip(columns, labels)]

    def line(cells: list[str]) -> str:
        first, *rest = zip(cells, widths)
        return " ".join([f"{first[0]:<{first[1]}}"] + [f"{c:>{w}}" for c, w in rest]).rstrip()

    header = line(labels)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(line([_cell(lookup(row, path), width) for path, width in columns]))


def main(
    bench: str,
    sizes: dict,
    workloads: Callable[..., list[dict]],
    columns: Sequence[tuple[str, int]],
    argv: Optional[list[str]] = None,
) -> int:
    """Parse ``--mode``/``--out``, run ``workloads(sizes[mode])``, print the
    table and write ``BENCH_<bench>.json``."""
    parser = argparse.ArgumentParser(description=f"The {bench} benchmark suite.")
    parser.add_argument(
        "--mode", choices=list(sizes), default="full", help="workload tier (default: full)"
    )
    parser.add_argument("--out", default=f"BENCH_{bench}.json", help="JSON output path")
    args = parser.parse_args(argv)
    ensure_recursion_limit()
    results = workloads(sizes[args.mode])
    print_table(results, columns)
    payload = {
        "bench": bench,
        "mode": args.mode,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}")
    return 0

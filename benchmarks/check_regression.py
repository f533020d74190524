#!/usr/bin/env python3
"""Benchmark regression gate: compare fresh BENCH_*.json against baselines.

Each fresh result file is compared with the baseline of the same file
name in ``--baseline-dir``.  With no positional arguments the gate
auto-discovers every ``--baseline-dir``/``*.json`` and expects the fresh
file in the current directory, so a suite is gated the moment its
baseline is committed (a discovered baseline whose fresh file is missing
fails: the suite was supposed to run).

The gate compares like with like, and fails (exit 1) when

* the baseline was recorded in another ``mode`` (tier) than the fresh
  run, or a workload present on both sides has a different ``n``;
* a workload's wall-clock (the sum of its ``seconds``) exceeds the
  baseline by more than ``THRESHOLD``×.  Timings below ``FLOOR`` are
  clamped first, so micro-workloads cannot trip the gate on scheduler
  jitter;
* any deterministic counter of a shared workload differs from the
  baseline at all: the ``solver`` block, the proof checker's
  ``checker`` block and the integer ``intern`` counters.  Counters are
  identical from run to run, so a difference means the search, the
  checker's propagation or the term core changed; a deliberate change
  is recorded by re-recording the baseline.

Workloads present on one side only are reported but do not fail, so
adding a workload never needs a lockstep baseline update.  A workload
more than ``SPEEDUP``× faster than its baseline is flagged ``FASTER`` —
a hint to re-record the baseline so the gate keeps its teeth.

Usage::

    python benchmarks/check_regression.py [BENCH_sat.json ...] [--baseline-dir DIR]
"""

from __future__ import annotations

import argparse
import glob
import json
import os

#: Fail when a workload is slower than its baseline by this factor.
THRESHOLD = 2.5
#: Seconds; timings below this are clamped before comparing.
FLOOR = 0.05
#: Flag (never fail) workloads faster than their baseline by this factor.
SPEEDUP = 2.0


def counters(row: dict) -> dict[str, int]:
    """The deterministic counters of a workload row: its ``solver`` block
    plus the integer ``checker`` and ``intern`` entries (``hit_rate`` is
    derived)."""
    out = {key: value for key, value in (row.get("solver") or {}).items() if isinstance(value, int)}
    for block in ("checker", "intern"):
        for key, value in (row.get(block) or {}).items():
            if isinstance(value, int):
                out[f"{block}.{key}"] = value
    return out


def compare(fresh: dict, baseline: dict) -> list[str]:
    """Print the workload-by-workload comparison; return the failures."""
    if fresh.get("mode") != baseline.get("mode"):
        failure = f"mode differs: baseline {baseline.get('mode')!r}, fresh {fresh.get('mode')!r}"
        print(f"   {failure} — re-record the baseline in the fresh run's mode")
        return [failure]
    old = {row["workload"]: row for row in baseline.get("results", [])}
    new = {row["workload"]: row for row in fresh.get("results", [])}
    failures: list[str] = []
    header = f"{'workload':<20} {'baseline_s':>11} {'fresh_s':>9} {'ratio':>7}  status"
    print(header)
    print("-" * len(header))
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            side = "fresh" if name in new else "baseline"
            print(f"{name:<20} {'-':>11} {'-':>9} {'-':>7}  only in {side}")
            continue
        before, after = old[name], new[name]
        if before.get("n") != after.get("n"):
            failures.append(f"{name}: n differs: baseline {before.get('n')}, fresh {after.get('n')}")
            print(f"{name:<20} {'-':>11} {'-':>9} {'-':>7}  N DIFFERS")
            continue
        base_s = sum(v for v in before.get("seconds", {}).values() if v is not None)
        fresh_s = sum(v for v in after.get("seconds", {}).values() if v is not None)
        ratio = max(fresh_s, FLOOR) / max(base_s, FLOOR)
        status = "ok"
        if ratio > THRESHOLD:
            status = "REGRESSED"
            failures.append(f"{name}: {ratio:.2f}x slower than baseline")
        elif ratio < 1 / SPEEDUP:
            status = f"FASTER ({1 / ratio:.1f}x) — consider re-baselining"
        print(f"{name:<20} {base_s:>11.4f} {fresh_s:>9.4f} {ratio:>6.2f}x  {status}")
        base_c, fresh_c = counters(before), counters(after)
        for key in sorted(base_c.keys() | fresh_c.keys()):
            if base_c.get(key) != fresh_c.get(key):
                failures.append(
                    f"{name}.{key}: baseline {base_c.get(key)}, fresh {fresh_c.get(key)}"
                )
                print(f"  counter {key}: baseline {base_c.get(key)}, fresh {fresh_c.get(key)}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh",
        nargs="*",
        help="freshly generated BENCH_*.json files (default: auto-discover "
        "one per committed baseline, expected in the current directory)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines"),
        help="directory holding the committed baseline JSONs",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    fresh_files = list(args.fresh)
    if not fresh_files:
        baselines = sorted(glob.glob(os.path.join(args.baseline_dir, "*.json")))
        if not baselines:
            print(f"no baselines in {args.baseline_dir}; nothing to gate")
            return 0
        fresh_files = [os.path.basename(path) for path in baselines]
        print(f"auto-discovered {len(fresh_files)} baseline suite(s): {', '.join(fresh_files)}")
        for fresh_path in list(fresh_files):
            if not os.path.exists(fresh_path):
                failures.append(f"{fresh_path}: fresh result missing — suite not run?")
                fresh_files.remove(fresh_path)

    for fresh_path in fresh_files:
        baseline_path = os.path.join(args.baseline_dir, os.path.basename(fresh_path))
        print(f"== {fresh_path} vs {baseline_path}")
        if not os.path.exists(baseline_path):
            print("   no baseline found; skipping (commit one to enable the gate)\n")
            continue
        with open(fresh_path, encoding="utf-8") as handle:
            fresh = json.load(handle)
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        label = os.path.basename(fresh_path)
        failures += [f"{label}: {failure}" for failure in compare(fresh, baseline)]
        print()
    if failures:
        print(f"FAIL: {len(failures)} problem(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"OK: same tiers, sizes and counters; no workload slower than {THRESHOLD}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

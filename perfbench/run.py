#!/usr/bin/env python3
"""End-to-end benchmark of ``python -m repro``.

Generates one workload's scripts from ``--seed``, runs each in its own
``python -m repro`` process (closed loop: one client, one solver process
at a time), checks every answer against the generator's expected verdict
and prints every metric by name and unit.  The last stdout line is one
JSON object: ``correct``, ``attempted`` and ``failed`` (scripts) and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

With ``--trace 1`` every script runs twice, interleaved: once through the
CLI and once through ``perfbench/driver.py``, which makes the CLI's calls
under the benchmark's own timers.  The run fails when the two disagree on
an answer or a deterministic counter.

Usage::

    python3 perfbench/run.py --workload fuzz_small --seed 1 --seconds 20 --trace 0

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from workloads import WORKLOADS, Case, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DRIVER = Path(__file__).resolve().parent / "driver.py"

#: Empty-script runs per benchmark run; setup_s is their median.
SETUP_RUNS = 11
#: A run must finish within 180 s, so scripts still queued
#: when this budget runs out are counted as failed.
RUN_BUDGET_S = 160.0
#: Shared virtual machines change speed by up to 1.5-2x for minutes at a
#: time, which swamps run-to-run comparisons.  A fixed pure-Python loop is
#: timed in this process between launches; its median over the run,
#: divided by KERNEL_REF_S (its time on a quiet 2-vCPU x86 VM), is the
#: host slowdown that end-to-end times are divided by.
KERNEL_ITERATIONS = 100_000
KERNEL_REF_S = 0.012
ANSWERS = ("sat", "unsat", "unknown")


@dataclass
class Launch:
    """One finished process: its wall time and what it printed."""

    wall_s: float
    returncode: Optional[int]
    stdout: str
    stderr: str
    timed_out: bool

    @property
    def failure(self) -> Optional[str]:
        if self.timed_out:
            return "wall limit"
        if self.returncode is None:
            return "run budget exhausted"
        if self.returncode < 0:
            return f"signal {-self.returncode}"
        if self.returncode != 0:
            return f"exit {self.returncode}"
        if "(error" in self.stdout or "(error" in self.stderr:
            return "(error ...) printed"
        return None


def launch(command: list[str], limit_s: float, env: dict[str, str]) -> Launch:
    """Run ``command`` in its own process group; kill the group at the limit."""
    if limit_s <= 0:
        return Launch(0.0, None, "", "", False)
    start = time.perf_counter()
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    timed_out = False
    try:
        stdout, stderr = process.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(process.pid, signal.SIGKILL)
        stdout, stderr = process.communicate()
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    return Launch(time.perf_counter() - start, process.returncode, stdout, stderr, timed_out)


@dataclass
class Check:
    """One check-sat as ``--stats`` reports it."""

    answer: str
    reason: Optional[str]
    stats: dict[str, int]

    @property
    def budget_bound(self) -> bool:
        """Stopped by the wall-clock budget, so its counters depend on speed."""
        return self.reason == "timeout"


def host_kernel_s() -> float:
    """Wall time of the fixed loop that measures the host's current speed."""
    start = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(KERNEL_ITERATIONS):
        total += (i * i) % 7
        table[i & 255] = total
    return time.perf_counter() - start


def parse_cli_output(stdout: str) -> tuple[list[str], list[Check]]:
    """Answers and per-check ``--stats`` lines of ``python -m repro --stats``."""
    answers: list[str] = []
    checks: list[Check] = []
    for line in stdout.splitlines():
        if line in ANSWERS:
            answers.append(line)
        elif line.startswith("; check-sat #"):
            head, _, body = line.partition(" (")
            words = head.split()
            reason = words[4].removeprefix("reason=") if len(words) > 4 else None
            stats = {key: int(value) for key, value in (p.split("=") for p in body[:-1].split(", "))}
            checks.append(Check(words[3], reason, stats))
    return answers, checks


def deterministic_counters(checks: list[Check]) -> dict[str, int]:
    """Counters summed over the checks that ran to an answer of their own."""
    return sum_counters(check.stats for check in checks if not check.budget_bound)


@dataclass
class ScriptRun:
    """One script: its CLI launches (one per pass) and the traced launch."""

    case: Case
    launches: list[Launch] = field(default_factory=list)
    answers: list[str] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    repeat_mismatch: bool = False
    traced: Optional[Launch] = None
    document: Optional[dict] = None

    @property
    def cli(self) -> Launch:
        return self.launches[0]

    @property
    def wall_s(self) -> float:
        """Median CLI wall time over the passes."""
        return statistics.median(launch.wall_s for launch in self.launches)

    def record(self, result: Launch) -> None:
        answers, checks = parse_cli_output(result.stdout)
        if not self.launches:
            self.answers, self.checks = answers, checks
        elif result.failure is None and self.cli.failure is None:
            kept = [(c.answer, c.stats) for c in self.checks if not c.budget_bound]
            again = [(c.answer, c.stats) for c in checks if not c.budget_bound]
            self.repeat_mismatch |= kept != again
        self.launches.append(result)

    def traced_checks(self) -> list[Check]:
        return [
            Check(check["answer"], check["reason"], check["stats"])
            for check in (self.document or {}).get("checks", [])
        ]

    @property
    def failure(self) -> Optional[str]:
        reason = next(filter(None, (launch.failure for launch in self.launches)), None)
        if reason is None and len(self.answers) != len(self.case.expected):
            reason = f"{len(self.answers)} answers for {len(self.case.expected)} check-sats"
        if reason is None and self.traced is not None:
            reason = self.traced.failure
            if reason is None and self.document is None:
                reason = "driver printed no document"
            if reason is None:
                for check in self.document["checks"]:
                    verdict = check["proof_check"]
                    if verdict is not None and not verdict["ok"]:
                        reason = f"proof rejected: {verdict['error']}"
        return reason


def percentile_with_tail(samples: list[float], tail: int = 10) -> tuple[float, str]:
    """The highest whole percentile with at least ``tail`` samples above
    it (nearest-rank), and a label naming it and the sample count.  With
    ``tail`` samples or fewer no percentile qualifies; the maximum is
    reported and labelled as such."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= tail:
        return ordered[-1], f"max of {count} scripts (no percentile has {tail} beyond it)"
    percentile = (100 * (count - tail)) // count
    rank = max(1, -(-percentile * count // 100))
    return ordered[rank - 1], f"p{percentile} of {count} scripts, {count - rank} beyond it"


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = probe.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": commit,
    }


def sum_counters(rows) -> dict:
    total: dict = {}
    for row in rows:
        for key, value in row.items():
            total[key] = total.get(key, 0) + value
    return dict(sorted(total.items()))


def digest(counters: dict) -> str:
    return hashlib.sha256(json.dumps(counters, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def end_to_end(runs: list[ScriptRun], setup: list[float], slowdown: float) -> tuple[dict, dict]:
    """Times are divided by the host ``slowdown`` (rates multiplied)."""
    walls = [run.wall_s / slowdown for run in runs]
    busy_s = sum(walls)
    checks = sum(len(run.case.expected) for run in runs)
    answered = sum(len(run.answers) for run in runs)
    decided = sum(answer != "unknown" for run in runs for answer in run.answers)
    failed = sum(run.failure is not None for run in runs)
    tail, tail_label = percentile_with_tail(walls)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup) / slowdown, "s"),
        "scripts_per_s": (len(runs) / busy_s, "1/s"),
        "checks_per_s": (answered / busy_s, "1/s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail, "s"),
        "decided_ratio": (ratio(decided, checks), "ratio"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} runs on an empty script",
        "host_slowdown": f"{slowdown:.4f} (times divided by it, rates multiplied)",
        "latency_tail_s": tail_label,
        "decided_ratio": f"{decided} of {checks} check-sats",
    }
    # failed_ratio is 0 on a healthy run, so it travels as the result's
    # attempted/failed pair rather than as a gated metric.
    notes["failed_ratio"] = f"{ratio(failed, len(runs)):.4f} ({failed} of {len(runs)} scripts)"
    return metrics, notes


def per_layer(runs: list[ScriptRun]) -> dict:
    traced = [run for run in runs if run.document is not None]
    checks = [check for run in traced for check in run.document["checks"]]
    spans = sum_counters(run.document["spans"] for run in traced)
    final = sum_counters(run.document["final_metrics"] for run in traced)
    counters = sum_counters(check["metrics"] for check in checks)
    checker = sum_counters(((check["proof_check"] or {}).get("stats") or {}) for check in checks)
    phases_ns = sum_counters(check["phases"] for check in checks)
    start_s = sum(run.traced.wall_s - run.document["spans"]["total"] for run in traced)
    kib = sum(run.document["bytes"] for run in traced) / 1024

    def phase(path: str) -> float:
        return phases_ns.get(path, 0) / 1e9

    search_self = phase("search") - phase("search/theory-check")
    theory_check = phase("search/theory-check")
    skips = counters.get("theory.arith.float_skips", 0)
    fallbacks = counters.get("theory.arith.float_fallbacks", 0)
    hits, misses = final.get("intern.hits", 0), final.get("intern.misses", 0)
    untraced = sum(run.wall_s for run in traced)
    traced_wall = sum(run.traced.wall_s for run in traced)
    return {
        "proc.start_s": (start_s, "s"),
        "proc.import_s": (spans.get("import", 0.0), "s"),
        "smtlib.parse_s": (spans.get("parse", 0.0), "s"),
        "smtlib.input_kb": (kib, "KiB"),
        "smtlib.parse_us_per_kb": (ratio(spans.get("parse", 0.0) * 1e6, kib), "us/KiB"),
        "engine.run_s": (spans.get("run", 0.0), "s"),
        "engine.prepare_s": (phase("prepare"), "s"),
        "smtlib.simplify_s": (phase("prepare/simplify"), "s"),
        "engine.encode_s": (phase("encode"), "s"),
        "theory.bv.blast_s": (phase("encode/blast"), "s"),
        "engine.model_s": (phase("model"), "s"),
        "engine.validate_s": (phase("validate"), "s"),
        "sat.search_self_s": (search_self, "s"),
        "sat.conflicts": (counters.get("sat.conflicts", 0), "count"),
        "sat.propagations": (counters.get("sat.propagations", 0), "count"),
        "sat.decisions": (counters.get("sat.decisions", 0), "count"),
        "sat.us_per_conflict": (ratio(search_self * 1e6, counters.get("sat.conflicts", 0)), "us"),
        "sat.us_per_propagation": (
            ratio(search_self * 1e6, counters.get("sat.propagations", 0)),
            "us",
        ),
        "theory.check_s": (theory_check, "s"),
        "theory.arith.bb_s": (phase("search/theory-check/branch-and-bound"), "s"),
        "theory.arith.pivots": (counters.get("theory.arith.pivots", 0), "count"),
        "theory.arith.branches": (counters.get("theory.arith.branches", 0), "count"),
        "theory.arith.us_per_pivot": (
            ratio(theory_check * 1e6, counters.get("theory.arith.pivots", 0)),
            "us",
        ),
        "theory.arith.float_hit_ratio": (ratio(skips, skips + fallbacks), "ratio"),
        "theory.euf.merges": (counters.get("theory.euf.merges", 0), "count"),
        "proof.log_s": (phase("proof"), "s"),
        "proof.rup_steps": (counters.get("proof.rup_steps", 0), "count"),
        "proof.check_s": (spans.get("proof_check", 0.0), "s"),
        "proof.check.propagations": (checker.get("propagations", 0), "count"),
        "proof.check.us_per_step": (
            ratio(spans.get("proof_check", 0.0) * 1e6, checker.get("rup_checked", 0)),
            "us",
        ),
        "intern.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "engine.clauses_shipped_per_check": (
            ratio(final.get("engine.clauses_shipped", 0), len(checks)),
            "count",
        ),
        "obs.trace_overhead": (ratio(traced_wall, untraced), "ratio"),
    }


def traced_counters(runs: list[ScriptRun]) -> dict:
    """Summed deterministic counters from the traced run's driver."""
    engine: list[dict[str, int]] = []
    checker: list[dict[str, int]] = []
    for run in runs:
        if run.document is None:
            continue
        for check in run.document["checks"]:
            if check["reason"] == "timeout":
                continue
            engine.append(
                {
                    key: value
                    for key, value in check["metrics"].items()
                    if key.startswith(("sat.", "theory.", "proof."))
                }
            )
            checker.append(((check["proof_check"] or {}).get("stats")) or {})
    return {"engine": sum_counters(engine), "checker": sum_counters(checker)}


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------


def check_answers(runs: list[ScriptRun]) -> list[str]:
    """Contradicted verdicts and traced/untraced disagreements."""
    problems = []
    for run in runs:
        if run.repeat_mismatch:
            problems.append(f"{run.case.name}: answers or counters changed between passes")
        for index, (answer, expected) in enumerate(zip(run.answers, run.case.expected)):
            if answer != "unknown" and answer != expected:
                problems.append(
                    f"{run.case.name}: check-sat #{index} answered {answer}, expected {expected}"
                )
        if run.document is None or run.failure is not None:
            continue
        traced = run.traced_checks()
        if len(traced) != len(run.checks):
            problems.append(f"{run.case.name}: traced run answered {len(traced)} check-sats")
            continue
        for index, (mine, theirs) in enumerate(zip(run.checks, traced)):
            if mine.budget_bound or theirs.budget_bound:
                continue
            if (mine.answer, mine.stats) != (theirs.answer, theirs.stats):
                problems.append(
                    f"{run.case.name}: check-sat #{index} traced answer or counters differ "
                    f"({theirs.answer} vs {mine.answer})"
                )
    return problems


def execute(workload: Workload, cases: list[Case], work: Path, trace: bool, deadline: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Installed packages run from cached bytecode; let the warm-up write it
    # so the timed launches do not recompile every module.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    empty = work / "empty.smt2"
    empty.write_text("", encoding="utf-8")
    cli = [sys.executable, "-m", "repro"]

    # The first launch compiles bytecode into src/; users pay that once.
    warm = launch(cli + [str(empty)], 60.0, env)
    if warm.failure is not None:
        raise SystemExit(f"python -m repro fails on an empty script: {warm.failure}\n{warm.stderr}")
    setup = []
    kernel = []
    if not trace:
        for _ in range(SETUP_RUNS):
            setup.append(launch(cli + [str(empty)], 60.0, env).wall_s)
            kernel.append(host_kernel_s())

    paths = []
    for case in cases:
        path = work / f"{case.name}.smt2"
        path.write_text(case.text, encoding="utf-8")
        paths.append(path)

    runs = [ScriptRun(case) for case in cases]
    for _ in range(1 if trace else workload.passes):
        for index, (run, path) in enumerate(zip(runs, paths)):
            # In the traced run the two launches alternate which goes
            # first, so warm caches favour neither side of the overhead.
            sides = ("cli", "driver")[: 1 + trace]
            for side in sides if index % 2 == 0 else sides[::-1]:
                limit = min(workload.wall_limit_s, deadline - time.perf_counter())
                if side == "cli":
                    run.record(launch(cli + [str(path), "--stats", *workload.cli_args], limit, env))
                    # About one sample per 0.25 s of script keeps the
                    # median's own noise low on runs of few, long scripts.
                    for _ in range(max(1, round(run.launches[-1].wall_s / 0.25))):
                        kernel.append(host_kernel_s())
                    continue
                run.traced = launch([sys.executable, str(DRIVER), str(path), *workload.cli_args], limit, env)
                if run.traced.failure is None and run.traced.stdout.strip():
                    run.document = json.loads(run.traced.stdout.splitlines()[-1])
    return runs, setup, statistics.median(kernel) / KERNEL_REF_S


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Turn SIGTERM into an exception so the finally blocks kill the running
    # script's process group and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env_info = environment()
    cases = workload.cases(args.seed, args.seconds)
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runs, setup, slowdown = execute(
            workload, cases, work, bool(args.trace), started + RUN_BUDGET_S
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()

    problems = check_answers(runs)
    failures = [(run.case.name, run.failure) for run in runs if run.failure is not None]
    cli_counters = deterministic_counters([check for run in runs for check in run.checks])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_info,
        "scripts": len(runs),
        "expected": {a: sum(c.expected.count(a) for c in cases) for a in ("sat", "unsat")},
        "answers": {a: sum(r.answers.count(a) for r in runs) for a in ANSWERS},
        "failures": failures,
        "pass_s": [
            round(sum(run.launches[k].wall_s for run in runs if len(run.launches) > k), 3)
            for k in range(max(len(run.launches) for run in runs))
        ],
        "budget_bound_checks": sum(c.budget_bound for r in runs for c in r.checks),
        "counters": cli_counters,
        "counters_digest": digest(cli_counters),
    }
    if args.trace:
        metrics = per_layer(runs)
        notes: dict[str, str] = {}
        detail["traced_counters"] = traced_counters(runs)
        detail["traced_counters_digest"] = digest(detail["traced_counters"])
    else:
        metrics, notes = end_to_end(runs, setup, slowdown)
        detail["host_slowdown"] = slowdown
        detail["raw_metrics"] = {
            name: value for name, (value, _unit) in end_to_end(runs, setup, 1.0)[0].items()
        }

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {len(runs)} scripts, {len(failures)} failed, "
        f"{len(problems)} wrong"
    )
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:14.6g} {unit}{note}")
    for name in sorted(set(notes) - set(metrics)):
        print(f"  {name:34s} {notes[name]}")
    for line in problems:
        print(f"  WRONG: {line}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())

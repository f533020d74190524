"""Portfolio, budget and interrupt robustness tests (PR 10).

Four concerns, each mapped to a bug class this PR fixes or a guarantee
the portfolio layer makes:

* **Config equivalence** — every diversified
  :class:`~repro.sat.SolverConfig` in the portfolio lineup must reach the
  same verdict as the default sequential engine on the fuzz-gauntlet
  generators (diversification changes the trajectory, never the answer),
  and seeded noisy configs must replay deterministically.
* **Portfolio races** — the multiprocessing runner returns the sequential
  verdict, its ``unsat`` proofs pass the independent checker, and
  cancellation leaves no orphaned processes (``active_children()``).
* **Wall-clock budget** — expired deadlines surface as ``unknown`` with
  reason ``timeout`` through the engine and the CLI, and leave the
  engine reusable.
* **Interrupt robustness** — a ``KeyboardInterrupt`` (or cancel) mid-
  search unwinds the trail to the assumption-free root; the same solver
  and engine answer the same query correctly on retry.
* **Recursion guard** — deep scripts solve through :class:`Engine`
  directly (no CLI band-aid required).
"""

from __future__ import annotations

import multiprocessing
import sys
import time

import pytest

from repro import Engine, run_script, solve_script
from repro.limits import DEFAULT_RECURSION_LIMIT, ensure_recursion_limit
from repro.portfolio import solve_portfolio
from repro.proof import check_proof
from repro.sat import UNKNOWN, UNSAT, Solver, SolverConfig
from repro.smtlib.script import Assert, CheckSat, DeclareConst, Script, SetLogic
from repro.smtlib.sorts import BOOL
from repro.smtlib.terms import Apply, Symbol

from test_fuzz_differential import _generate

# ---------------------------------------------------------------------------
# Shared workloads.
# ---------------------------------------------------------------------------


def pigeonhole_script(holes: int) -> str:
    """PHP(holes+1, holes) as SMT-LIB text: classically unsat, and hard
    enough for resolution that budgets reliably expire mid-search."""
    pigeons = holes + 1
    lines = ["(set-logic QF_UF)"]
    for p in range(pigeons):
        for h in range(holes):
            lines.append(f"(declare-const x{p}_{h} Bool)")
    for p in range(pigeons):
        lines.append(
            "(assert (or " + " ".join(f"x{p}_{h}" for h in range(holes)) + "))"
        )
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                lines.append(f"(assert (or (not x{p1}_{h}) (not x{p2}_{h})))")
    lines.append("(check-sat)")
    return "\n".join(lines)


def assert_certified(check) -> None:
    assert check.proof is not None, "unsat answer carries no proof"
    verdict = check_proof(check.proof)
    assert verdict.ok, f"independent checker rejected the proof: {verdict.error}"


# ---------------------------------------------------------------------------
# SolverConfig surface.
# ---------------------------------------------------------------------------


def test_default_config_is_default():
    config = SolverConfig()
    assert config.is_default
    assert not config.needs_rng


@pytest.mark.parametrize(
    "kwargs",
    [
        {"phase_init": "maybe"},
        {"restart": "inner-outer"},
        {"restart_base": 0},
        {"restart_factor": 1.0},
        {"var_decay": 1.0},
        {"var_decay": 0.0},
        {"random_decision_freq": 1.5},
        # Randomized knobs without a seed must fail loudly: portfolio
        # runs are replayable by construction.
        {"random_decision_freq": 0.1},
        {"phase_init": "random"},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_portfolio_lineup_is_deterministic_and_leads_with_default():
    lineup = SolverConfig.portfolio(8)
    assert len(lineup) == 8
    assert lineup[0].is_default
    assert lineup == SolverConfig.portfolio(8)
    assert len({config.name for config in lineup}) == 8
    with pytest.raises(ValueError):
        SolverConfig.portfolio(0)


@pytest.mark.parametrize("fragment", ["lia", "uf", "bv"])
@pytest.mark.parametrize("seed", range(3))
def test_every_config_matches_sequential_verdict(fragment, seed):
    """Diversification changes trajectories, never verdicts — checked on
    the same generators the differential-fuzz gauntlet uses."""
    script = _generate(fragment, seed)
    baseline = solve_script(script)[0].answer
    assert baseline in ("sat", "unsat")
    for config in SolverConfig.portfolio(4):
        engine = Engine(config=config, produce_proofs=True)
        (check,) = engine.run(script).check_results
        assert check.answer == baseline, (
            f"{fragment}/{seed}: config {config.name} answered "
            f"{check.answer}, default answered {baseline}"
        )
        if check.answer == "unsat":
            assert_certified(check)


def test_seeded_noise_replays_deterministically():
    config = SolverConfig(
        name="noisy",
        seed=7,
        phase_init="random",
        random_decision_freq=0.2,
        random_polarity_freq=0.1,
    )
    script = pigeonhole_script(5)
    first = Engine(config=config).run(script_text_to_script(script))
    second = Engine(config=config).run(script_text_to_script(script))
    assert first.answers == second.answers
    keys = ("sat.conflicts", "sat.decisions", "sat.restarts", "sat.random_decisions")
    first_metrics = first.check_results[0].metrics
    second_metrics = second.check_results[0].metrics
    for key in keys:
        assert first_metrics[key] == second_metrics[key], key
    assert first_metrics["sat.random_decisions"] > 0, (
        "noise knobs produced no random decisions on a 1k-conflict search"
    )


def script_text_to_script(text: str) -> Script:
    from repro.smtlib import parse_script

    return parse_script(text)


# ---------------------------------------------------------------------------
# Learned-clause sharing at the solver level.
# ---------------------------------------------------------------------------


def test_solver_export_and_import_roundtrip():
    def clauses():
        # PHP(4, 3) directly as CNF over vars 1..12: var(p, h) = 3p + h + 1.
        out = []
        for p in range(4):
            out.append([3 * p + h + 1 for h in range(3)])
        for h in range(3):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    out.append([-(3 * p1 + h + 1), -(3 * p2 + h + 1)])
        return out

    exporter = Solver(12)
    exporter.share_max_lbd = 6
    for clause in clauses():
        exporter.add_clause(clause)
    assert exporter.solve() == UNSAT
    exported = exporter.drain_exported()
    assert exported, "an unsat PHP search learned no short clauses"
    assert exporter.drain_exported() == []  # drained means drained
    assert exporter.stats["shared_exported"] >= len(exported)

    importer = Solver(12)
    for clause in clauses():
        importer.add_clause(clause)
    count = importer.import_clauses(exported)
    assert count == len(exported)
    assert importer.import_clauses(exported) == 0  # dedupe on re-import
    assert importer.solve() == UNSAT


def test_import_refused_mid_search():
    solver = Solver(2)
    solver.add_clause([1, 2])
    solver._trail_lim.append(0)  # simulate an open decision level
    with pytest.raises(ValueError):
        solver.import_clauses([(1, 2)])


# ---------------------------------------------------------------------------
# Portfolio races (multiprocessing).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fragment", ["lia", "uf", "ax"])
def test_portfolio_matches_sequential_and_certifies(fragment):
    script = _generate(fragment, 0)
    baseline = solve_script(script)[0].answer
    outcome = solve_portfolio(script, workers=3, timeout=120, produce_proofs=True)
    (check,) = outcome.result.check_results
    assert check.answer == baseline
    if check.answer == "unsat":
        assert_certified(check)
    assert outcome.reports[outcome.winner].status == "won"
    assert multiprocessing.active_children() == []


def test_portfolio_with_clause_sharing_stays_sound():
    outcome = solve_portfolio(
        pigeonhole_script(5),
        workers=3,
        timeout=120,
        produce_proofs=True,
        share_clauses=True,
    )
    (check,) = outcome.result.check_results
    assert check.answer == "unsat"
    assert_certified(check)
    assert multiprocessing.active_children() == []


def test_portfolio_multi_check_script():
    script = """
    (set-logic QF_UF)
    (declare-const p Bool)
    (declare-const q Bool)
    (assert (or p q))
    (check-sat)
    (push 1)
    (assert (not p))
    (assert (not q))
    (check-sat)
    (pop 1)
    (check-sat)
    """
    sequential = [c.answer for c in solve_script(script)]
    outcome = solve_portfolio(script, workers=2, timeout=120)
    assert [c.answer for c in outcome.result.check_results] == sequential
    assert multiprocessing.active_children() == []


def test_portfolio_timeout_cancels_every_worker_cleanly():
    start = time.monotonic()
    outcome = solve_portfolio(pigeonhole_script(7), workers=2, timeout=0.3)
    elapsed = time.monotonic() - start
    (check,) = outcome.result.check_results
    assert check.answer == "unknown"
    assert check.reason == "timeout"
    # Workers self-stop on their own deadline; the race must not run
    # anywhere near the instance's ~4s sequential solve time.
    assert elapsed < 8, f"race took {elapsed:.1f}s after a 0.3s timeout"
    assert multiprocessing.active_children() == []


def test_portfolio_via_solve_script_entry_point():
    results = solve_script(
        "(set-logic QF_UF)(declare-const p Bool)(assert p)(check-sat)",
        portfolio=2,
        timeout=60,
    )
    assert [c.answer for c in results] == ["sat"]
    assert multiprocessing.active_children() == []


def test_portfolio_rejects_sequential_only_options():
    with pytest.raises(ValueError):
        run_script(
            "(check-sat)", portfolio=2, config=SolverConfig(phase_init="true")
        )


def test_portfolio_win_attribution_metrics():
    from repro.obs import Observability

    obs = Observability()
    outcome = solve_portfolio(
        pigeonhole_script(4), workers=2, timeout=60, obs=obs
    )
    snapshot = obs.metrics.snapshot()
    assert snapshot["portfolio.workers"] == 2
    assert snapshot["portfolio.winner"] == outcome.winner
    winner_name = outcome.winner_config.name
    assert snapshot[f"portfolio.wins.{winner_name}"] == 1
    assert snapshot[f"portfolio.w{outcome.winner}.won"] == 1
    # The winner shipped its final counters under its own namespace.
    assert f"portfolio.w{outcome.winner}.sat.conflicts" in snapshot


# ---------------------------------------------------------------------------
# Wall-clock budget (timeout) through the existing unknown machinery.
# ---------------------------------------------------------------------------


def test_engine_timeout_returns_unknown_with_reason():
    engine = Engine(timeout=0.05)
    (check,) = engine.run(
        script_text_to_script(pigeonhole_script(7))
    ).check_results
    assert check.answer == "unknown"
    assert check.reason == "timeout"


def test_engine_timeout_budget_spans_the_whole_script():
    # Two hard checks, one budget: the second check starts past the
    # deadline and must also answer unknown/timeout (not hang).
    text = pigeonhole_script(7)
    text += "\n(check-sat)"
    engine = Engine(timeout=0.05)
    checks = engine.run(script_text_to_script(text)).check_results
    assert [c.answer for c in checks] == ["unknown", "unknown"]
    assert all(c.reason == "timeout" for c in checks)


def test_solver_deadline_and_interrupt_reasons():
    solver = Solver(12)
    for p in range(4):
        solver.add_clause([3 * p + h + 1 for h in range(3)])
    for h in range(3):
        for p1 in range(4):
            for p2 in range(p1 + 1, 4):
                solver.add_clause([-(3 * p1 + h + 1), -(3 * p2 + h + 1)])
    assert solver.solve(deadline=time.monotonic() - 1.0) == UNKNOWN
    assert solver.stop_reason == "timeout"
    assert solver.solve(interrupt=lambda: True) == UNKNOWN
    assert solver.stop_reason == "cancelled"
    # Budgets removed: the same solver finishes the query.
    assert solver.solve() == UNSAT
    assert solver.stop_reason is None


def test_cli_timeout_flag(capsys):
    from repro.__main__ import main

    import tempfile, os

    with tempfile.NamedTemporaryFile(
        "w", suffix=".smt2", delete=False
    ) as handle:
        handle.write(pigeonhole_script(7))
        path = handle.name
    try:
        code = main([path, "--timeout", "0.05"])
    finally:
        os.unlink(path)
    assert code == 0
    assert capsys.readouterr().out.strip() == "unknown"


# ---------------------------------------------------------------------------
# Interrupt robustness: reusable state after KeyboardInterrupt/cancel.
# ---------------------------------------------------------------------------


class _RaiseAfter:
    """Interrupt callback that raises mid-search after ``calls`` polls,
    simulating a KeyboardInterrupt landing at an arbitrary boundary."""

    def __init__(self, calls: int) -> None:
        self.remaining = calls

    def __call__(self) -> bool:
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt
        return False


def test_solver_is_reusable_after_keyboard_interrupt():
    def build() -> Solver:
        solver = Solver(12)
        for p in range(4):
            solver.add_clause([3 * p + h + 1 for h in range(3)])
        for h in range(3):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    solver.add_clause(
                        [-(3 * p1 + h + 1), -(3 * p2 + h + 1)]
                    )
        return solver

    expected = build().solve()
    assert expected == UNSAT
    solver = build()
    with pytest.raises(KeyboardInterrupt):
        solver.solve(interrupt=_RaiseAfter(3))
    # The trail is back at the assumption-free root ...
    assert solver._trail_lim == []
    # ... and the interrupted solver answers the same query correctly.
    assert solver.solve() == expected


def test_solver_interrupt_preserves_assumption_queries():
    # PHP(4,3) over vars 1..12 plus a free marker variable 13; interrupt
    # polls fire at conflict boundaries, so the search must conflict
    # under the assumption before the injected KeyboardInterrupt lands.
    solver = Solver(13)
    for p in range(4):
        solver.add_clause([3 * p + h + 1 for h in range(3)])
    for h in range(3):
        for p1 in range(4):
            for p2 in range(p1 + 1, 4):
                solver.add_clause([-(3 * p1 + h + 1), -(3 * p2 + h + 1)])
    with pytest.raises(KeyboardInterrupt):
        solver.solve(assumptions=[13], interrupt=_RaiseAfter(1))
    # The assumption pseudo-levels are unwound with the rest of the trail.
    assert solver._trail_lim == []
    assert solver._values[13] == 0
    assert solver.solve(assumptions=[13]) == UNSAT
    assert solver.solve() == UNSAT


def test_engine_is_reusable_after_keyboard_interrupt():
    script = script_text_to_script(pigeonhole_script(6))
    engine = Engine(interrupt=_RaiseAfter(5))
    with pytest.raises(KeyboardInterrupt):
        engine.run(script)
    # The engine's solver returned to the root; a fresh run on the same
    # engine instance answers correctly.
    assert engine.solver._trail_lim == []
    retry = Engine(timeout=120)
    (check,) = retry.run(script).check_results
    assert check.answer == "unsat"


def test_engine_cancel_flag_reports_cancelled():
    engine = Engine(interrupt=lambda: True)
    (check,) = engine.run(
        script_text_to_script(pigeonhole_script(6))
    ).check_results
    assert check.answer == "unknown"
    assert check.reason == "cancelled"


# ---------------------------------------------------------------------------
# Recursion guard: deep scripts through the Engine API (no CLI band-aid).
# ---------------------------------------------------------------------------


def test_deep_script_solves_through_engine_api():
    # Build the deep term iteratively (no recursion needed to construct
    # it), then drop the interpreter limit to something a CLI-less
    # library caller might have: Engine.run must install the guard.
    depth = 6000
    p = Symbol("p", BOOL)
    term = p
    for _ in range(depth):
        term = Apply("not", (term,), BOOL)
    script = Script(
        (
            SetLogic("QF_UF"),
            DeclareConst("p", BOOL),
            Assert(term),
            CheckSat(),
        )
    )
    original = sys.getrecursionlimit()
    sys.setrecursionlimit(3000)
    try:
        (check,) = Engine().run(script).check_results
    finally:
        sys.setrecursionlimit(max(original, DEFAULT_RECURSION_LIMIT))
    # Even depth of nots: equivalent to (assert p).
    assert check.answer == "sat"


def test_ensure_recursion_limit_never_lowers():
    original = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT + 1234)
        assert ensure_recursion_limit() == DEFAULT_RECURSION_LIMIT + 1234
        sys.setrecursionlimit(1000)
        assert ensure_recursion_limit() == DEFAULT_RECURSION_LIMIT
        assert sys.getrecursionlimit() == DEFAULT_RECURSION_LIMIT
    finally:
        sys.setrecursionlimit(max(original, DEFAULT_RECURSION_LIMIT))

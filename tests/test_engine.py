"""Tests for the script-execution engine and the ``python -m repro`` CLI.

Two acceptance properties from the issue are enforced here:

* **Model oracle** — every ``sat`` answer's model makes ``evaluate`` return
  true for all (inlined) assertions active at that ``check-sat``.
* **Brute-force cross-check** — on every quantifier-free corpus script
  whose assertions range over at most 18 boolean atoms (and no other free
  symbols), the engine's answer equals exhaustive enumeration.
"""

import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CheckSatResult, Engine, run_script, solve_script
from repro.errors import SolverError
from repro.smtlib import (
    BOOL,
    Apply,
    Assert,
    CheckSat,
    GetValue,
    Pop,
    Push,
    Script,
    Symbol,
    TRUE,
    bool_const,
    evaluate,
    parse_script,
    script_to_smtlib,
)
from test_nnf import random_bool_term

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.smt2"))


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def assert_model_satisfies(result: CheckSatResult) -> None:
    """The model-checking oracle: the model evaluates every assertion true
    (uninterpreted functions evaluate through the result's
    interpretations)."""
    assert result.model is not None
    for term in result.assertions:
        assert evaluate(term, result.model, result.fun_interps) is TRUE, term


def boolean_frees(result: CheckSatResult):
    """Free symbols of the checked assertions, or None when any is not Bool
    (or a quantifier blocks evaluation)."""
    free: dict[str, object] = {}
    for term in result.assertions:
        from repro.smtlib import Quantifier

        if any(isinstance(node, Quantifier) for node in term.walk()):
            return None
        free.update(term.free_symbols())
    if any(sort != BOOL for sort in free.values()):
        return None
    return sorted(free)


def brute_force_answer(result: CheckSatResult):
    """Exhaustively decide the checked assertions; None when not amenable
    (non-boolean symbols, quantifiers, or more than 18 atoms)."""
    names = boolean_frees(result)
    if names is None or len(names) > 18:
        return None
    for values in itertools.product([False, True], repeat=len(names)):
        env = {name: bool_const(v) for name, v in zip(names, values)}
        try:
            if all(evaluate(term, env) is TRUE for term in result.assertions):
                return "sat"
        except Exception:
            return None  # unfoldable ground operator: not amenable
    return "unsat"


# ---------------------------------------------------------------------------
# Corpus-wide properties.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_scripts_execute(path):
    result = run_script(path.read_text())
    for check in result.check_results:
        assert check.answer in ("sat", "unsat", "unknown")
        if check.answer == "sat":
            assert_model_satisfies(check)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_brute_force_cross_check(path):
    for check in solve_script(path.read_text()):
        expected = brute_force_answer(check)
        if expected is None:
            continue
        assert check.answer == expected, (path.stem, check.answer, expected)


def test_corpus_covers_both_answers():
    answers = set()
    for path in CORPUS:
        answers.update(check.answer for check in solve_script(path.read_text()))
    assert {"sat", "unsat"} <= answers


# ---------------------------------------------------------------------------
# Randomised cross-check over generated propositional scripts.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_random_propositional_scripts_cross_check(seed):
    rng = random.Random(seed)
    atoms = [Symbol(f"p{i}", BOOL) for i in range(rng.randint(2, 6))]
    commands = []
    for _ in range(rng.randint(1, 4)):
        commands.append(Assert(random_bool_term(rng, 3, atoms)))
    commands.append(CheckSat())
    result = solve_script(Script(tuple(commands)))[0]
    expected = brute_force_answer(result)
    assert expected is not None
    assert result.answer == expected
    if result.answer == "sat":
        assert_model_satisfies(result)


# ---------------------------------------------------------------------------
# Engine command semantics.
# ---------------------------------------------------------------------------


class TestPushPop:
    def test_pop_restores_satisfiability(self):
        answers = solve_script(
            """
            (declare-const p Bool)
            (assert p)
            (check-sat)
            (push 1)
            (assert (not p))
            (check-sat)
            (pop 1)
            (check-sat)
            """
        )
        assert [r.answer for r in answers] == ["sat", "unsat", "sat"]

    def test_nested_push_levels(self):
        answers = solve_script(
            """
            (declare-const p Bool)
            (declare-const q Bool)
            (push 2)
            (assert (and p q))
            (pop 1)
            (assert (not p))
            (check-sat)
            (pop 1)
            (assert p)
            (check-sat)
            """
        )
        assert [r.answer for r in answers] == ["sat", "sat"]

    def test_pop_beyond_depth_raises(self):
        script = Script((Pop(1),))
        with pytest.raises(SolverError):
            Engine().run(script)

    def test_push_zero_is_noop(self):
        script = Script((Push(0), CheckSat()))
        assert Engine().run(script).answers == ["sat"]


class TestAnswers:
    def test_assert_false_is_trivially_unsat(self):
        result = solve_script("(assert false)\n(check-sat)")[0]
        assert result.answer == "unsat"
        assert result.metrics["engine.trivial"] == 1
        # The counters are present, and zero, even on the trivial path.
        for key in (
            "sat.conflicts",
            "sat.decisions",
            "engine.vars",
            "engine.clauses_shipped",
            "engine.atoms",
        ):
            assert result.metrics[key] == 0

    def test_empty_assertions_are_sat(self):
        result = solve_script("(check-sat)")[0]
        assert result.answer == "sat"
        assert result.model == {}

    def test_ground_theory_atoms_prefold(self):
        # The PR-2 evaluator folds the ground atoms; p remains free.
        result = solve_script(
            """
            (declare-const p Bool)
            (assert (or p (< 2 1)))
            (assert (= (+ 1 2) 3))
            (check-sat)
            """
        )[0]
        assert result.answer == "sat"
        assert result.model["p"] is TRUE
        assert_model_satisfies(result)

    def test_theory_atoms_give_unknown_not_sat(self):
        # ``div`` is outside the linear fragment, so the atom stays
        # abstract — a propositionally satisfiable skeleton must answer
        # unknown, never sat.
        result = solve_script(
            """
            (declare-const x Int)
            (assert (< (div x 2) 0))
            (check-sat)
            """
        )[0]
        assert result.answer == "unknown"
        assert result.reason == "abstracted-atoms"

    def test_linear_atoms_now_decided(self):
        # The same shape over the *linear* fragment is decided by the
        # simplex plugin (this was unknown before the arith theory).
        result = solve_script(
            """
            (declare-const x Int)
            (assert (< x 0))
            (check-sat)
            """
        )[0]
        assert result.answer == "sat"
        assert_model_satisfies(result)

    def test_propositionally_inconsistent_theory_is_unsat(self):
        result = solve_script(
            """
            (declare-const x Int)
            (declare-const y Int)
            (assert (or (< x y) (= x y)))
            (assert (not (< x y)))
            (assert (not (= x y)))
            (check-sat)
            """
        )[0]
        assert result.answer == "unsat"

    def test_quantifier_atom_gives_unknown(self):
        result = solve_script(
            """
            (declare-const p Bool)
            (assert (or p (forall ((b Bool)) b)))
            (assert (not p))
            (check-sat)
            """
        )[0]
        assert result.answer == "unknown"
        assert result.reason == "abstracted-atoms"

    def test_vacuous_integer_symbol_gets_a_model_value(self):
        # (= x x) folds to true; since PR 4 the theory layer mints a
        # concrete value for x, so the answer is a validated sat.
        result = solve_script(
            """
            (declare-const x Int)
            (assert (= x x))
            (check-sat)
            """
        )[0]
        assert result.answer == "sat"
        assert result.model is not None and "x" in result.model
        assert_model_satisfies(result)

    def test_conflict_limit_reports_unknown(self):
        # Pigeonhole as a boolean skeleton: 4 pigeons, 3 holes.
        holes, pigeons = 3, 4
        var = lambda i, j: Symbol(f"x{i}_{j}", BOOL)
        commands = []
        for i in range(pigeons):
            commands.append(Assert(Apply("or", tuple(var(i, j) for j in range(holes)), BOOL)))
        for j in range(holes):
            for a in range(pigeons):
                for b in range(a + 1, pigeons):
                    commands.append(
                        Assert(
                            Apply(
                                "or",
                                (
                                    Apply("not", (var(a, j),), BOOL),
                                    Apply("not", (var(b, j),), BOOL),
                                ),
                                BOOL,
                            )
                        )
                    )
        commands.append(CheckSat())
        script = Script(tuple(commands))
        assert solve_script(script)[0].answer == "unsat"
        limited = solve_script(script, conflict_limit=1)[0]
        assert limited.answer == "unknown"
        assert limited.reason == "conflict-limit"

    def test_model_covers_symbols_simplified_away(self):
        result = solve_script(
            """
            (declare-const p Bool)
            (declare-const unused Bool)
            (assert (or p (not p)))
            (check-sat)
            """
        )[0]
        assert result.answer == "sat"
        assert result.model["p"] is not None
        assert "unused" in result.model
        assert_model_satisfies(result)


class TestDefinitions:
    def test_nullary_definition_inlines(self):
        result = solve_script(
            """
            (declare-const p Bool)
            (define-fun alias () Bool p)
            (assert alias)
            (check-sat)
            """
        )[0]
        assert result.answer == "sat"
        assert result.model["p"] is TRUE

    def test_definitions_compose(self):
        result = solve_script(
            """
            (declare-const p Bool)
            (declare-const q Bool)
            (define-fun nand ((a Bool) (b Bool)) Bool (not (and a b)))
            (define-fun nand2 ((a Bool) (b Bool)) Bool (nand (nand a b) (nand a b)))
            (assert (nand2 p q))
            (assert p)
            (check-sat)
            """
        )[0]
        # nand2 is `and`, so p and q must both hold.
        assert result.answer == "sat"
        assert result.model["q"] is TRUE
        assert_model_satisfies(result)

    def test_let_shadows_definition(self):
        result = solve_script(
            """
            (define-fun c () Bool true)
            (assert (let ((c false)) (not c)))
            (check-sat)
            """
        )[0]
        assert result.answer == "sat"

    def test_parameter_shadows_nullary_definition(self):
        # Inside ``f`` the parameter ``c`` hides the definition ``c``.
        result = run_script(
            "(define-fun c () Int 5) (define-fun f ((c Int)) Int c)"
            "(assert (= (f 3) 3)) (check-sat) (get-value ((f 3)))",
            produce_proofs=True,
        )
        assert result.output == ["sat", "(((f 3) 3))"]

    def test_let_in_body_shadows_definition(self):
        result = run_script(
            "(define-fun c () Int 5)"
            "(define-fun f ((x Int)) Int (let ((c (+ x 1))) (* 2 c)))"
            "(assert (= (f 3) 8)) (assert (= c 5)) (check-sat) (get-value ((f 3) c))"
        )
        assert result.output == ["sat", "(((f 3) 8) (c 5))"]

    def test_quantifier_binder_shadows_definition(self):
        # Inlining the bound ``c`` would make this (= 5 7): a wrong unsat.
        result = solve_script(
            "(define-fun c () Int 5) (assert (exists ((c Int)) (= c 7))) (check-sat)"
        )[0]
        assert result.answer == "unknown"
        assert result.reason == "abstracted-atoms"

    def test_definition_scoping_respects_pop(self):
        answers = solve_script(
            """
            (declare-const p Bool)
            (push 1)
            (define-fun f () Bool (not p))
            (assert f)
            (check-sat)
            (pop 1)
            (assert p)
            (check-sat)
            """
        )
        assert [r.answer for r in answers] == ["sat", "sat"]


class TestModelQueries:
    def test_get_model_without_check_errors(self):
        result = run_script("(get-model)")
        assert result.output[0].startswith('(error')

    def test_get_model_after_unsat_errors(self):
        result = run_script("(assert false)\n(check-sat)\n(get-model)")
        assert result.output == ["unsat", '(error "no model available: last check-sat was not sat")']

    def test_get_value_evaluates_compound_terms(self):
        result = run_script(
            """
            (declare-const p Bool)
            (declare-const q Bool)
            (assert p)
            (assert (not q))
            (check-sat)
            (get-value ((and p q) (or p q) p))
            """
        )
        assert result.output[0] == "sat"
        assert result.output[1] == "(((and p q) false) ((or p q) true) (p true))"

    def test_get_value_of_integer_terms_uses_model_values(self):
        # Since PR 4 every declared constant gets a model value, so
        # arbitrary ground terms evaluate under the model.
        result = run_script(
            """
            (declare-const x Int)
            (declare-const p Bool)
            (assert p)
            (check-sat)
            (get-value ((+ x 1)))
            """
        )
        assert result.output[0] == "sat"
        assert result.output[1] == "(((+ x 1) 1))"

    def test_get_value_of_unfoldable_term_errors(self):
        result = run_script(
            """
            (declare-const a (Array Int Int))
            (declare-const p Bool)
            (assert p)
            (check-sat)
            (get-value ((select a 0)))
            """
        )
        assert result.output[0] == "sat"
        assert result.output[1].startswith('(error')

    def test_get_model_is_deterministic_and_sorted(self):
        text = """
            (declare-const zz Bool)
            (declare-const aa Bool)
            (assert (or zz aa))
            (check-sat)
            (get-model)
            """
        first = run_script(text).output[1]
        second = run_script(text).output[1]
        assert first == second
        lines = first.splitlines()
        assert lines[0] == "(model"
        assert lines[-1] == ")"
        assert lines[1].index("aa") > 0 and "zz" in lines[2]


class TestCommandsRoundTrip:
    def test_get_value_parses_and_prints(self):
        text = "(declare-const p Bool)\n(get-value (p (not p)))\n"
        script = parse_script(text)
        assert isinstance(script.commands[1], GetValue)
        assert script_to_smtlib(script) == text
        assert parse_script(script_to_smtlib(script)) == script

    def test_exit_stops_execution(self):
        result = run_script("(check-sat)\n(exit)\n(check-sat)")
        assert result.answers == ["sat"]


# ---------------------------------------------------------------------------
# The CLI.
# ---------------------------------------------------------------------------


class TestCli:
    def run_cli(self, capsys, *argv):
        from repro.__main__ import main

        status = main(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def test_sat_script(self, capsys, tmp_path):
        path = tmp_path / "a.smt2"
        path.write_text("(declare-const p Bool)\n(assert p)\n(check-sat)\n")
        status, out, err = self.run_cli(capsys, str(path))
        assert status == 0
        assert out == "sat\n"
        assert err == ""

    def test_unsat_corpus_script(self, capsys):
        path = Path(__file__).parent / "corpus" / "prop_unsat.smt2"
        status, out, _ = self.run_cli(capsys, str(path))
        assert status == 0
        assert out.strip() == "unsat"

    def test_multiple_files_get_headers(self, capsys, tmp_path):
        one = tmp_path / "one.smt2"
        two = tmp_path / "two.smt2"
        one.write_text("(check-sat)\n")
        two.write_text("(assert false)\n(check-sat)\n")
        status, out, _ = self.run_cli(capsys, str(one), str(two))
        assert status == 0
        assert out.splitlines() == [f"; {one}", "sat", f"; {two}", "unsat"]

    def test_stats_flag_emits_comments(self, capsys, tmp_path):
        path = tmp_path / "a.smt2"
        path.write_text("(declare-const p Bool)\n(assert p)\n(check-sat)\n")
        status, out, _ = self.run_cli(capsys, str(path), "--stats")
        assert status == 0
        assert "; check-sat #0: sat" in out

    def test_doubling_let_chain_answers_within_budget(self, tmp_path):
        """Each ``let`` doubles the tree size of the next one: 2^24 nodes
        as a tree, 50 as a DAG.  Every pass of a check must stay linear
        in the DAG, so the answer comes well inside the wall limit."""
        depth = 24
        lets = "(let ((a0 x)) " + "".join(
            f"(let ((a{k} (and a{k - 1} (or a{k - 1} y)))) " for k in range(1, depth)
        )
        path = tmp_path / "doubling.smt2"
        path.write_text(
            "(declare-const x Bool)(declare-const y Bool)"
            f"(assert {lets}a{depth - 1}{')' * depth})(check-sat)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--timeout", "1", str(path)],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == "sat\n"

    def test_parse_error_sets_status(self, capsys, tmp_path):
        path = tmp_path / "bad.smt2"
        path.write_text("(assert (undeclared))\n")
        status, out, err = self.run_cli(capsys, str(path))
        assert status == 1
        assert "(error" in err

    def test_missing_file_sets_status(self, capsys, tmp_path):
        status, _, err = self.run_cli(capsys, str(tmp_path / "absent.smt2"))
        assert status == 1
        assert "(error" in err

    @pytest.mark.parametrize(
        ("flag", "value", "status"),
        [
            ("--portfolio", "0", 2),
            ("--portfolio", "-3", 2),
            ("--conflict-limit", "-5", 2),
            ("--timeout", "-1", 2),
            ("--timeout", "nan", 2),
            ("--portfolio", "1", 0),
            ("--conflict-limit", "0", 0),
            ("--timeout", "0", 0),
        ],
    )
    def test_numeric_option_ranges(self, capsys, tmp_path, flag, value, status):
        path = tmp_path / "a.smt2"
        path.write_text("(declare-const p Bool)\n(assert p)\n(check-sat)\n")
        try:
            code, _, err = self.run_cli(capsys, str(path), flag, value)
        except SystemExit as exc:
            code, err = exc.code, capsys.readouterr().err
        assert code == status
        if status == 2:
            assert flag in err

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_stats_lines_are_the_check_stats(self, capsys, path):
        """The ``--stats`` line grammar the end-to-end benchmark parses:
        ``; check-sat #i: <answer>[ reason=R] (key=<int>, ...)``."""
        line_shape = re.compile(
            r"; check-sat #(\d+): (sat|unsat|unknown)(?: reason=(\S+))? \((.*)\)"
        )
        pair_shape = re.compile(r"[\w.]+=-?\d+")
        checks = run_script(path.read_text()).check_results
        runs = []
        for _ in range(2):
            _status, out, _err = self.run_cli(capsys, str(path), "--stats")
            runs.append([line for line in out.splitlines() if line.startswith("; check-sat #")])
        assert runs[0] == runs[1]
        assert len(runs[0]) == len(checks)
        for index, (line, check) in enumerate(zip(runs[0], checks)):
            match = line_shape.fullmatch(line)
            assert match is not None, line
            assert int(match.group(1)) == index
            assert (match.group(2), match.group(3)) == (check.answer, check.reason)
            pairs = match.group(4).split(", ")
            assert all(pair_shape.fullmatch(pair) for pair in pairs), line
            stats = {key: int(value) for key, value in (pair.split("=") for pair in pairs)}
            assert list(stats) == sorted(stats)
            assert stats == check.stats
            assert not any(key.startswith("intern.") for key in stats)

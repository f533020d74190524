"""Tests for the theory-aware simplifier: per-theory rewrite rules, sort
preservation, the rewrite fixpoint, and `simplify_script` over the corpus."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.smtlib import (
    DeclarationContext,
    check,
    check_script,
    parse_script,
    parse_term,
    simplify,
    simplify_script,
)
from repro.smtlib.sorts import BOOL, INT, STRING, bitvec_sort
from repro.smtlib.terms import Apply, Symbol, int_const

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.smt2"))


@pytest.fixture()
def ctx():
    context = DeclarationContext()
    context.declare_const("x", INT)
    context.declare_const("y", INT)
    context.declare_const("b", BOOL)
    context.declare_const("c", BOOL)
    context.declare_const("v", bitvec_sort(8))
    context.declare_const("w", bitvec_sort(8))
    context.declare_const("s", STRING)
    return context


def simp(text, ctx):
    term = parse_term(text, ctx)
    result = simplify(term)
    # Every rewrite is sort-preserving and well-sorted at the original sort.
    assert result.sort == term.sort
    check(result, ctx)
    # Rewrite fixpoint: with interning this is an identity check.
    assert simplify(result) is result
    return str(result)


# -- Core --------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("(not true)", "false"),
        ("(not (not b))", "b"),
        ("(and b true c true)", "(and b c)"),
        ("(and b false c)", "false"),
        ("(and b b b)", "b"),
        ("(and b (not b))", "false"),
        ("(and (and b c) c)", "(and b c)"),
        ("(or b false c)", "(or b c)"),
        ("(or b true)", "true"),
        ("(or (not b) b)", "true"),
        ("(xor b false)", "b"),
        ("(xor b true)", "(not b)"),
        ("(xor true true)", "false"),
        ("(=> b true)", "true"),
        ("(=> false b)", "true"),
        ("(=> true b)", "b"),
        ("(=> b c false)", "(not (and b c))"),
        ("(= x x)", "true"),
        ("(= b true)", "b"),
        ("(= b false)", "(not b)"),
        ("(= 1 2)", "false"),
        ("(distinct x x)", "false"),
        ("(distinct b c (not b))", "false"),
        ("(distinct b false)", "b"),
        ("(ite true x y)", "x"),
        ("(ite false x y)", "y"),
        ("(ite b x x)", "x"),
        ("(ite b true false)", "b"),
        ("(ite b false true)", "(not b)"),
        ("(ite (not b) x y)", "(ite b y x)"),
    ],
)
def test_core_rules(ctx, text, expected):
    assert simp(text, ctx) == expected


# -- Ints / Reals ------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("(+ 1 2 3)", "6"),
        ("(+ x 0)", "x"),
        ("(+ 1 x 2)", "(+ x 3)"),
        ("(+ (+ x 1) 2)", "(+ x 3)"),
        ("(* x 1)", "x"),
        ("(* x 0 y)", "0"),
        ("(* 2 x 3)", "(* x 6)"),
        ("(- 5)", "(- 5)"),  # negative literal prints as (- 5)
        ("(- (- x))", "x"),
        ("(- x 0)", "x"),
        ("(- 7 2)", "5"),
        ("(div x 1)", "x"),
        ("(div 7 2)", "3"),
        ("(div (- 7) 2)", "(- 4)"),
        ("(mod x 1)", "0"),
        ("(mod (- 7) 2)", "1"),
        ("(abs (- 3))", "3"),
        ("(< x x)", "false"),
        ("(<= x x)", "true"),
        ("(< 1 2 3)", "true"),
        ("(< 1 3 2)", "false"),
        ("(to_int (to_real x))", "x"),
        ("(to_int 3.7)", "3"),
        ("(/ 1.0 4.0)", "0.25"),
    ],
)
def test_arith_rules(ctx, text, expected):
    assert simp(text, ctx) == expected


# -- BitVec ------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("(bvadd #x01 #x02)", "#x03"),
        ("(bvadd v #x00)", "v"),
        ("(bvadd #xff #x02)", "#x01"),  # wraps mod 2^8
        ("(bvmul v #x01)", "v"),
        ("(bvmul v #x00)", "#x00"),
        ("(bvand v #x00)", "#x00"),
        ("(bvand v #xff)", "v"),
        ("(bvor v #x00)", "v"),
        ("(bvor v #xff)", "#xff"),
        ("(bvxor v #x00)", "v"),
        ("(bvsub v #x00)", "v"),
        ("(bvshl v #x00)", "v"),
        ("(bvudiv v #x01)", "v"),
        ("(bvnot #x0f)", "#xf0"),
        ("(concat #b10 #b01)", "#x9"),
        ("(concat v #x01 #x02)", "(concat v #x0102)"),
        ("((_ extract 7 0) v)", "v"),
        ("((_ extract 3 0) #xab)", "#xb"),
        ("((_ zero_extend 0) v)", "v"),
        ("((_ zero_extend 8) #xff)", "#x00ff"),
        ("((_ sign_extend 8) #xff)", "#xffff"),
        ("((_ rotate_left 8) v)", "v"),
        ("((_ rotate_left 4) #xab)", "#xba"),
        ("((_ repeat 1) v)", "v"),
        ("(bvult v v)", "false"),
        ("(bvule v v)", "true"),
        ("(bvult #x01 #x02)", "true"),
        ("(bvslt #xff #x01)", "true"),  # -1 < 1 signed
        ("(bvudiv #x05 #x00)", "#xff"),  # SMT-LIB: bvudiv by zero is all-ones
        ("(bvurem #x05 #x00)", "#x05"),
    ],
)
def test_bitvec_rules(ctx, text, expected):
    assert simp(text, ctx) == expected


# -- Strings -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ('(str.++ "foo" "bar")', '"foobar"'),
        ('(str.++ s "")', "s"),
        ('(str.++ "a" "b" s "c" "d")', '(str.++ "ab" s "cd")'),
        ('(str.len "hello")', "5"),
        ('(str.contains "hello" "ell")', "true"),
        ('(str.at "abc" 1)', '"b"'),
        ('(str.substr "abcdef" 1 3)', '"bcd"'),
        ('(str.to_int "42")', "42"),
        ('(str.to_int "4a")', "(- 1)"),
        ("(str.from_int 42)", '"42"'),
        ("(str.< s s)", "false"),
    ],
)
def test_string_rules(ctx, text, expected):
    assert simp(text, ctx) == expected


# -- Binders -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("(let ((z (+ 1 2))) (+ x z))", "(+ x 3)"),
        ("(let ((z (+ x y))) (< z z))", "false"),
        ("(let ((z (+ x y))) (< x 1))", "(< x 1)"),  # unused binding dropped
        ("(forall ((q Int)) (< q 1))", "(forall ((q Int)) (< q 1))"),
        ("(forall ((q Int)) (< x 1))", "(< x 1)"),  # unused binder dropped
        ("(forall ((q Int)) (= q q))", "true"),
        ("(exists ((q Int)) false)", "false"),
        ("(forall ((q Int) (r Int)) (< q 1))", "(forall ((q Int)) (< q 1))"),
    ],
)
def test_binder_rules(ctx, text, expected):
    assert simp(text, ctx) == expected


def test_let_substitution_never_captures(ctx):
    # The literal binding substitutes under the quantifier; the symbolic one
    # must survive as a let around the body.
    text = "(let ((z 5)) (forall ((q Int)) (< q z)))"
    assert simp(text, ctx) == "(forall ((q Int)) (< q 5))"
    text = "(let ((z (+ x y))) (forall ((q Int)) (< q z)))"
    assert simp(text, ctx) == "(let ((z (+ x y))) (forall ((q Int)) (< q z)))"


# -- Whole scripts / corpus --------------------------------------------------


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_simplify_fixpoint_and_sorts(path):
    script = parse_script(path.read_text())
    simplified = simplify_script(script)
    # Fixpoint at the script level.
    assert simplify_script(simplified) == simplified
    # Sorts are preserved assertion by assertion, and the rewritten script
    # still checks end to end.
    for before, after in zip(script.assertions(), simplified.assertions()):
        assert before.sort == after.sort
    check_script(simplified)


def test_simplify_script_only_touches_assertions():
    script = parse_script(
        "(set-logic QF_LIA)\n"
        "(declare-const x Int)\n"
        "(assert (< (+ x 0) (+ 1 2)))\n"
        "(check-sat)\n"
    )
    simplified = simplify_script(script)
    assert [type(c).__name__ for c in simplified] == [
        type(c).__name__ for c in script
    ]
    assert str(simplified.assertions()[0]) == "(< x 3)"


def test_shared_subterms_simplify_once():
    x = Symbol("x", INT)
    shared = Apply("+", (x, int_const(0)), INT)
    root = Apply("<", (shared, Apply("*", (shared, int_const(1)), INT)), BOOL)
    assert str(simplify(root)) == "(< x x)" or str(simplify(root)) == "false"
    assert simplify(root) is simplify(root)


def test_flattening_is_capped_on_shared_dags():
    # t = (+ t t) repeated: tree size 2^60, must stay tractable.
    t = Apply("+", (Symbol("x", INT), int_const(1)), INT)
    for _ in range(60):
        t = Apply("+", (t, t), INT)
    result = simplify(t)
    assert result.sort == INT
    assert simplify(result) is result


def test_literal_let_over_a_doubling_dag_simplifies_within_budget():
    """``simplify(Let((("c", 1),), t))`` where each level of ``t`` doubles
    its tree size: 2^24 occurrences, 52 distinct nodes.  Substituting the
    literal binding must visit each shared subterm once, so the run ends
    well inside the wall limit, and the result evaluates like the input."""
    program = textwrap.dedent(
        """
        from repro.smtlib import simplify
        from repro.smtlib.evaluate import evaluate
        from repro.smtlib.sorts import BOOL, INT
        from repro.smtlib.terms import FALSE, TRUE, Apply, Let, Symbol, int_const

        y = Symbol("y", BOOL)
        t = Apply("<", (Symbol("x", INT), Symbol("c", INT)), BOOL)
        for _ in range(24):
            t = Apply("and", (t, Apply("or", (t, y), BOOL)), BOOL)
        term = Let((("c", int_const(1)),), t)
        result = simplify(term)
        for x in (0, 1, 2):
            for value in (TRUE, FALSE):
                point = {"x": int_const(x), "y": value}
                assert evaluate(result, point) is evaluate(term, point), (x, value)
        print("ok")
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    completed = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, timeout=30, env=env
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "ok\n"

"""Unit tests for the term AST, including printing of every node kind and
the structure-sharing guarantee of ``replace_subterm``."""

import random
import time
from fractions import Fraction

from repro.smtlib.sorts import BOOL, INT, seq_sort
from repro.smtlib.terms import (
    FALSE,
    TRUE,
    Apply,
    Let,
    Quantifier,
    Symbol,
    bitvec_const,
    ff_const,
    int_const,
    qualified_constant,
    real_const,
    replace_subterm,
    string_const,
    substitute,
)

X = Symbol("x", INT)
Y = Symbol("y", INT)
PLUS = Apply("+", (X, Y), INT)
LESS = Apply("<", (X, Y), BOOL)


def test_str_works_for_all_five_node_kinds():
    # Regression: the seed's Term.__str__ imported a printer module that did
    # not exist, so stringifying any term crashed.
    assert str(int_const(3)) == "3"  # Constant
    assert str(X) == "x"  # Symbol
    assert str(PLUS) == "(+ x y)"  # Apply
    quantifier = Quantifier("forall", (("x", INT),), LESS)
    assert str(quantifier) == "(forall ((x Int)) (< x y))"  # Quantifier
    let = Let((("z", PLUS),), Apply("<", (Symbol("z", INT), Y), BOOL))
    assert str(let) == "(let ((z (+ x y))) (< z y))"  # Let


def test_constant_constructors():
    assert str(TRUE) == "true" and str(FALSE) == "false"
    assert real_const(Fraction(3, 2)).value == Fraction(3, 2)
    assert string_const("hi").sort.name == "String"
    assert bitvec_const(300, 8).value == 300 % 256
    assert ff_const(9, 7).qualifier == "ff2"
    assert qualified_constant("seq.empty", seq_sort(INT)).qualifier == "seq.empty"


def test_walk_size_depth():
    assert PLUS.size() == 3
    assert PLUS.depth() == 2
    assert [type(node).__name__ for node in PLUS.walk()] == ["Apply", "Symbol", "Symbol"]


def doubling_chain(levels, leaf):
    """``t_{k+1} = (and t_k (or t_k y))``: 2^levels occurrences as a tree,
    2·levels + 1 distinct nodes besides the leaf's own as a DAG."""
    term, y = leaf, Symbol("y", BOOL)
    for _ in range(levels):
        term = Apply("and", (term, Apply("or", (term, y), BOOL)), BOOL)
    return term


def test_depth_is_linear_on_shared_dags():
    chain = doubling_chain(24, Symbol("p", BOOL))
    started = time.perf_counter()
    assert chain.depth() == 2 * 24 + 1
    assert time.perf_counter() - started < 1.0


def test_depth_matches_the_recursive_definition_on_random_terms():
    def reference(term):
        return 1 + max((reference(kid) for kid in term.children()), default=0)

    rng = random.Random(20261018)
    for _ in range(200):
        pool = [Symbol(name, BOOL) for name in "pqr"] + [TRUE]
        for _ in range(rng.randint(1, 12)):
            op, arity = rng.choice((("not", 1), ("and", 2), ("or", 3), ("=>", 2)))
            pool.append(Apply(op, tuple(rng.choice(pool) for _ in range(arity)), BOOL))
        term = rng.choice(pool)
        if rng.random() < 0.3:
            term = Let((("q", rng.choice(pool)),), term)
        assert term.depth() == reference(term)


def test_free_symbols_respect_binders():
    quantifier = Quantifier("forall", (("x", INT),), LESS)
    assert quantifier.free_symbols() == {"y": INT}
    let = Let((("x", Y),), LESS)
    assert let.free_symbols() == {"y": INT}


def test_substitute_shadowing():
    replaced = substitute(LESS, {"x": int_const(1)})
    assert str(replaced) == "(< 1 y)"
    quantifier = Quantifier("forall", (("x", INT),), LESS)
    assert substitute(quantifier, {"x": int_const(1)}) is quantifier


def test_substitute_visits_shared_subterms_once():
    chain = doubling_chain(20, Apply("<", (X, Symbol("c", INT)), BOOL))
    started = time.perf_counter()
    replaced = substitute(chain, {"c": int_const(1)})
    assert time.perf_counter() - started < 1.0
    assert replaced is doubling_chain(20, Apply("<", (X, int_const(1)), BOOL))
    # Under a binder that rebinds ``c``, the body is left alone.
    let = Let((("c", Y),), chain)
    assert substitute(let, {"c": int_const(1)}).body is chain


def test_replace_subterm_replaces_first_occurrence():
    rewritten = replace_subterm(PLUS, X, int_const(5))
    assert str(rewritten) == "(+ 5 y)"


def test_replace_subterm_shares_structure():
    # Identity preservation: nodes whose descendants are untouched must be
    # returned as-is, not rebuilt.
    left = Apply("+", (X, Y), INT)
    right = Apply("*", (X, Y), INT)
    root = Apply("<", (left, right), BOOL)
    rewritten = replace_subterm(root, right, X)
    assert rewritten.args[0] is left  # untouched sibling not rebuilt
    assert rewritten.args[1] is X

    # No match at all: the whole tree comes back identical.
    assert replace_subterm(root, int_const(99), X) is root

    quantifier = Quantifier("forall", (("x", INT),), root)
    assert replace_subterm(quantifier, int_const(99), X) is quantifier
    let = Let((("z", left),), root)
    assert replace_subterm(let, int_const(99), X) is let


def test_operators_reported():
    assert Apply("<", (PLUS, Y), BOOL).operators() == {"<", "+"}

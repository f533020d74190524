"""Property tests for the engine's preparation pass, ``prepare_term``.

Seeded random terms mix nested and parallel ``let`` binders (shadowing
free symbols, definitions and each other, with shared values),
``define-fun`` applications, quantifier binders, n-ary ``=``/``distinct``
over Int, Real and an uninterpreted sort, and chained comparisons.  Two
properties are checked:

* **Shape** — the output has no ``let``, no definition application, no
  non-boolean ``distinct`` or n-ary ``=``, no comparison over more than
  two arguments and no linear Int/Real ``=``.
* **Meaning** — on quantifier-free inputs, the prepared term evaluates
  like the input under random models.  The oracle is the evaluator's own
  parallel ``let``; for inputs with definitions, each application is
  first rewritten into a ``let`` over the parameters (definition bodies
  mention only their parameters and names no binder reuses, so the
  rewrite captures nothing).
"""

from fractions import Fraction
from random import Random

import pytest

from repro.engine.context import prepare_term
from repro.smtlib import (
    BOOL,
    FALSE,
    INT,
    REAL,
    TRUE,
    Apply,
    Constant,
    DefineFun,
    Let,
    Quantifier,
    Symbol,
    Term,
    evaluate,
    int_const,
    real_const,
    uninterpreted_sort,
)
from repro.smtlib.linarith import difference_form
from repro.theory import SortValueAllocator

U = uninterpreted_sort("U")

#: Names binders reuse, per sort: ``let`` and quantifier binders shadow
#: the free symbols, each other and the nullary definitions ``k``/``h``.
NAMES = {INT: ("x", "y", "k"), REAL: ("r", "s"), U: ("u", "w"), BOOL: ("p", "h")}
#: Free symbols no binder reuses (the only non-parameters in bodies).
GLOBALS = {INT: "g", REAL: "t", U: "o", BOOL: "q"}
SORT_OF = {name: sort for sort, names in NAMES.items() for name in names}
SORT_OF.update({name: sort for sort, name in GLOBALS.items()})

COMPARISONS = ("<", "<=", ">", ">=")


def sym(name: str) -> Symbol:
    return Symbol(name, SORT_OF[name])


def app(op: str, *args: Term, sort=BOOL) -> Apply:
    return Apply(op, args, sort)


DEFINITIONS = {
    # ``k`` is also a binder name, and ``f``'s parameter.
    "k": DefineFun("k", (), INT, app("+", sym("g"), int_const(2), sort=INT)),
    "f": DefineFun(
        "f",
        (("k", INT), ("x", INT)),
        INT,
        Let(
            (("y", app("+", sym("k"), sym("x"), sort=INT)),),
            app("ite", app("<", sym("k"), sym("x"), sym("g")), sym("y"), sym("k"), sort=INT),
        ),
    ),
    "e": DefineFun(
        "e",
        (("u", U), ("r", REAL)),
        BOOL,
        app("and", app("distinct", sym("u"), sym("o"), sym("u")), app("=", sym("r"), sym("t"))),
    ),
    # A nullary definition over another one.
    "h": DefineFun("h", (), BOOL, app("=", Symbol("k", INT), sym("g"), int_const(4))),
}


class Terms:
    """Seeded well-sorted term generator (names have one sort each, so
    shared subterms stay well-sorted under any binder)."""

    def __init__(self, rng: Random, definitions: bool, quantifiers: bool) -> None:
        self.rng = rng
        self.definitions = definitions
        self.quantifiers = quantifiers
        self.shared: dict = {sort: [] for sort in NAMES}

    def term(self, sort, depth: int) -> Term:
        rng = self.rng
        if self.shared[sort] and rng.random() < 0.15:
            return rng.choice(self.shared[sort])
        if depth <= 0 or rng.random() < 0.2:
            result = self.leaf(sort)
        elif rng.random() < 0.2:
            result = self.let(sort, depth)
        elif sort == BOOL:
            result = self.boolean(depth)
        else:
            result = self.value(sort, depth)
        self.shared[sort].append(result)
        return result

    def leaf(self, sort) -> Term:
        rng = self.rng
        if rng.random() < 0.3:
            if sort == INT:
                return int_const(rng.randint(-3, 3))
            if sort == REAL:
                return real_const(Fraction(rng.randint(-4, 4), 2))
            if sort == BOOL:
                return rng.choice((TRUE, FALSE))
        return sym(rng.choice(NAMES[sort] + (GLOBALS[sort],)))

    def let(self, sort, depth: int) -> Term:
        names = self.rng.sample(list(SORT_OF.keys() - set(GLOBALS.values())), self.rng.randint(1, 3))
        # Parallel let: the values are built in the enclosing scope.
        bindings = tuple((name, self.term(SORT_OF[name], depth - 1)) for name in names)
        return Let(bindings, self.term(sort, depth - 1))

    def value(self, sort, depth: int) -> Term:
        rng = self.rng
        sub = lambda: self.term(sort, depth - 1)  # noqa: E731
        choice = rng.random()
        if sort == U or choice < 0.2:
            return app("ite", self.term(BOOL, depth - 1), sub(), sub(), sort=sort)
        if sort == INT and self.definitions and choice < 0.35:
            return app("f", sub(), sub(), sort=INT)
        if choice < 0.6:
            return app("+", *(sub() for _ in range(rng.randint(2, 3))), sort=sort)
        if choice < 0.75:
            return app("-", sub(), sort=sort)
        if choice < 0.9:
            return app("*", self.leaf(sort) if rng.random() < 0.5 else sub(), sub(), sort=sort)
        return self.leaf(sort)

    def boolean(self, depth: int) -> Term:
        rng = self.rng
        sub = lambda sort=BOOL: self.term(sort, depth - 1)  # noqa: E731
        choice = rng.random()
        if choice < 0.3:
            sort = rng.choice((INT, REAL, U, BOOL))
            op = rng.choice(("=", "distinct"))
            return app(op, *(sub(sort) for _ in range(rng.randint(2, 4))))
        if choice < 0.5:
            sort = rng.choice((INT, REAL))
            return app(rng.choice(COMPARISONS), *(sub(sort) for _ in range(rng.randint(2, 4))))
        if choice < 0.6 and self.definitions:
            return app("e", sub(U), sub(REAL))
        if choice < 0.7 and self.quantifiers:
            names = rng.sample(list(SORT_OF.keys() - set(GLOBALS.values())), rng.randint(1, 2))
            return Quantifier(rng.choice(("forall", "exists")), [(n, SORT_OF[n]) for n in names], sub())
        if choice < 0.8:
            return app("not", sub())
        return app(rng.choice(("and", "or")), *(sub() for _ in range(rng.randint(2, 3))))


def assert_prepared_shape(term: Term) -> None:
    for node in term.nodes():
        assert not isinstance(node, Let), node
        if not isinstance(node, Apply):
            continue
        assert node.op not in ("f", "e"), node
        if node.op in ("=", "distinct") and node.args[0].sort != BOOL:
            assert node.op == "=" and len(node.args) == 2, node
            if node.args[0].sort in (INT, REAL):
                assert difference_form(*node.args) is None, node
        if node.op in COMPARISONS:
            assert len(node.args) == 2, node


def as_lets(term: Term, bound: frozenset = frozenset()) -> Term:
    """``term`` with every definition rewritten into a ``let`` over its
    parameters (or, nullary, into its body) — the oracle's input."""
    if isinstance(term, Symbol):
        definition = DEFINITIONS.get(term.name)
        if definition is not None and term.name not in bound:
            return as_lets(definition.body)
        return term
    if isinstance(term, Apply):
        args = tuple(as_lets(arg, bound) for arg in term.args)
        definition = DEFINITIONS.get(term.op)
        if definition is not None:
            names = tuple(name for name, _ in definition.params)
            return Let(tuple(zip(names, args)), as_lets(definition.body, frozenset(names)))
        return Apply(term.op, args, term.sort, term.indices)
    if isinstance(term, Let):
        values = tuple((name, as_lets(value, bound)) for name, value in term.bindings)
        return Let(values, as_lets(term.body, bound | {name for name, _ in term.bindings}))
    return term


def random_model(rng: Random) -> dict[str, Constant]:
    allocator = SortValueAllocator()
    elements = [allocator.fresh(U) for _ in range(3)]
    model = {}
    for name, sort in SORT_OF.items():
        if sort == INT:
            model[name] = int_const(rng.randint(-3, 3))
        elif sort == REAL:
            model[name] = real_const(Fraction(rng.randint(-4, 4), 2))
        elif sort == BOOL:
            model[name] = rng.choice((TRUE, FALSE))
        else:
            model[name] = rng.choice(elements)
    return model


@pytest.mark.parametrize("seed", range(60))
def test_prepared_shape(seed):
    rng = Random(seed)
    term = Terms(rng, definitions=True, quantifiers=True).term(BOOL, 5)
    prepared = prepare_term(term, DEFINITIONS, {})
    assert prepared.sort == BOOL
    assert_prepared_shape(prepared)


@pytest.mark.parametrize("definitions", [False, True], ids=["lets", "definitions"])
@pytest.mark.parametrize("seed", range(60))
def test_prepared_term_evaluates_like_input(seed, definitions):
    rng = Random(1000 + seed)
    term = Terms(rng, definitions=definitions, quantifiers=False).term(BOOL, 5)
    prepared = prepare_term(term, DEFINITIONS if definitions else {}, {})
    oracle = as_lets(term) if definitions else term
    for _ in range(5):
        model = random_model(rng)
        assert evaluate(prepared, model) is evaluate(oracle, model)


def test_shared_memo_across_terms():
    memo: dict = {}
    x, y = sym("x"), sym("y")
    first = prepare_term(app("=", x, y), {}, memo)
    assert first == app("and", app("<=", x, y), app(">=", x, y))
    assert memo[app("=", x, y)] is first
    # The second term finds the shared equality in the memo.
    second = prepare_term(app("not", app("=", x, y)), {}, memo)
    assert second == app("not", first)


def test_parameter_shadows_nullary_definition():
    # ``(f 3)`` is ``3``: the parameter ``k``, not the definition ``k``.
    call = app("f", int_const(3), int_const(9), sort=INT)
    prepared = prepare_term(app("=", call, sym("y")), DEFINITIONS, {})
    model = {"g": int_const(0), "y": int_const(3)}
    assert evaluate(prepared, model) is TRUE


def test_quantifier_binder_shadows_definition():
    body = app(">", Symbol("k", INT), int_const(0))
    prepared = prepare_term(Quantifier("forall", (("k", INT),), body), DEFINITIONS, {})
    assert prepared == Quantifier("forall", (("k", INT),), body)
    # Outside the binder, ``k`` is the definition.
    assert prepare_term(body, DEFINITIONS, {}) == app(">", DEFINITIONS["k"].body, int_const(0))


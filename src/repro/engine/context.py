"""Assertion-stack frames and term preparation.

One :class:`Frame` per assertion-stack level holds the raw asserted
terms, their *prepared* and *simplified* forms (computed once, cached for
every later ``check-sat``), the declarations scoped to the level, and the
frame's SAT *selector* variable — the assumption literal that activates
the frame's clauses in the shared incremental solver.

Preparation is the term-level rewrite that runs **before** encoding:
:func:`prepare_term`, one memoized bottom-up pass that carries a binder
environment (name → prepared value).  A ``let`` binds its names to its
prepared values (parallel semantics) and no ``let`` survives; a
``define-fun`` application binds the parameters to the prepared
arguments and prepares the body under them; a quantifier binds each
name to its own symbol.  Inner bindings hide outer ones and definitions
of the same name.  Only the empty environment uses the caller's memo;
each binder scope gets a fresh one.

At each ``Apply`` the equality rule runs first: n-ary ``=`` and any
``distinct`` over non-boolean terms become conjunctions of *binary*
equalities (negated for ``distinct``), so the theory layer only sees
binary equality atoms; boolean ``=``/``distinct`` are CNF connectives
and stay.  The arithmetic rule then splits each linear Int/Real ``=``
into a ``<=``/``>=`` pair (NNF turns its negation into a disjunction of
strict inequalities, so the SAT core case-splits disequalities for the
convex simplex) and chained comparisons into binary conjunctions.

Bound values are substituted as they are, not renamed: a quantifier in
a body can capture a free symbol of a ``let`` value or an argument.  The
engine targets quantifier-free skeletons, where no capture can occur.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..smtlib.linarith import difference_form
from ..smtlib.script import DefineFun, FunSignature
from ..smtlib.sorts import BOOL, INT, REAL, Sort
from ..smtlib.terms import (
    Apply,
    Constant,
    Let,
    Quantifier,
    Symbol,
    Term,
    negate,
    pop_scope,
    push_scope,
)


class Frame:
    """One assertion-stack level: assertions, their cached prepared forms,
    scoped declarations and the frame's selector variable."""

    __slots__ = (
        "assertions",
        "names",
        "prepared",
        "simplified",
        "atom_lists",
        "encoded",
        "definitions",
        "consts",
        "funs",
        "selector",
        "named",
    )

    def __init__(self) -> None:
        self.assertions: list[Term] = []
        #: Parallel to ``assertions``: the ``:named`` label, or ``None``.
        self.names: list[Optional[str]] = []
        self.prepared: list[Term] = []
        self.simplified: list[Term] = []
        self.atom_lists: list[tuple[Term, ...]] = []
        self.encoded = 0
        self.definitions: dict[str, DefineFun] = {}
        self.consts: dict[str, Sort] = {}
        self.funs: dict[str, FunSignature] = {}
        self.selector: Optional[int] = None
        #: ``(label, selector)`` per encoded named assertion.  Named
        #: assertions get their own selector on top of the frame's, so a
        #: failed-assumption core maps straight back to labels; popping
        #: the frame retires these selectors alongside the frame's own.
        self.named: list[tuple[str, int]] = []


# ---------------------------------------------------------------------------
# The preparation pass.
# ---------------------------------------------------------------------------


def prepare_term(
    term: Term, definitions: Mapping[str, DefineFun], memo: dict[Term, Term]
) -> Term:
    """Inline ``definitions``, expand every ``let`` and normalize the
    equality and arithmetic atoms of ``term`` in one pass.  ``memo`` maps
    terms to their prepared forms in the empty environment: share one
    across a batch of terms so common subterms are prepared once."""
    return _prepare(term, definitions, {}, memo, memo)


def _prepare(
    term: Term, definitions: Mapping[str, DefineFun], env: dict[str, Term],
    memo: dict[Term, Term], root: dict[Term, Term],
) -> Term:
    # ``memo`` belongs to the current binder scope and ``root`` to the
    # empty one, where definition bodies without parameters are prepared.
    cached = memo.get(term)
    if cached is not None:
        return cached
    if isinstance(term, Constant):
        result: Term = term
    elif isinstance(term, Symbol):
        if term.name in env:
            result = env[term.name]
        elif term.name in definitions:
            result = _inline(definitions[term.name], (), definitions, root)
        else:
            result = term
    elif isinstance(term, Apply):
        # Plain loop, not a genexpr, so deep chains prepare in linear time.
        rewritten = []
        for arg in term.args:
            rewritten.append(_prepare(arg, definitions, env, memo, root))
        args = tuple(rewritten)
        definition = definitions.get(term.op)
        if definition is not None and not term.indices:
            result = _inline(definition, args, definitions, root)
        else:
            result = _normalize_atom(term, args)
    elif isinstance(term, Quantifier):
        saved = push_scope(env, [(name, Symbol(name, sort)) for name, sort in term.bindings])
        try:
            body = _prepare(term.body, definitions, env, {}, root)
        finally:
            pop_scope(env, saved)
        result = term if body is term.body else Quantifier(term.kind, term.bindings, body)
    elif isinstance(term, Let):
        values = []
        for name, value in term.bindings:
            values.append((name, _prepare(value, definitions, env, memo, root)))
        saved = push_scope(env, values)
        try:
            result = _prepare(term.body, definitions, env, {}, root)
        finally:
            pop_scope(env, saved)
    else:
        raise TypeError(f"unknown term node: {term!r}")
    memo[term] = result
    return result


def _inline(
    definition: DefineFun, args: tuple[Term, ...],
    definitions: Mapping[str, DefineFun], root: dict[Term, Term],
) -> Term:
    """The body of ``definition`` prepared with its parameters bound to
    the prepared ``args``."""
    env = {name: arg for (name, _), arg in zip(definition.params, args)}
    return _prepare(definition.body, definitions, env, {} if env else root, root)


def _normalize_atom(term: Apply, args: tuple[Term, ...]) -> Term:
    """Rebuild ``term`` over its prepared ``args``, splitting non-boolean
    n-ary ``=`` and ``distinct`` into binary equalities first, then
    applying the arithmetic rule to each."""
    if (
        term.op in ("=", "distinct")
        and args
        and args[0].sort != BOOL
        and (len(args) > 2 or term.op == "distinct")
    ):
        if term.op == "=":
            parts = [_arithmetic_rule(Apply("=", pair, BOOL)) for pair in zip(args, args[1:])]
        else:
            parts = [
                negate(_arithmetic_rule(Apply("=", (args[i], args[j]), BOOL)))
                for i in range(len(args))
                for j in range(i + 1, len(args))
            ]
        return parts[0] if len(parts) == 1 else Apply("and", tuple(parts), BOOL)
    if args != term.args:
        term = Apply(term.op, args, term.sort, term.indices)
    return _arithmetic_rule(term)


def _arithmetic_rule(term: Apply) -> Term:
    """A linear Int/Real ``=`` becomes ``(and (<= a b) (>= a b))`` and a
    chained comparison the conjunction of its adjacent pairs; anything
    else (non-linear equalities stay for EUF) is returned as-is."""
    args = term.args
    if (
        term.op == "="
        and len(args) == 2
        and args[0].sort in (INT, REAL)
        and difference_form(args[0], args[1]) is not None
    ):
        return Apply("and", (Apply("<=", args, BOOL), Apply(">=", args, BOOL)), BOOL)
    if term.op in ("<", "<=", ">", ">=") and len(args) > 2:
        pairs = tuple(Apply(term.op, pair, BOOL) for pair in zip(args, args[1:]))
        return Apply("and", pairs, BOOL)
    return term


__all__ = ["Frame", "prepare_term"]

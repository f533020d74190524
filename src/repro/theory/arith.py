"""Linear arithmetic: a dual-simplex theory plugin for QF_LRA / QF_LIA.

The second concrete :class:`~repro.theory.core.Theory` implements the
general simplex of Dutertre–de Moura ("A Fast Linear-Arithmetic Solver
for DPLL(T)", CAV'06), plus branch-and-bound for integer solutions:

* **Atoms** are binary comparisons ``lhs ▷ rhs`` (``<``, ``<=``, ``>``,
  ``>=``) whose difference is *linear* over Int/Real symbols (the
  fragment :func:`~repro.smtlib.linarith.linear_form` accepts).  Each
  atom compiles once into a bound ``v ▷ c`` on a single simplex
  variable: the symbol itself for one-variable forms, otherwise a *slack*
  variable defined by the canonically-scaled linear expression.  Slack
  definitions are shared — ``x + 2y <= 3`` and ``2x + 4y >= 10`` bound
  the same slack — so the tableau grows with distinct expressions, not
  with asserted literals.
* **Assert** updates one bound: a clash against the opposite bound is an
  immediate conflict explained by exactly the two responsible literals;
  a non-basic variable pushed outside its bounds is repaired by the
  standard ``update`` sweep over the columns.
* **Check** runs the dual simplex to a feasible assignment or a
  *minimal-by-construction* infeasibility explanation (the violated
  bound plus the limiting bound of every variable in its row), with
  Bland's rule (smallest variable index first) guaranteeing termination.
* **Numbers are integers on the pivot path.**  Each tableau row is a
  dict of integer coefficients over one positive row denominator
  (``basic = Σ cⱼ·xⱼ / d``, with ``gcd(d, c…) == 1``).  A pivot solves
  the leaving row for the entering variable — already in lowest terms —
  and substitutes it into each other row by scaling that row with
  ``d/gcd`` and adding in integers; only a row whose old denominator
  is not 1 can pick up a common factor, so only those get a gcd pass.
  Assignments and bounds are :class:`DeltaRational` integer triples.
  ``Fraction`` appears only where atoms compile into bounds and where
  models are extracted.
* **Strict bounds** use δ-rationals (:class:`DeltaRational`): ``x < c``
  is ``x <= c - δ`` for a symbolic infinitesimal δ, materialized at
  model-extraction time by choosing a concrete δ small enough for every
  asserted bound.  Integer variables avoid δ entirely — their strict
  bounds tighten to the nearest integer (``x < 5/2`` becomes
  ``x <= 2``), which also strengthens propagation.
* **Integers** get branch-and-bound on top of the rational relaxation:
  a fractional integer variable ``x`` with value ``v`` splits into
  ``x <= ⌊v⌋`` and ``x >= ⌊v⌋ + 1`` on an internal trail, bounded by a
  branch budget.  Both branches refuting proves integer infeasibility;
  the explanation is the union of the *external* literals appearing in
  the leaf conflicts (the internal branch bounds resolve away because
  the two cuts are exhaustive over the integers).  An exhausted budget
  degrades to ``unknown`` — the theory stays sound, never complete by
  accident.
* **Backtracking** restores bounds (and the conflict flag) through the
  same undo-log discipline as EUF.  The tableau, the variable
  assignment and all slack definitions persist across ``pop`` — rows
  are definitional identities, and relaxing bounds can never invalidate
  the non-basic-within-bounds invariant — so backtracking costs
  O(bounds changed), never a rebuild.

Equality atoms are deliberately **not** owned: the engine's preparation
pass splits every pure-arithmetic ``(= a b)`` into
``(and (<= a b) (>= a b))``, whose negation the SAT core case-splits
into strict inequalities — the theory never needs disequality reasoning.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from ..obs.spans import trace_span
from ..smtlib.linarith import difference_form
from ..smtlib.sorts import INT, REAL
from ..smtlib.terms import Apply, Constant, Symbol, Term, int_const
from .core import SortValueAllocator, Theory, TheoryConflict, TheoryModel

_MISSING = object()

#: A bound's provenance: an asserted ``(atom, positive)`` literal, or
#: ``None`` for the internal cuts branch-and-bound asserts.
_Lit = Optional[tuple[Term, bool]]

_ARITH_OPS = ("<", "<=", ">", ">=")
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}

def _floor(value: Fraction) -> int:
    return value.numerator // value.denominator


def _ceil(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


class DeltaRational:
    """A rational plus a symbolic-infinitesimal multiple: ``r + k·δ``.

    Stored as three integers, ``(num + dnum·δ) / den`` with ``den > 0``
    and ``gcd(num, dnum, den) == 1``, so equal values have equal fields
    and every operation is integer arithmetic plus one gcd.  Ordered
    lexicographically — exactly the order that makes the strict bound
    ``x < c`` equivalent to ``x <= c - δ`` for every sufficiently small
    positive δ.  Supports the ring operations the simplex needs
    (addition, subtraction, scaling by a rational ``n/d``).
    """

    __slots__ = ("num", "dnum", "den")

    num: int
    dnum: int
    den: int

    def __init__(
        self, real: Union[int, Fraction], delta: Union[int, Fraction] = 0
    ) -> None:
        real, delta = Fraction(real), Fraction(delta)
        den = lcm(real.denominator, delta.denominator)
        # Both parts are in lowest terms, so no prime divides all three.
        self.num = real.numerator * (den // real.denominator)
        self.dnum = delta.numerator * (den // delta.denominator)
        self.den = den

    @property
    def real(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def delta(self) -> Fraction:
        return Fraction(self.dnum, self.den)

    def __add__(self, other: "DeltaRational") -> "DeltaRational":
        return self.plus_times(other, 1, 1)

    def __sub__(self, other: "DeltaRational") -> "DeltaRational":
        return self.plus_times(other, -1, 1)

    def times(self, n: int, d: int) -> "DeltaRational":
        """This value scaled by the rational ``n/d`` (``d != 0``)."""
        if d < 0:
            n, d = -n, -d
        return _reduced(self.num * n, self.dnum * n, self.den * d)

    def plus_times(self, other: "DeltaRational", n: int, d: int) -> "DeltaRational":
        """``self + other·n/d`` with a single reduction (``d > 0``)."""
        scale = other.den * d
        n *= self.den
        return _reduced(
            self.num * scale + other.num * n,
            self.dnum * scale + other.dnum * n,
            self.den * scale,
        )

    def scaled(self, factor: Fraction) -> "DeltaRational":
        return self.times(factor.numerator, factor.denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaRational):
            return NotImplemented
        return self.num == other.num and self.dnum == other.dnum and self.den == other.den

    def _cmp(self, other: "DeltaRational") -> int:
        """The sign of ``self - other``."""
        left, right = self.num * other.den, other.num * self.den
        if left == right:
            left, right = self.dnum * other.den, other.dnum * self.den
        return (left > right) - (left < right)

    def __lt__(self, other: "DeltaRational") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "DeltaRational") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "DeltaRational") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "DeltaRational") -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self.num, self.dnum, self.den))

    @property
    def is_integral(self) -> bool:
        return self.dnum == 0 and self.den == 1

    def floor(self) -> int:
        """The largest integer (strictly) below a non-integral value, the
        value itself when integral."""
        base, remainder = divmod(self.num, self.den)
        if remainder == 0 and self.dnum < 0:
            return base - 1
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaRational({self.real!r}, {self.delta!r})"


def _reduced(num: int, dnum: int, den: int) -> DeltaRational:
    """``(num + dnum·δ) / den`` for ``den > 0``, in lowest terms."""
    common = gcd(num, dnum, den)
    value = DeltaRational.__new__(DeltaRational)
    if common == 1:
        value.num, value.dnum, value.den = num, dnum, den
    else:
        value.num, value.dnum, value.den = num // common, dnum // common, den // common
    return value


class ArithTheory(Theory):
    """Dual simplex over δ-rationals with branch-and-bound for ``Int``.

    ``branch_limit`` caps the number of branch-and-bound nodes explored
    per ``check``; exhausting it makes the theory incomplete for that
    check (``model`` returns ``None``, the engine answers ``unknown``)
    but never unsound.
    """

    name = "arith"

    def __init__(self, branch_limit: int = 2000) -> None:
        super().__init__()
        self._branch_limit = branch_limit
        # Variable space: externals (script symbols) and slacks share it.
        self._terms: list[Optional[Symbol]] = []
        self._is_int: list[bool] = []
        self._var_of: dict[Symbol, int] = {}
        self._slack_of: dict[tuple, int] = {}
        # The tableau: basic variable -> sparse row of integer
        # coefficients over non-basic ones, with one positive row
        # denominator (``basic = Σ coeff·column / den``, in lowest terms),
        # plus the column index (non-basic -> rows that mention it).
        self._rows: dict[int, dict[int, int]] = {}
        self._dens: dict[int, int] = {}
        self._cols: dict[int, set[int]] = {}
        self._assign: list[DeltaRational] = []
        self._lower: dict[int, tuple[DeltaRational, _Lit]] = {}
        self._upper: dict[int, tuple[DeltaRational, _Lit]] = {}
        self._compiled: dict[Term, tuple] = {}
        self._owned: dict[Term, bool] = {}
        self._conflict: Optional[TheoryConflict] = None
        self._incomplete = False
        self._trail: list[tuple] = []
        self._marks: list[int] = []
        self._internal_marks: list[int] = []
        self.stats = {
            "literals": 0,
            "conflicts": 0,
            "pivots": 0,
            # Row entries written by pivots: the entering row, plus per
            # substituted row the entering-row update and any rescale
            # or gcd reduction of the whole row.
            "pivot_entries": 0,
            "branches": 0,
            "checks": 0,
            "bb_exhausted": 0,
        }

    # -- fragment membership -------------------------------------------------

    def owns_atom(self, atom: Term) -> bool:
        """Binary ``<``/``<=``/``>``/``>=`` whose difference is linear
        over Int/Real symbols."""
        cached = self._owned.get(atom)
        if cached is not None:
            return cached
        result = (
            isinstance(atom, Apply)
            and not atom.indices
            and atom.op in _ARITH_OPS
            and len(atom.args) == 2
            and difference_form(atom.args[0], atom.args[1]) is not None
        )
        self._owned[atom] = result
        return result

    # -- undo log ------------------------------------------------------------

    def push(self) -> None:
        self._marks.append(len(self._trail))

    def pop(self, levels: int = 1) -> None:
        for _ in range(levels):
            self._undo_to(self._marks.pop())

    def _undo_to(self, mark: int) -> None:
        trail = self._trail
        while len(trail) > mark:
            entry = trail.pop()
            if entry[0] == "d":
                _, mapping, key, old = entry
                if old is _MISSING:
                    mapping.pop(key, None)
                else:
                    mapping[key] = old
            else:  # "c": conflict flag
                self._conflict = entry[1]

    def _save(self, mapping: dict, key: int) -> None:
        self._trail.append(("d", mapping, key, mapping.get(key, _MISSING)))

    def _set_conflict(self, conflict: TheoryConflict) -> None:
        self._trail.append(("c", self._conflict))
        self._conflict = conflict
        self.stats["conflicts"] += 1

    # -- variable and slack registration ------------------------------------

    def _new_var(self, term: Optional[Symbol], is_int: bool) -> int:
        index = len(self._assign)
        self._terms.append(term)
        self._is_int.append(is_int)
        self._assign.append(DeltaRational(0))
        return index

    def _var_index(self, symbol: Symbol) -> int:
        index = self._var_of.get(symbol)
        if index is None:
            index = self._new_var(symbol, symbol.sort == INT)
            self._var_of[symbol] = index
        return index

    def _slack_index(self, coeffs: dict[Symbol, Fraction]) -> tuple[int, Fraction]:
        """The (shared) slack variable for a multi-variable linear
        expression, plus the scale mapping the caller's coefficients onto
        the canonical ones (coprime integers, positive leading
        coefficient, variables ordered by name)."""
        items = sorted(coeffs.items(), key=lambda entry: entry[0].name)
        common_den = lcm(*(coeff.denominator for _, coeff in items))
        numerators = [coeff.numerator * (common_den // coeff.denominator) for _, coeff in items]
        divisor = gcd(*numerators)
        if numerators[0] < 0:
            divisor = -divisor
        key = tuple(
            (symbol, numerator // divisor) for (symbol, _), numerator in zip(items, numerators)
        )
        scale = Fraction(common_den, divisor)
        existing = self._slack_of.get(key)
        if existing is not None:
            return existing, scale
        # New definition: express the row over the current non-basic
        # variables (substituting any basic variable's row keeps the
        # tableau in solved form) and enter it as a basic variable whose
        # assignment is the current value of the expression.
        row: dict[int, int] = {}
        den = 1
        value = DeltaRational(0)
        is_int = True
        for symbol, coeff in key:
            index = self._var_index(symbol)
            if symbol.sort != INT:
                is_int = False
            value = value.plus_times(self._assign[index], coeff, 1)
            basic_row = self._rows.get(index)
            if basic_row is None:
                terms, terms_den = {index: 1}, 1
            else:
                terms, terms_den = basic_row, self._dens[index]
            # row/den + coeff·terms/terms_den over their least common
            # denominator.
            common = gcd(den, terms_den)
            if terms_den != common:
                row = {column: entry * (terms_den // common) for column, entry in row.items()}
            factor = coeff * (den // common)
            den = den // common * terms_den
            for column, entry in terms.items():
                updated = row.get(column, 0) + factor * entry
                if updated == 0:
                    row.pop(column, None)
                else:
                    row[column] = updated
        common = gcd(den, *row.values())
        if common != 1:
            row = {column: entry // common for column, entry in row.items()}
            den //= common
        slack = self._new_var(None, is_int)
        self._assign[slack] = value
        self._rows[slack] = row
        self._dens[slack] = den
        for column in row:
            self._cols.setdefault(column, set()).add(slack)
        self._slack_of[key] = slack
        return slack, scale

    # -- atom compilation ----------------------------------------------------

    def _compile(self, atom: Apply) -> tuple:
        cached = self._compiled.get(atom)
        if cached is not None:
            return cached
        form = difference_form(atom.args[0], atom.args[1])
        assert form is not None, f"not an arithmetic atom: {atom!r}"
        coeffs, constant = form
        target = -constant  # the atom is  Σ coeffs · x  ▷  target
        compiled: tuple
        if not coeffs:
            zero = Fraction(0)
            truth = {
                "<": zero < target,
                "<=": zero <= target,
                ">": zero > target,
                ">=": zero >= target,
            }[atom.op]
            compiled = ("const", truth)
        else:
            if len(coeffs) == 1:
                symbol, coeff = next(iter(coeffs.items()))
                var = self._var_index(symbol)
                scale = Fraction(1) / coeff
            else:
                var, scale = self._slack_index(coeffs)
            bound = target * scale
            op = atom.op if scale > 0 else _FLIP[atom.op]
            is_int = self._is_int[var]
            compiled = (
                "bound",
                var,
                self._bound_for(op, bound, is_int),
                self._bound_for(_NEGATE[op], bound, is_int),
            )
        self._compiled[atom] = compiled
        return compiled

    @staticmethod
    def _bound_for(
        op: str, bound: Fraction, is_int: bool
    ) -> tuple[bool, DeltaRational]:
        """``(is_upper, value)`` for ``v op bound``; integer variables
        tighten to integral δ-free bounds."""
        if op == "<=":
            return True, DeltaRational(_floor(bound)) if is_int else DeltaRational(bound)
        if op == "<":
            if is_int:
                return True, DeltaRational(_ceil(bound) - 1)
            return True, DeltaRational(bound, -1)
        if op == ">=":
            return False, DeltaRational(_ceil(bound)) if is_int else DeltaRational(bound)
        assert op == ">"
        if is_int:
            return False, DeltaRational(_floor(bound) + 1)
        return False, DeltaRational(bound, 1)

    # -- bound maintenance ---------------------------------------------------

    def _assert_bound(
        self, var: int, is_upper: bool, value: DeltaRational, lit: _Lit
    ) -> Optional[list[_Lit]]:
        """Tighten one bound; return the two clashing literals on an
        immediate lower/upper contradiction, ``None`` otherwise."""
        if is_upper:
            current = self._upper.get(var)
            if current is not None and current[0] <= value:
                return None  # weaker than what is already known
            other = self._lower.get(var)
            if other is not None and value < other[0]:
                return [lit, other[1]]
            self._save(self._upper, var)
            self._upper[var] = (value, lit)
            if var not in self._rows and self._assign[var] > value:
                self._update(var, value)
        else:
            current = self._lower.get(var)
            if current is not None and current[0] >= value:
                return None
            other = self._upper.get(var)
            if other is not None and value > other[0]:
                return [lit, other[1]]
            self._save(self._lower, var)
            self._lower[var] = (value, lit)
            if var not in self._rows and self._assign[var] < value:
                self._update(var, value)
        return None

    def _update(self, var: int, value: DeltaRational) -> None:
        """Move a non-basic variable, carrying every dependent basic."""
        assign = self._assign
        rows, dens = self._rows, self._dens
        delta = value - assign[var]
        for basic in self._cols.get(var, ()):
            assign[basic] = assign[basic].plus_times(delta, rows[basic][var], dens[basic])
        assign[var] = value

    # -- the simplex core ----------------------------------------------------

    def _below_upper(self, var: int) -> bool:
        """Strictly below the upper bound?"""
        bound = self._upper.get(var)
        return bound is None or self._assign[var] < bound[0]

    def _above_lower(self, var: int) -> bool:
        """Strictly above the lower bound?"""
        bound = self._lower.get(var)
        return bound is None or self._assign[var] > bound[0]

    def _simplex(self) -> Optional[list[_Lit]]:
        """Pivot to feasibility; ``None`` when feasible, otherwise the
        infeasibility explanation (a list of bound literals)."""
        assign, lower, upper = self._assign, self._lower, self._upper
        while True:
            violated: Optional[tuple[int, bool]] = None
            for basic in sorted(self._rows):
                low = lower.get(basic)
                if low is not None and assign[basic] < low[0]:
                    violated = (basic, True)
                    break
                high = upper.get(basic)
                if high is not None and assign[basic] > high[0]:
                    violated = (basic, False)
                    break
            if violated is None:
                return None
            basic, need_increase = violated
            row = self._rows[basic]
            chosen: Optional[int] = None
            for column in sorted(row):  # Bland's rule: smallest index
                coeff = row[column]
                if need_increase:
                    suitable = (coeff > 0 and self._below_upper(column)) or (
                        coeff < 0 and self._above_lower(column)
                    )
                else:
                    suitable = (coeff < 0 and self._below_upper(column)) or (
                        coeff > 0 and self._above_lower(column)
                    )
                if suitable:
                    chosen = column
                    break
            if chosen is None:
                # Every row variable is at its limiting bound: the row is
                # an inconsistent combination of exactly these bounds.
                if need_increase:
                    explanation = [lower[basic][1]]
                    for column in sorted(row):
                        side = upper if row[column] > 0 else lower
                        explanation.append(side[column][1])
                else:
                    explanation = [upper[basic][1]]
                    for column in sorted(row):
                        side = lower if row[column] > 0 else upper
                        explanation.append(side[column][1])
                return explanation
            target = lower[basic][0] if need_increase else upper[basic][0]
            self._pivot_and_update(basic, chosen, target)
            self.stats["pivots"] += 1

    def _pivot_and_update(self, basic: int, entering: int, value: DeltaRational) -> None:
        rows, dens, cols, assign = self._rows, self._dens, self._cols, self._assign
        row = rows.pop(basic)
        den = dens.pop(basic)
        coeff = row[entering]
        # ``basic = (coeff·entering + …) / den``: moving ``basic`` to
        # ``value`` moves ``entering`` by ``Δ·den/coeff``.  Assignments
        # first (they need the old column index).
        theta = (value - assign[basic]).times(den, coeff)
        assign[basic] = value
        for other in cols.get(entering, ()):
            if other != basic:
                assign[other] = assign[other].plus_times(theta, rows[other][entering], dens[other])
        assign[entering] = assign[entering] + theta
        # Structural pivot: solve ``basic``'s row for ``entering`` —
        # ``entering = (den·basic − Σ others) / coeff``, sign-normalized.
        # It is already in lowest terms: ``gcd(den, *row)`` was 1.
        for column in row:
            cols[column].discard(basic)
        sign = 1 if coeff > 0 else -1
        entering_den = coeff * sign
        entering_row: dict[int, int] = {basic: den * sign}
        for column, entry in row.items():
            if column != entering:
                entering_row[column] = -entry * sign
        width = len(entering_row)
        written = width
        # ... and substitute it into every other row that mentions it:
        # ``other = (rest + f·entering) / d`` becomes, with
        # ``g = gcd(f, entering_den)``,
        # ``((entering_den/g)·rest + (f/g)·entering_row) / (d·entering_den/g)``.
        for other in cols.pop(entering, set()):
            other_row = rows[other]
            factor = other_row.pop(entering)
            common = gcd(factor, entering_den)
            scale = entering_den // common
            factor //= common
            written += width
            if scale != 1:
                other_row = {column: entry * scale for column, entry in other_row.items()}
                written += len(other_row)
            for column, entry in entering_row.items():
                previous = other_row.get(column)
                if previous is None:
                    other_row[column] = factor * entry
                    cols.setdefault(column, set()).add(other)
                else:
                    updated = previous + factor * entry
                    if updated == 0:
                        del other_row[column]
                        cols[column].discard(other)
                    else:
                        other_row[column] = updated
            # A common factor of the result cannot divide ``scale`` (it
            # would divide the whole entering row and its denominator,
            # which are coprime), so it divides the old denominator:
            # rows over denominator 1 skip the gcd pass.
            other_den = dens[other]
            if other_den != 1:
                common = gcd(other_den, *other_row.values())
                if common != 1:
                    other_row = {column: entry // common for column, entry in other_row.items()}
                    other_den //= common
                    written += len(other_row)
            rows[other] = other_row
            dens[other] = other_den * scale
        rows[entering] = entering_row
        dens[entering] = entering_den
        for column in entering_row:
            cols.setdefault(column, set()).add(entering)
        self.stats["pivot_entries"] += written

    # -- branch and bound ----------------------------------------------------

    def _fractional_int_var(self) -> Optional[int]:
        for var, is_int in enumerate(self._is_int):
            if is_int and not self._assign[var].is_integral:
                return var
        return None

    def _push_internal(self) -> None:
        self._internal_marks.append(len(self._trail))

    def _pop_internal(self) -> None:
        self._undo_to(self._internal_marks.pop())

    #: Branch-and-bound recursion cap: each node is one Python stack
    #: frame.  ``Engine.run`` raises the recursion limit for every
    #: caller, but code that drives ``ArithTheory`` directly runs under
    #: the *default* limit (1000), so the depth stays well below it.
    #: Deeper searches degrade to ``unknown``.
    _DEPTH_LIMIT = 200

    def _branch(
        self, budget: list[int], depth: int = 0
    ) -> tuple[str, dict[tuple[Term, bool], None]]:
        """Exhaust the integer search below the current bounds; returns
        ``("sat", _)``, ``("unknown", _)`` or ``("unsat", literals)``
        where ``literals`` are the *external* bounds used by the refuted
        leaves (internal cuts resolve away)."""
        budget[0] -= 1
        if budget[0] <= 0 or depth >= self._DEPTH_LIMIT:
            return "unknown", {}
        conflict = self._simplex()
        if conflict is not None:
            return "unsat", dict.fromkeys(l for l in conflict if l is not None)
        var = self._fractional_int_var()
        if var is None:
            return "sat", {}
        cut = self._assign[var].floor()
        self.stats["branches"] += 1
        accumulated: dict[tuple[Term, bool], None] = {}
        exhausted = False
        for is_upper, bound in ((True, cut), (False, cut + 1)):
            self._push_internal()
            clash = self._assert_bound(var, is_upper, DeltaRational(bound), None)
            if clash is None:
                verdict, literals = self._branch(budget, depth + 1)
            else:
                verdict = "unsat"
                literals = dict.fromkeys(l for l in clash if l is not None)
            if verdict == "sat":
                # Keep the integral assignment: the internal cuts only
                # tightened bounds, so relaxing them on pop leaves the
                # assignment feasible.
                self._pop_internal()
                return "sat", {}
            self._pop_internal()
            if verdict == "unknown":
                exhausted = True
            else:
                accumulated.update(literals)
        if exhausted:
            return "unknown", {}
        return "unsat", accumulated

    # -- the Theory interface ------------------------------------------------

    def assert_literal(self, atom: Term, positive: bool) -> Optional[TheoryConflict]:
        if self._conflict is not None:
            return self._conflict
        self.stats["literals"] += 1
        assert isinstance(atom, Apply), f"not an arithmetic atom: {atom!r}"
        compiled = self._compile(atom)
        if compiled[0] == "const":
            if compiled[1] != positive:
                self._set_conflict(TheoryConflict(((atom, positive),), source=self.name))
            return self._conflict
        _, var, positive_bound, negative_bound = compiled
        is_upper, value = positive_bound if positive else negative_bound
        clash = self._assert_bound(var, is_upper, value, (atom, positive))
        if clash is not None:
            literals = tuple(l for l in clash if l is not None)
            self._set_conflict(TheoryConflict(literals, source=self.name))
        return self._conflict

    def check(self) -> Optional[TheoryConflict]:
        if self._conflict is not None:
            return self._conflict
        self.stats["checks"] += 1
        self._incomplete = False
        conflict = self._simplex()
        if conflict is not None:
            literals = tuple(dict.fromkeys(l for l in conflict if l is not None))
            if not literals:  # defensive: never ship an empty explanation
                self._incomplete = True
                return None
            self._set_conflict(TheoryConflict(literals, source=self.name))
            return self._conflict
        if self._fractional_int_var() is None:
            return None
        with trace_span("branch-and-bound", merge=True):
            verdict, accumulated = self._branch([self._branch_limit])
        if verdict == "unsat" and accumulated:
            self._set_conflict(TheoryConflict(tuple(accumulated), source=self.name))
            return self._conflict
        if verdict != "sat":
            self._incomplete = True
            self.stats["bb_exhausted"] += 1
        return None

    def model(self, allocator: SortValueAllocator) -> Optional[TheoryModel]:
        """Concrete rational/integer values: the simplex assignment with
        δ instantiated small enough to honor every strict bound."""
        if self._conflict is not None or self._incomplete:
            return None
        if self._simplex() is not None or self._fractional_int_var() is not None:
            return None  # pragma: no cover - defensive; check() runs first
        delta = self._delta_value()
        model = TheoryModel()
        for symbol, var in self._var_of.items():
            value = self._assign[var]
            exact = value.real + value.delta * delta
            if self._is_int[var]:
                if exact.denominator != 1:
                    return None  # pragma: no cover - defensive
                constant = int_const(int(exact))
            else:
                constant = Constant(exact, REAL)
            allocator.reserve(constant)
            model.values[symbol.name] = constant
        return model

    def incomplete_reason(self) -> Optional[str]:
        if self._incomplete:
            return "branch-budget-exhausted"
        return None

    def _delta_value(self) -> Fraction:
        """A concrete positive δ preserving every bound comparison once
        substituted: for each ``a₁ + b₁δ ≤ a₂ + b₂δ`` with ``b₁ > b₂``
        the substitution stays true for δ up to ``(a₂ − a₁)/(b₁ − b₂)``."""
        delta = Fraction(1)
        for var, value in enumerate(self._assign):
            low = self._lower.get(var)
            if low is not None:
                bound = low[0]
                if bound.real < value.real and bound.delta > value.delta:
                    delta = min(
                        delta,
                        (value.real - bound.real) / (bound.delta - value.delta),
                    )
            high = self._upper.get(var)
            if high is not None:
                bound = high[0]
                if value.real < bound.real and value.delta > bound.delta:
                    delta = min(
                        delta,
                        (bound.real - value.real) / (value.delta - bound.delta),
                    )
        return delta

    # -- introspection -------------------------------------------------------

    def assignment(self) -> dict[Symbol, DeltaRational]:
        """The current (δ-symbolic) assignment per script symbol, for
        tests and debugging."""
        return {symbol: self._assign[var] for symbol, var in self._var_of.items()}

    def tableau_size(self) -> tuple[int, int]:
        """``(variables, basic rows)`` — the live tableau dimensions."""
        return len(self._assign), len(self._rows)


__all__ = ["ArithTheory", "DeltaRational"]

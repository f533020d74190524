"""Eager bit-blasting: QF_BV atoms → boolean circuits.

Unlike the lazy plugins (:class:`~repro.theory.arith.ArithTheory`,
:class:`~repro.theory.euf.EufTheory`), bit-vector reasoning is handled
*eagerly*: :class:`BvBlaster` rewrites every supported bit-vector atom
into a pure boolean term over fresh *bit symbols* (one per bit of every
bit-vector variable) **before** Tseitin encoding.  The rewritten skeleton
flows through the unchanged CNF/SAT pipeline, so

* blasted clauses are ordinary *input* clauses of the proof log — a BV
  ``unsat`` is fully RUP-certified by the independent checker with no
  trusted lemma steps, and
* the incremental engine's term-keyed memoization applies: a
  ``check-sat`` after ``push``/``pop`` re-blasts and re-encodes nothing
  for unchanged assertions.

The circuit constructors mirror :func:`repro.smtlib.evaluate.fold_apply`
operation by operation (ripple-carry adder, shift-add multiplier,
restoring divider with the SMT-LIB total semantics for division by zero,
barrel shifters with the ``shift >= width`` clamp, the signed
``bvsdiv``/``bvsrem``/``bvsmod`` definitional expansions), which makes
``fold_apply`` the blaster's semantic oracle: every ``sat`` model is
validated by evaluating the *pre-blast* assertions, so the circuits are
cross-checked against the reference semantics on every run, and the
differential fuzzer compares both against exhaustive enumeration.

Atoms whose bit-vector leaves are not plain symbols or constants (an
uninterpreted application, an array ``select`` ...) are left untouched;
they stay ordinary atoms for the lazy plugins or remain abstracted, which
keeps every answer sound.
"""

from __future__ import annotations

from typing import Optional

from ..smtlib.cnf import is_connective
from ..smtlib.sorts import BOOL, is_bitvec
from ..smtlib.terms import (
    FALSE,
    TRUE,
    Apply,
    Constant,
    Symbol,
    Term,
    bitvec_const,
    negate,
)

#: Bit-symbol name marker: bit ``i`` of symbol ``x`` is ``x!bv!i``.  The
#: ``!`` keeps generated names out of the plain-symbol lexical space, so
#: they cannot collide with script-declared identifiers.
BIT_MARKER = "!bv!"

#: Widths past this are not blasted (the circuits grow quadratically for
#: multiplication/division); the atom stays abstracted instead.
MAX_BLAST_WIDTH = 256

_UNSIGNED_CMP = {"bvult": False, "bvule": True, "bvugt": False, "bvuge": True}
_SIGNED_CMP = frozenset({"bvslt", "bvsle", "bvsgt", "bvsge"})


class _Unsupported(Exception):
    """Internal control flow: the atom leaves the supported fragment."""


class BvBlaster:
    """Rewrites boolean skeletons, lowering bit-vector atoms to circuits.

    One instance lives as long as the engine: the word memo (term → bit
    list) and the atom memo survive ``push``/``pop``, so incremental
    re-checks re-blast nothing, and :meth:`decode` can read back every
    bit-vector variable's value from any later SAT model.
    """

    name = "bv"

    def __init__(self, max_width: int = MAX_BLAST_WIDTH) -> None:
        self.max_width = max_width
        self.stats: dict[str, int] = {
            "atoms_blasted": 0,
            "atoms_skipped": 0,
            "symbols": 0,
            "bits": 0,
            "gates": 0,
        }
        #: symbol name → (width, LSB-first bit symbols).
        self._symbol_bits: dict[str, tuple[int, tuple[Symbol, ...]]] = {}
        self._bit_names: set[str] = set()
        self._word_memo: dict[Term, list[Term]] = {}
        self._atom_memo: dict[Term, Optional[Term]] = {}
        self._skeleton_memo: dict[Term, Term] = {}

    # -- public surface -----------------------------------------------------

    def rewrite(self, term: Term) -> Term:
        """Rewrite a boolean skeleton: connectives are traversed, each
        bit-vector atom becomes its circuit, every other atom survives."""
        cached = self._skeleton_memo.get(term)
        if cached is not None:
            return cached
        if is_connective(term):
            assert isinstance(term, Apply)
            args = tuple(self.rewrite(arg) for arg in term.args)
            result = (
                term
                if args == term.args
                else Apply(term.op, args, term.sort, term.indices)
            )
        else:
            result = self._blast_atom(term)
        self._skeleton_memo[term] = result
        return result

    def is_bit(self, name: str) -> bool:
        """True for generated bit-symbol names (hidden from models)."""
        return name in self._bit_names

    def decode(self, model: dict[str, Constant]) -> dict[str, Constant]:
        """Read every blasted symbol's value out of a boolean model.

        Bits absent from the model (simplified away by constant folding)
        are don't-cares and read as 0."""
        out: dict[str, Constant] = {}
        for name, (width, bits) in self._symbol_bits.items():
            value = 0
            for position, bit in enumerate(bits):
                if model.get(bit.name) is TRUE:
                    value |= 1 << position
            out[name] = bitvec_const(value, width)
        return out

    # -- atom lowering ------------------------------------------------------

    def _blast_atom(self, atom: Term) -> Term:
        if atom in self._atom_memo:
            cached = self._atom_memo[atom]
            return atom if cached is None else cached
        result = self._try_blast(atom)
        self._atom_memo[atom] = result
        if result is None:
            if self._mentions_bitvec(atom):
                self.stats["atoms_skipped"] += 1
            return atom
        self.stats["atoms_blasted"] += 1
        return result

    @staticmethod
    def _mentions_bitvec(atom: Term) -> bool:
        return any(is_bitvec(node.sort) for node in atom.nodes())

    def _try_blast(self, atom: Term) -> Optional[Term]:
        if not isinstance(atom, Apply) or atom.indices:
            return None
        try:
            if atom.op == "=" and len(atom.args) >= 2 and is_bitvec(atom.args[0].sort):
                words = [self._bits(arg) for arg in atom.args]
                result = TRUE
                for left, right in zip(words, words[1:]):
                    result = self._and(result, self._word_eq(left, right))
                return result
            if atom.op in _UNSIGNED_CMP and len(atom.args) == 2:
                if not is_bitvec(atom.args[0].sort):
                    return None
                return self._unsigned_cmp(atom.op, *atom.args)
            if atom.op in _SIGNED_CMP and len(atom.args) == 2:
                if not is_bitvec(atom.args[0].sort):
                    return None
                return self._signed_cmp(atom.op, *atom.args)
        except _Unsupported:
            return None
        return None

    def _unsigned_cmp(self, op: str, lhs: Term, rhs: Term) -> Term:
        xs, ys = self._bits(lhs), self._bits(rhs)
        if op in ("bvugt", "bvuge"):
            xs, ys = ys, xs  # a > b  ≡  b < a
        less = self._ult(xs, ys)
        if _UNSIGNED_CMP[op]:  # non-strict: a <= b ≡ ¬(b < a)
            return negate(self._ult(ys, xs))
        return less

    def _signed_cmp(self, op: str, lhs: Term, rhs: Term) -> Term:
        xs, ys = self._bits(lhs), self._bits(rhs)
        if op in ("bvsgt", "bvsge"):
            xs, ys = ys, xs
            op = {"bvsgt": "bvslt", "bvsge": "bvsle"}[op]
        if op == "bvsle":
            return negate(self._slt(ys, xs))
        return self._slt(xs, ys)

    # -- word construction ---------------------------------------------------

    def _bits(self, term: Term) -> list[Term]:
        """The LSB-first boolean bit list of a bit-vector term."""
        cached = self._word_memo.get(term)
        if cached is not None:
            return cached
        result = self._bits_of(term)
        if len(result) > self.max_width:
            raise _Unsupported(term)
        self._word_memo[term] = result
        return result

    def _bits_of(self, term: Term) -> list[Term]:
        if not is_bitvec(term.sort):
            raise _Unsupported(term)
        width = term.sort.width
        if isinstance(term, Constant):
            if not isinstance(term.value, int):
                raise _Unsupported(term)
            return [
                TRUE if (term.value >> i) & 1 else FALSE for i in range(width)
            ]
        if isinstance(term, Symbol):
            return list(self._symbol_word(term.name, width))
        if not isinstance(term, Apply):
            raise _Unsupported(term)
        op, args = term.op, term.args
        if term.indices:
            return self._indexed(term)
        if op in ("bvadd", "bvmul", "bvand", "bvor", "bvxor"):
            acc = self._bits(args[0])
            for arg in args[1:]:
                rhs = self._bits(arg)
                if op == "bvadd":
                    acc = self._add(acc, rhs)
                elif op == "bvmul":
                    acc = self._mul(acc, rhs)
                else:
                    gate = {"bvand": self._and, "bvor": self._or, "bvxor": self._xor}[op]
                    acc = [gate(x, y) for x, y in zip(acc, rhs)]
            return acc
        if op == "bvnot":
            return [negate(b) for b in self._bits(args[0])]
        if op == "bvneg":
            return self._neg(self._bits(args[0]))
        if op == "bvsub":
            xs, ys = self._bits(args[0]), self._bits(args[1])
            return self._add(xs, [negate(y) for y in ys], carry=TRUE)
        if op in ("bvudiv", "bvurem"):
            quotient, remainder = self._udivrem(
                self._bits(args[0]), self._bits(args[1])
            )
            return quotient if op == "bvudiv" else remainder
        if op in ("bvsdiv", "bvsrem", "bvsmod"):
            return self._signed_divrem(
                op, self._bits(args[0]), self._bits(args[1])
            )
        if op in ("bvshl", "bvlshr", "bvashr"):
            return self._shift(op, self._bits(args[0]), self._bits(args[1]))
        if op == "concat":
            out: list[Term] = []
            for arg in reversed(args):  # the last operand is least significant
                out.extend(self._bits(arg))
            return out
        if op == "ite" and len(args) == 3:
            condition = self.rewrite(args[0])
            then_bits = self._bits(args[1])
            else_bits = self._bits(args[2])
            return [
                self._ite(condition, t, e)
                for t, e in zip(then_bits, else_bits)
            ]
        raise _Unsupported(term)

    def _indexed(self, term: Apply) -> list[Term]:
        op, indices = term.op, term.indices
        bits = self._bits(term.args[0]) if term.args else []
        width = len(bits)
        if op == "extract":
            high, low = indices
            return bits[low : high + 1]
        if op == "zero_extend":
            return bits + [FALSE] * indices[0]
        if op == "sign_extend":
            return bits + [bits[-1]] * indices[0]
        if op == "rotate_left":
            k = indices[0] % width
            return bits[width - k :] + bits[: width - k] if k else bits
        if op == "rotate_right":
            k = indices[0] % width
            return bits[k:] + bits[:k] if k else bits
        if op == "repeat":
            return bits * indices[0]
        raise _Unsupported(term)

    def _symbol_word(self, name: str, width: int) -> tuple[Symbol, ...]:
        entry = self._symbol_bits.get(name)
        if entry is not None:
            assert entry[0] == width, f"width clash for {name}"
            return entry[1]
        bits = tuple(
            Symbol(f"{name}{BIT_MARKER}{i}", BOOL) for i in range(width)
        )
        self._symbol_bits[name] = (width, bits)
        self._bit_names.update(bit.name for bit in bits)
        self.stats["symbols"] += 1
        self.stats["bits"] += width
        return bits

    # -- gate constructors (constant-folding) --------------------------------

    def _and(self, a: Term, b: Term) -> Term:
        if a is FALSE or b is FALSE:
            return FALSE
        if a is TRUE:
            return b
        if b is TRUE or a is b:
            return a
        self.stats["gates"] += 1
        return Apply("and", (a, b), BOOL)

    def _or(self, a: Term, b: Term) -> Term:
        if a is TRUE or b is TRUE:
            return TRUE
        if a is FALSE:
            return b
        if b is FALSE or a is b:
            return a
        self.stats["gates"] += 1
        return Apply("or", (a, b), BOOL)

    def _xor(self, a: Term, b: Term) -> Term:
        if a is FALSE:
            return b
        if b is FALSE:
            return a
        if a is TRUE:
            return negate(b)
        if b is TRUE:
            return negate(a)
        if a is b:
            return FALSE
        self.stats["gates"] += 1
        return Apply("xor", (a, b), BOOL)

    def _iff(self, a: Term, b: Term) -> Term:
        return negate(self._xor(a, b))

    def _ite(self, c: Term, t: Term, e: Term) -> Term:
        if c is TRUE:
            return t
        if c is FALSE:
            return e
        if t is e:
            return t
        if t is TRUE and e is FALSE:
            return c
        if t is FALSE and e is TRUE:
            return negate(c)
        if t is TRUE:
            return self._or(c, e)
        if t is FALSE:
            return self._and(negate(c), e)
        if e is FALSE:
            return self._and(c, t)
        if e is TRUE:
            return self._or(negate(c), t)
        self.stats["gates"] += 1
        return Apply("ite", (c, t, e), BOOL)

    # -- word-level circuits -------------------------------------------------

    def _word_eq(self, xs: list[Term], ys: list[Term]) -> Term:
        result = TRUE
        for x, y in zip(xs, ys):
            result = self._and(result, self._iff(x, y))
        return result

    def _add(self, xs: list[Term], ys: list[Term], carry: Term = FALSE) -> list[Term]:
        out = []
        for x, y in zip(xs, ys):
            partial = self._xor(x, y)
            out.append(self._xor(partial, carry))
            carry = self._or(self._and(x, y), self._and(partial, carry))
        return out

    def _neg(self, xs: list[Term]) -> list[Term]:
        return self._add(
            [negate(x) for x in xs], [FALSE] * len(xs), carry=TRUE
        )

    def _mul(self, xs: list[Term], ys: list[Term]) -> list[Term]:
        width = len(xs)
        acc: list[Term] = [FALSE] * width
        for shift, y in enumerate(ys):
            if y is FALSE:
                continue
            partial = [FALSE] * shift + [
                self._and(y, x) for x in xs[: width - shift]
            ]
            acc = self._add(acc, partial)
        return acc

    def _ult(self, xs: list[Term], ys: list[Term]) -> Term:
        # Borrow chain of xs - ys: a final borrow means xs < ys.
        borrow: Term = FALSE
        for x, y in zip(xs, ys):
            same = self._iff(x, y)
            borrow = self._or(
                self._and(negate(x), y), self._and(same, borrow)
            )
        return borrow

    def _slt(self, xs: list[Term], ys: list[Term]) -> Term:
        sign_x, sign_y = xs[-1], ys[-1]
        # Different signs: the negative side (sign bit 1) is smaller.
        return self._ite(
            self._xor(sign_x, sign_y), sign_x, self._ult(xs, ys)
        )

    def _shift(self, op: str, xs: list[Term], amount: list[Term]) -> list[Term]:
        width = len(xs)
        sign = xs[-1]
        fill: Term = sign if op == "bvashr" else FALSE
        result = list(xs)
        overflow: Term = FALSE
        for stage, bit in enumerate(amount):
            step = 1 << stage
            if step >= width:
                # This amount bit alone shifts everything out.
                overflow = self._or(overflow, bit)
                continue
            if op == "bvshl":
                shifted = [
                    result[i - step] if i >= step else FALSE
                    for i in range(width)
                ]
            else:
                shifted = [
                    result[i + step] if i + step < width else fill
                    for i in range(width)
                ]
            result = [
                self._ite(bit, s, r) for s, r in zip(shifted, result)
            ]
        return [self._ite(overflow, fill, r) for r in result]

    def _udivrem(
        self, xs: list[Term], ys: list[Term]
    ) -> tuple[list[Term], list[Term]]:
        """Restoring division; SMT-LIB totality: x/0 = all-ones, x%0 = x."""
        width = len(xs)
        divisor = ys + [FALSE]  # one headroom bit for the trial subtraction
        remainder: list[Term] = [FALSE] * (width + 1)
        quotient: list[Term] = [FALSE] * width
        for i in reversed(range(width)):
            remainder = [xs[i]] + remainder[:width]
            fits = negate(self._ult(remainder, divisor))
            difference = self._add(
                remainder, [negate(d) for d in divisor], carry=TRUE
            )
            remainder = [
                self._ite(fits, d, r)
                for d, r in zip(difference, remainder)
            ]
            quotient[i] = fits
        zero_divisor = TRUE
        for y in ys:
            zero_divisor = self._and(zero_divisor, negate(y))
        quotient = [self._ite(zero_divisor, TRUE, q) for q in quotient]
        remainder = [
            self._ite(zero_divisor, x, r)
            for x, r in zip(xs, remainder[:width])
        ]
        return quotient, remainder

    def _signed_divrem(
        self, op: str, xs: list[Term], ys: list[Term]
    ) -> list[Term]:
        """The SMT-LIB definitional expansions over ``bvudiv``/``bvurem``
        (mirrors ``_fold_bv_signed`` in the evaluator)."""
        sign_x, sign_y = xs[-1], ys[-1]
        abs_x = [self._ite(sign_x, n, x) for n, x in zip(self._neg(xs), xs)]
        abs_y = [self._ite(sign_y, n, y) for n, y in zip(self._neg(ys), ys)]
        quotient, remainder = self._udivrem(abs_x, abs_y)
        if op == "bvsdiv":
            flip = self._xor(sign_x, sign_y)
            negated = self._neg(quotient)
            return [self._ite(flip, n, q) for n, q in zip(negated, quotient)]
        if op == "bvsrem":
            negated = self._neg(remainder)
            return [
                self._ite(sign_x, n, r) for n, r in zip(negated, remainder)
            ]
        # bvsmod: the result takes the divisor's sign.
        rem_zero = TRUE
        for r in remainder:
            rem_zero = self._and(rem_zero, negate(r))
        same_sign = self._iff(sign_x, sign_y)
        both_negative = self._and(sign_x, sign_y)
        negated = self._neg(remainder)
        plain = [
            self._ite(both_negative, n, r)
            for n, r in zip(negated, remainder)
        ]
        adjusted_neg = self._add(
            ys, [negate(r) for r in remainder], carry=TRUE
        )  # t - urem
        adjusted_pos = self._add(remainder, ys)  # urem + t
        mixed = [
            self._ite(sign_x, a, b)
            for a, b in zip(adjusted_neg, adjusted_pos)
        ]
        take_plain = self._or(rem_zero, same_sign)
        return [self._ite(take_plain, p, m) for p, m in zip(plain, mixed)]


__all__ = ["BvBlaster", "BIT_MARKER", "MAX_BLAST_WIDTH"]

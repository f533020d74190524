"""Tests for eager bit-blasting: the QF_BV path.

Two layers of assurance:

* **Circuit-vs-oracle** — every circuit the blaster builds is checked
  exhaustively against :func:`repro.smtlib.evaluate.fold_apply` at small
  widths: for every input pair, the blasted atom must evaluate ``true``
  exactly on the operator's reference result and ``false`` on a wrong
  one.  This covers the adder, multiplier, restoring divider (including
  the SMT-LIB division-by-zero totality), barrel shifters, signed
  expansions, comparisons and the structural/indexed operators.
* **Engine cross-checks** — QF_BV scripts through the full stack:
  sat/unsat answers, certified proofs (blasted clauses are input clauses,
  so every unsat is RUP-checkable), model decoding with bit symbols kept
  out of models, incremental push/pop, and per-check metrics.
"""

import pytest

from repro import solve_script
from repro.proof import check_proof
from repro.smtlib import (
    BOOL,
    Apply,
    Symbol,
    bitvec_const,
    bitvec_sort,
    bool_const,
    evaluate,
    fold_apply,
)
from repro.theory import BvBlaster
from repro.theory.bv import BIT_MARKER

# ---------------------------------------------------------------------------
# Circuit-vs-oracle exhaustive checks.
# ---------------------------------------------------------------------------


def bv_sym(name: str, width: int) -> Symbol:
    return Symbol(name, bitvec_sort(width))


def bit_bindings(values: dict[str, tuple[int, int]]) -> dict:
    """Bindings for every bit symbol of ``name -> (value, width)``."""
    env = {}
    for name, (value, width) in values.items():
        for i in range(width):
            env[f"{name}{BIT_MARKER}{i}"] = bool_const(bool((value >> i) & 1))
    return env


def assert_circuit_matches(blaster, atom, env, expected: bool, context: str):
    circuit = blaster.rewrite(atom)
    got = evaluate(circuit, env).value
    assert got is expected, f"{context}: circuit={got}, oracle={expected}"


WORD_OPS = [
    "bvadd",
    "bvsub",
    "bvmul",
    "bvand",
    "bvor",
    "bvxor",
    "bvudiv",
    "bvurem",
    "bvsdiv",
    "bvsrem",
    "bvsmod",
    "bvshl",
    "bvlshr",
    "bvashr",
]

CMP_OPS = ["bvult", "bvule", "bvugt", "bvuge", "bvslt", "bvsle", "bvsgt", "bvsge"]


@pytest.mark.parametrize("op", WORD_OPS)
@pytest.mark.parametrize("width", [1, 2, 3])
def test_binary_word_circuit_exhaustive(op, width):
    blaster = BvBlaster()
    x, y = bv_sym("x", width), bv_sym("y", width)
    sort = bitvec_sort(width)
    term = Apply(op, (x, y), sort)
    for xv in range(1 << width):
        for yv in range(1 << width):
            env = bit_bindings({"x": (xv, width), "y": (yv, width)})
            oracle = fold_apply(
                op, (), (bitvec_const(xv, width), bitvec_const(yv, width)), sort
            )
            assert oracle is not None, f"oracle cannot fold {op}"
            expected = oracle.value
            for probe in range(1 << width):
                atom = Apply("=", (term, bitvec_const(probe, width)), BOOL)
                assert_circuit_matches(
                    blaster,
                    atom,
                    env,
                    probe == expected,
                    f"{op} width={width} x={xv} y={yv} probe={probe}",
                )


@pytest.mark.parametrize("op", CMP_OPS)
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_comparison_circuit_exhaustive(op, width):
    blaster = BvBlaster()
    x, y = bv_sym("x", width), bv_sym("y", width)
    atom = Apply(op, (x, y), BOOL)
    for xv in range(1 << width):
        for yv in range(1 << width):
            env = bit_bindings({"x": (xv, width), "y": (yv, width)})
            oracle = fold_apply(
                op, (), (bitvec_const(xv, width), bitvec_const(yv, width)), BOOL
            )
            assert_circuit_matches(
                blaster,
                atom,
                env,
                oracle.value,
                f"{op} width={width} x={xv} y={yv}",
            )


@pytest.mark.parametrize("op", ["bvnot", "bvneg"])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_unary_circuit_exhaustive(op, width):
    blaster = BvBlaster()
    x = bv_sym("x", width)
    sort = bitvec_sort(width)
    term = Apply(op, (x,), sort)
    for xv in range(1 << width):
        env = bit_bindings({"x": (xv, width)})
        expected = fold_apply(op, (), (bitvec_const(xv, width),), sort).value
        for probe in range(1 << width):
            atom = Apply("=", (term, bitvec_const(probe, width)), BOOL)
            assert_circuit_matches(
                blaster, atom, env, probe == expected, f"{op} x={xv} probe={probe}"
            )


INDEXED_CASES = [
    ("extract", (2, 1), 4, 2),
    ("extract", (3, 0), 4, 4),
    ("zero_extend", (2,), 3, 5),
    ("sign_extend", (2,), 3, 5),
    ("rotate_left", (1,), 4, 4),
    ("rotate_right", (3,), 4, 4),
    ("repeat", (2,), 3, 6),
]


@pytest.mark.parametrize(
    "op,indices,width,out_width", INDEXED_CASES, ids=lambda v: str(v)
)
def test_indexed_circuit_exhaustive(op, indices, width, out_width):
    blaster = BvBlaster()
    x = bv_sym("x", width)
    sort = bitvec_sort(out_width)
    term = Apply(op, (x,), sort, indices=tuple(indices))
    for xv in range(1 << width):
        env = bit_bindings({"x": (xv, width)})
        expected = fold_apply(
            op, tuple(indices), (bitvec_const(xv, width),), sort
        ).value
        for probe in range(1 << out_width):
            atom = Apply("=", (term, bitvec_const(probe, out_width)), BOOL)
            assert_circuit_matches(
                blaster,
                atom,
                env,
                probe == expected,
                f"{op}{indices} x={xv} probe={probe}",
            )


def test_concat_circuit_exhaustive():
    blaster = BvBlaster()
    x, y = bv_sym("x", 2), bv_sym("y", 3)
    sort = bitvec_sort(5)
    term = Apply("concat", (x, y), sort)
    for xv in range(4):
        for yv in range(8):
            env = bit_bindings({"x": (xv, 2), "y": (yv, 3)})
            expected = (xv << 3) | yv
            for probe in range(32):
                atom = Apply("=", (term, bitvec_const(probe, 5)), BOOL)
                assert_circuit_matches(
                    blaster, atom, env, probe == expected, f"concat {xv} {yv}"
                )


def test_ite_condition_is_rewritten():
    """The condition of a bit-vector ``ite`` is itself a BV atom and must
    blast along with the branches."""
    blaster = BvBlaster()
    x, y = bv_sym("x", 2), bv_sym("y", 2)
    sort = bitvec_sort(2)
    cond = Apply("bvult", (x, y), BOOL)
    term = Apply("ite", (cond, x, y), sort)  # min(x, y)
    for xv in range(4):
        for yv in range(4):
            env = bit_bindings({"x": (xv, 2), "y": (yv, 2)})
            expected = min(xv, yv)
            atom = Apply("=", (term, bitvec_const(expected, 2)), BOOL)
            assert_circuit_matches(
                blaster, atom, env, True, f"ite-min {xv} {yv}"
            )


def test_nary_equality_chains():
    blaster = BvBlaster()
    x, y, z = bv_sym("x", 2), bv_sym("y", 2), bv_sym("z", 2)
    atom = Apply("=", (x, y, z), BOOL)
    for xv in range(4):
        for yv in range(4):
            for zv in range(4):
                env = bit_bindings(
                    {"x": (xv, 2), "y": (yv, 2), "z": (zv, 2)}
                )
                assert_circuit_matches(
                    blaster, atom, env, xv == yv == zv, f"= {xv} {yv} {zv}"
                )


def test_unsupported_leaves_stay_abstracted():
    """Atoms over non-symbol BV leaves survive unchanged (sound fallback)."""
    blaster = BvBlaster()
    w = bitvec_sort(4)
    ux = Apply("f", (bv_sym("x", 4),), w)  # uninterpreted application
    atom = Apply("=", (ux, bitvec_const(0, 4)), BOOL)
    assert blaster.rewrite(atom) is atom
    assert blaster.stats["atoms_skipped"] == 1


def test_decode_reads_back_words():
    blaster = BvBlaster()
    x = bv_sym("x", 3)
    atom = Apply("=", (x, bitvec_const(5, 3)), BOOL)
    blaster.rewrite(atom)
    model = {
        f"x{BIT_MARKER}0": bool_const(True),
        f"x{BIT_MARKER}2": bool_const(True),
        # bit 1 absent: don't-care bits read as 0
    }
    decoded = blaster.decode(model)
    assert decoded["x"] == bitvec_const(5, 3)
    assert blaster.is_bit(f"x{BIT_MARKER}1")
    assert not blaster.is_bit("x")


# ---------------------------------------------------------------------------
# Engine cross-checks.
# ---------------------------------------------------------------------------


def answers(script, **kw):
    return [check.answer for check in solve_script(script, **kw)]


class TestEngine:
    def test_sat_with_decoded_model(self):
        checks = solve_script(
            "(declare-const x (_ BitVec 8))"
            "(declare-const y (_ BitVec 8))"
            "(assert (= (bvadd x y) #x2a))"
            "(assert (bvult x y))"
            "(check-sat)"
        )
        assert checks[0].answer == "sat"
        model = checks[0].model
        xv, yv = model["x"].value, model["y"].value
        assert (xv + yv) % 256 == 0x2A
        assert xv < yv
        assert all(BIT_MARKER not in name for name in model)

    def test_unsat_is_certified(self):
        checks = solve_script(
            "(declare-const x (_ BitVec 6))"
            "(assert (bvult x #b000000))"
            "(check-sat)",
            produce_proofs=True,
        )
        assert checks[0].answer == "unsat"
        assert checks[0].proof is not None
        assert check_proof(checks[0].proof).ok

    def test_adder_commutes_certified(self):
        checks = solve_script(
            "(declare-const x (_ BitVec 5))"
            "(declare-const y (_ BitVec 5))"
            "(assert (not (= (bvadd x y) (bvadd y x))))"
            "(check-sat)",
            produce_proofs=True,
        )
        assert checks[0].answer == "unsat"
        assert check_proof(checks[0].proof).ok

    def test_mul_distributes_certified(self):
        checks = solve_script(
            "(declare-const a (_ BitVec 4))"
            "(declare-const b (_ BitVec 4))"
            "(declare-const c (_ BitVec 4))"
            "(assert (not (= (bvmul a (bvadd b c))"
            "                (bvadd (bvmul a b) (bvmul a c)))))"
            "(check-sat)",
            produce_proofs=True,
        )
        assert checks[0].answer == "unsat"
        assert check_proof(checks[0].proof).ok

    def test_division_by_zero_totality(self):
        assert answers(
            "(declare-const x (_ BitVec 4))"
            "(assert (not (= (bvudiv x #x0) #xf)))"
            "(check-sat)"
        ) == ["unsat"]
        assert answers(
            "(declare-const x (_ BitVec 4))"
            "(assert (not (= (bvurem x #x0) x)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_incremental_push_pop(self):
        assert answers(
            "(declare-const x (_ BitVec 4))"
            "(assert (bvule #x3 x))"
            "(check-sat)"
            "(push 1)"
            "(assert (bvult x #x2))"
            "(check-sat)"
            "(pop 1)"
            "(check-sat)"
        ) == ["sat", "unsat", "sat"]

    def test_incremental_reencode_is_free(self):
        checks = solve_script(
            "(declare-const x (_ BitVec 8))"
            "(assert (= (bvmul x x) #x40))"
            "(check-sat)"
            "(push 1)(check-sat)(pop 1)"
            "(check-sat)"
        )
        assert [c.answer for c in checks] == ["sat"] * 3
        # The blaster memo survives push/pop: later checks re-blast nothing.
        assert checks[1].metrics["theory.bv.atoms_blasted"] == 0
        assert checks[2].metrics["theory.bv.atoms_blasted"] == 0

    def test_metrics_exposed_per_check(self):
        checks = solve_script(
            "(declare-const x (_ BitVec 4))"
            "(assert (bvult x #x5))"
            "(check-sat)"
        )
        metrics = checks[0].metrics
        assert metrics["theory.bv.atoms_blasted"] >= 1
        assert metrics["theory.bv.symbols"] == 1
        assert metrics["theory.bv.bits"] == 4

    def test_mixed_bool_structure(self):
        assert answers(
            "(declare-const x (_ BitVec 3))"
            "(declare-const p Bool)"
            "(assert (or p (bvuge x #b101)))"
            "(assert (not p))"
            "(assert (bvult x #b110))"
            "(check-sat)"
        ) == ["sat"]

    def test_get_value_over_bv_terms(self):
        from repro import run_script

        result = run_script(
            "(declare-const x (_ BitVec 4))"
            "(assert (= x #x9))"
            "(check-sat)"
            "(get-value (x (bvadd x #x1)))"
        )
        printed = " ".join(result.output)
        assert "#x9" in printed
        assert "#xa" in printed

    def test_signed_comparison_engine(self):
        # #b100 is -4 signed: smaller than every non-negative value.
        assert answers(
            "(declare-const x (_ BitVec 3))"
            "(assert (bvslt x #b000))"
            "(assert (bvuge x #b100))"
            "(check-sat)"
        ) == ["sat"]

    def test_wide_width_stays_abstracted_but_sound(self):
        # 300 bits exceeds MAX_BLAST_WIDTH: the atom is not blasted, the
        # answer degrades to unknown instead of guessing.
        checks = solve_script(
            "(declare-const x (_ BitVec 300))"
            "(assert (= x x))"
            "(check-sat)"
        )
        assert checks[0].answer in ("sat", "unknown")

"""Tests for the lazy arrays plugin (extensional select/store).

Three layers of assurance:

* **Unit tests** drive :class:`ArraysTheory` directly: read-over-write
  propagation, extensionality witnesses, provenance-rewritten conflicts
  and push/pop rollback on the shared e-graph.
* **Engine cross-checks** — QF_AX-style scripts through the full DPLL(T)
  stack: store-chain reasoning, symbolic index case splits shipped as
  theory lemmas, certified unsat proofs, unsat cores, incremental
  push/pop and boolean element sorts.
* **Soundness of the validation net** — the array-aware evaluator rejects
  models that violate the array axioms, so incomplete corners demote to
  ``unknown`` instead of answering a wrong ``sat``.
"""

import pytest

from repro import Engine, run_script, solve_script
from repro.proof import check_proof
from repro.smtlib import (
    BOOL,
    INT,
    Apply,
    Symbol,
    array_sort,
    int_const,
    parse_script,
    uninterpreted_sort,
)
from repro.theory import ArraysState, ArraysTheory

I = uninterpreted_sort("I")
AII = array_sort(I, INT)


def sym(name, sort):
    return Symbol(name, sort)


def eq(a, b):
    return Apply("=", (a, b), BOOL)


def select(a, i):
    return Apply("select", (a, i), a.sort.element(1))


def store(a, i, v):
    return Apply("store", (a, i, v), a.sort)


# ---------------------------------------------------------------------------
# Plugin unit tests.
# ---------------------------------------------------------------------------


class TestPlugin:
    def test_row1_read_own_write(self):
        t = ArraysTheory()
        a, i = sym("a", AII), sym("i", I)
        atom = eq(select(store(a, i, int_const(5)), i), int_const(5))
        t.push()
        conflict = t.assert_literal(atom, False)
        # RoW-1 forces the read to 5; denying the equality conflicts.
        assert conflict is not None
        assert (atom, False) in conflict.literals

    def test_conflict_hides_internal_axioms(self):
        t = ArraysTheory()
        a, i = sym("a", AII), sym("i", I)
        atom = eq(select(store(a, i, int_const(5)), i), int_const(5))
        t.push()
        conflict = t.assert_literal(atom, False)
        # Provenance rewriting: explanations only mention trail literals.
        assert set(conflict.literals) <= {(atom, False)}

    def test_congruent_indices_propagate(self):
        t = ArraysTheory()
        a = sym("a", AII)
        i, j = sym("i", I), sym("j", I)
        read = select(store(a, i, int_const(1)), j)
        t.push()
        assert t.assert_literal(eq(i, j), True) is None
        t.push()
        conflict = t.assert_literal(eq(read, int_const(1)), False)
        if conflict is None:
            conflict = t.check()
        assert conflict is not None

    def test_symbolic_indices_emit_lemma_pair(self):
        t = ArraysTheory()
        a = sym("a", AII)
        i, j = sym("i", I), sym("j", I)
        read = select(store(a, i, int_const(1)), j)
        t.push()
        assert t.assert_literal(eq(read, int_const(2)), True) is None
        assert t.check() is None
        lemmas = t.pending_lemmas()
        assert len(lemmas) == 2
        index_eq = eq(i, j)
        assert lemmas[0].literals[0] == (index_eq, False)
        assert lemmas[1].literals[0] == (index_eq, True)
        # The pair ships once: a later check re-emits nothing.
        assert t.check() is None
        assert t.pending_lemmas() == ()

    def test_state_survives_plugin_rebuild(self):
        state = ArraysState()
        a = sym("a", AII)
        i, j = sym("i", I), sym("j", I)
        read = select(store(a, i, int_const(1)), j)
        t = ArraysTheory(state=state)
        t.push()
        t.assert_literal(eq(read, int_const(2)), True)
        t.check()
        assert len(t.pending_lemmas()) == 2
        # A fresh plugin over the same engine state skips the emitted pair.
        t2 = ArraysTheory(state=state)
        t2.push()
        t2.assert_literal(eq(read, int_const(2)), True)
        t2.check()
        assert t2.pending_lemmas() == ()

    def test_extensionality_creates_witness(self):
        t = ArraysTheory()
        a, b = sym("a", AII), sym("b", AII)
        t.push()
        assert t.assert_literal(eq(a, b), False) is None
        assert t.stats["witnesses"] == 1
        t.push()
        # Merging the arrays now clashes with the witness disequality.
        conflict = t.assert_literal(eq(a, b), True)
        assert conflict is not None

    def test_push_pop_rolls_back(self):
        t = ArraysTheory()
        a, i = sym("a", AII), sym("i", I)
        atom = eq(select(store(a, i, int_const(5)), i), int_const(5))
        t.push()
        assert t.assert_literal(atom, True) is None
        t.push()
        assert t.assert_literal(atom, False) is not None
        t.pop()
        assert t.check() is None

    def test_popped_provenance_does_not_rewrite_trail_literal(self):
        """An internal literal's provenance dies with its level: once the
        SAT core asserts that literal itself, a conflict must name it
        as-is, not rewrite it into a clause with a complementary pair."""
        state = ArraysState()
        t = ArraysTheory(state=state)
        a, b = sym("a", AII), sym("b", AII)
        arrays_eq = eq(a, b)
        t.push()
        # Extensionality asserts (select a w) != (select b w) internally,
        # justified by a != b.
        assert t.assert_literal(arrays_eq, False) is None
        witness = state.witnesses[arrays_eq]
        reads_eq = eq(select(a, witness), select(b, witness))
        t.pop()
        t.push()
        assert t.assert_literal(arrays_eq, True) is None
        t.push()
        conflict = t.assert_literal(reads_eq, False)
        if conflict is None:
            conflict = t.check()
        assert conflict is not None
        literals = set(conflict.literals)
        assert not any((atom, not positive) in literals for atom, positive in literals)
        assert literals == {(arrays_eq, True), (reads_eq, False)}

    def test_model_hides_witnesses(self):
        from repro.theory import SortValueAllocator

        t = ArraysTheory()
        a, b = sym("a", AII), sym("b", AII)
        t.push()
        assert t.assert_literal(eq(a, b), False) is None
        assert t.check() is None
        model = t.model(SortValueAllocator())
        assert model is not None
        assert all("@arr!" not in name for name in model.values)


# ---------------------------------------------------------------------------
# Engine cross-checks.
# ---------------------------------------------------------------------------


def answers(script, **kw):
    return [check.answer for check in solve_script(script, **kw)]


PRELUDE = (
    "(declare-sort I 0)"
    "(declare-const a (Array I Int))"
    "(declare-const b (Array I Int))"
    "(declare-const i I)"
    "(declare-const j I)"
)


class TestEngine:
    def test_read_over_write_hit(self):
        assert answers(
            PRELUDE
            + "(assert (not (= (select (store a i 5) i) 5)))(check-sat)"
        ) == ["unsat"]

    def test_nested_store_case_split(self):
        # i != j: the outer write at j cannot mask the inner write at i.
        assert answers(
            PRELUDE
            + "(assert (not (= i j)))"
            "(assert (not (= (select (store (store a i 1) j 2) i) 1)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_nested_store_sat_when_indices_free(self):
        # Without i != j the outer write may mask the inner one: sat.
        checks = solve_script(
            PRELUDE
            + "(assert (not (= (select (store (store a i 1) j 2) i) 1)))"
            "(check-sat)"
        )
        assert checks[0].answer == "sat"

    def test_ground_indices_no_case_split(self):
        checks = solve_script(
            "(declare-const a (Array Int Int))"
            "(assert (= (select (store a 1 10) 2) 5))"
            "(assert (= (select a 2) 6))"
            "(check-sat)"
        )
        assert checks[0].answer == "unsat"
        # Distinct literal indices resolve internally, no lemma shipped.
        assert checks[0].metrics["theory.arrays.row2_ground"] >= 1
        assert checks[0].metrics["theory.arrays.lemmas"] == 0

    def test_extensionality_unsat(self):
        assert answers(
            PRELUDE
            + "(assert (= b (store a i (select a i))))"
            "(assert (not (= a b)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_extensionality_sat(self):
        checks = solve_script(PRELUDE + "(assert (not (= a b)))(check-sat)")
        assert checks[0].answer == "sat"
        assert all("@arr!" not in name for name in checks[0].model)

    def test_unsat_is_certified(self):
        checks = solve_script(
            PRELUDE
            + "(assert (not (= i j)))"
            "(assert (not (= (select (store (store a i 1) j 2) i) 1)))"
            "(check-sat)",
            produce_proofs=True,
        )
        assert checks[0].answer == "unsat"
        assert checks[0].proof is not None
        assert check_proof(checks[0].proof).ok

    def test_unsat_core_names_array_facts(self):
        checks = solve_script(
            PRELUDE
            + "(assert (! (not (= i j)) :named distinct-indices))"
            "(assert (! (not (= (select (store (store a i 1) j 2) i) 1))"
            " :named read-miss))"
            "(assert (! (= (select a j) 7) :named irrelevant))"
            "(check-sat)",
            produce_unsat_cores=True,
        )
        assert checks[0].answer == "unsat"
        core = set(checks[0].unsat_core)
        assert {"distinct-indices", "read-miss"} <= core
        assert "irrelevant" not in core

    def test_incremental_push_pop(self):
        assert answers(
            PRELUDE
            + "(assert (= (select (store a i 3) i) 3))"
            "(check-sat)"
            "(push 1)"
            "(assert (not (= i j)))"
            "(assert (not (= (select (store (store a i 1) j 2) i) 1)))"
            "(check-sat)"
            "(pop 1)"
            "(check-sat)"
        ) == ["sat", "unsat", "sat"]

    def test_bool_elements(self):
        assert answers(
            "(declare-const a (Array Int Bool))"
            "(declare-const i Int)"
            "(assert (select (store a i true) i))"
            "(check-sat)"
        ) == ["sat"]
        assert answers(
            "(declare-const a (Array Int Bool))"
            "(declare-const i Int)"
            "(assert (not (select (store a i true) i)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_store_identity(self):
        # store a i (select a i) == a, both polarities.
        assert answers(
            "(declare-const a (Array Int Int))"
            "(declare-const i Int)"
            "(assert (= (store a i (select a i)) a))"
            "(check-sat)"
        ) == ["sat"]
        assert answers(
            "(declare-const a (Array Int Int))"
            "(declare-const i Int)"
            "(assert (not (= (store a i (select a i)) a)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_cooperation_with_euf(self):
        assert answers(
            PRELUDE
            + "(declare-fun f (I) I)"
            "(assert (= (f i) j))"
            "(assert (not (= i j)))"
            "(assert (not (= (select (store (store a i 1) (f i) 2) i) 1)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_metrics_exposed_per_check(self):
        checks = solve_script(
            PRELUDE
            + "(assert (not (= (select (store a i 1) j) 1)))(check-sat)"
        )
        metrics = checks[0].metrics
        assert metrics["theory.arrays.row1_instances"] >= 1
        assert metrics["theory.arrays.lemmas"] >= 1

    def test_arith_forced_index_equality_stays_sound(self):
        """Simplex-forced index equalities are invisible to the arrays
        e-graph (documented incompleteness): the answer degrades to
        ``unknown``, never to a wrong ``sat``."""
        checks = solve_script(
            "(declare-const a (Array Int Int))"
            "(declare-const i Int)(declare-const j Int)"
            "(assert (= i j))"
            "(assert (not (= (select (store a i 1) j) 1)))"
            "(check-sat)"
        )
        assert checks[0].answer in ("unsat", "unknown")

    def test_stale_provenance_livelock_is_gone(self):
        """A seeded fuzz script (expected ``sat``/``sat``/``sat``) whose
        first check once spun in thousands of arrays conflicts, each
        rewritten into a tautology the SAT core dropped, until the
        timeout hit every check."""
        script = parse_script(
            "(set-logic QF_AX)(declare-sort X 0)(declare-sort V 0)"
            "(declare-const a (Array X V))(declare-const i X)(declare-const j X)"
            "(declare-const v V)(declare-const w V)"
            "(assert (and (and (=> (= (select (store a i v) i) w) (= i j)) (not (= i j))"
            " (not (= i j))) (or (and (= v w) (= i j) (= (select (store a j w) j) (select a i)))"
            " (=> (= v w) (= (store a j (select a i)) a))) (=> (or (= (store (store a j w) j w) a)"
            " (= (select (store (store a j w) j w) j) w) (= (store (store a i w) j (select a i))"
            " (store a i v))) (=> (= v w) (= (store a i (select a i)) a)))))"
            "(check-sat)"
            "(push 1)(assert (ite (= (store (store a j v) i w) (store a i v)) (= (select a i) v)"
            " (= (select (store a j (select a i)) i) (select a j))))(check-sat)(pop 1)"
            "(push 1)(assert (= (select (store a i v) j) (select a j)))(check-sat)(pop 1)"
        )
        checks = Engine(timeout=5).run(script).check_results
        assert len(checks) == 3
        assert [check.reason for check in checks if check.reason == "timeout"] == []
        # Never a wrong answer: the open model-validation gap may still
        # demote a check to unknown.
        assert all(check.answer in ("sat", "unknown") for check in checks)
        assert checks[0].answer == "sat"

    def test_get_model_prints_cleanly(self):
        result = run_script(
            PRELUDE + "(assert (not (= a b)))(check-sat)(get-model)"
        )
        printed = " ".join(result.output)
        assert "@arr!" not in printed

"""Lazy arrays: read-over-write axiom instantiation on the EUF e-graph.

:class:`ArraysTheory` decides the quantifier-free extensional theory of
arrays (``select``/``store``) by *extending* congruence closure rather
than sitting beside it: the plugin subclasses
:class:`~repro.theory.euf.EufTheory`, so array terms, their indices and
their values share one e-graph with the uninterpreted functions — the
index equalities that drive read-over-write reasoning land in the same
union-find that closes ``select`` congruences.

The array axioms are instantiated *lazily*, three ways:

* **RoW-1, always** — registering ``(store a i v)`` immediately asserts
  the valid instance ``(select (store a i v) i) = v`` internally.
* **RoW-2, ground** — at :meth:`check`, for every registered read
  ``(select x j)`` and congruent write ``(store a i v) ~ x``: when ``i``
  and ``j`` sit in classes pinned to *distinct* literal constants the
  valid consequence ``(select (store a i v) j) = (select a j)`` is
  asserted internally, with the equalities pinning the indices recorded
  as its provenance.
* **RoW-2, symbolic** — when the solver has not determined ``i = j``,
  the plugin emits a *case-split lemma pair* through
  :meth:`pending_lemmas` (see :class:`~repro.theory.core.TheoryClause`):
  ``i = j → select(st, j) = v`` and ``i ≠ j → select(st, j) =
  select(a, j)``.  Both clauses are valid, so the engine adds them to the
  SAT core permanently and the boolean search performs the case split.

**Extensionality** is instantiated on demand: asserting ``a ≠ b`` over an
array sort asserts ``(select a w) ≠ (select b w)`` for a fresh witness
index ``w`` — two arrays differ only if they differ at some index.

Internal axiom instances never leak into explanations: every internally
asserted literal carries a *provenance* (the external literals that
justify it — empty for unconditionally valid instances), and
:meth:`_set_conflict` rewrites conflicts through that map before the
engine turns them into blocking clauses.  This keeps the DPLL(T)
contract intact: explanations remain subsets of the asserted literals.

Cooperation with arithmetic over indices is *incomplete* (an index
equality forced by simplex bounds is invisible here); the engine's model
validation demotes any such ``sat`` to ``unknown``, so answers stay
sound — see ``docs/THEORIES.md``.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional, Union

from ..obs.spans import trace_span
from ..smtlib.sorts import BOOL, Sort, is_array
from ..smtlib.terms import FALSE, TRUE, Apply, Constant, Symbol, Term
from .core import SortValueAllocator, TheoryClause, TheoryConflict, TheoryModel
from .euf import EufTheory

#: Witness-symbol name marker (kept out of models and scripts).
WITNESS_MARKER = "@arr!"

#: Cap on case-split lemmas per engine lifetime; exceeding it stops
#: instantiation and reports ``array-lemma-budget`` instead of looping.
LEMMA_BUDGET = 10_000


class ArraysState:
    """Instantiation state the engine keeps *across* checks.

    Theory plugins are rebuilt per ``check-sat``, but the case-split
    lemmas they emit are permanent SAT clauses; sharing the emitted set
    (and the extensionality witness per disequality) across plugin
    instances stops every later check from re-shipping the same clauses.
    """

    def __init__(self) -> None:
        #: ``(store, index)`` pairs whose lemma pair has shipped.
        self.emitted: set[tuple[Term, Term]] = set()
        #: negated array equality → its stable witness symbol.
        self.witnesses: dict[Term, Symbol] = {}
        self.lemmas_emitted = 0


class ArraysTheory(EufTheory):
    """Extensional arrays via congruence closure + lazy instantiation."""

    name = "arrays"

    def __init__(
        self,
        uninterpreted: Union[Callable[[str], bool], Collection[str]] = (),
        state: Optional[ArraysState] = None,
    ) -> None:
        super().__init__(uninterpreted)
        self._state = state if state is not None else ArraysState()
        #: internally asserted literal → the external literals justifying
        #: it (empty for valid instances); used to rewrite explanations.
        self._provenance: dict[tuple[Term, bool], tuple[tuple[Term, bool], ...]] = {}
        #: axioms queued during registration, drained after each mutation.
        self._queue: list[tuple[Term, bool, tuple[tuple[Term, bool], ...]]] = []
        self._lemmas: list[TheoryClause] = []
        self._budget_exhausted = False
        self.stats.update(
            row1_instances=0,
            row2_ground=0,
            lemmas=0,
            witnesses=0,
        )

    # -- fragment membership -------------------------------------------------

    def is_euf_term(self, term: Term) -> bool:
        """Extends the EUF fragment with ``select``/``store`` applications.

        Boolean *element* positions admit only the constants ``true`` and
        ``false`` (a boolean-symbol element would smuggle SAT structure
        into the e-graph); everything else recurses."""
        if (
            isinstance(term, Apply)
            and not term.indices
            and term.op in ("select", "store")
        ):
            for arg in term.args:
                if arg.sort == BOOL:
                    if arg is not TRUE and arg is not FALSE:
                        return False
                elif not self.is_euf_term(arg):
                    return False
            return True
        return super().is_euf_term(term)

    def owns_atom(self, atom: Term) -> bool:
        """Adds boolean reads ``(select a i)`` (predicate-style atoms) to
        the inherited equality/predicate ownership — which, through the
        overridden :meth:`is_euf_term`, now accepts array structure."""
        if (
            isinstance(atom, Apply)
            and not atom.indices
            and atom.op == "select"
            and atom.sort == BOOL
            and self.is_euf_term(atom)
        ):
            return True
        return super().owns_atom(atom)

    # -- internal axiom assertions --------------------------------------------

    def _register(self, term: Term) -> None:
        if term in self._rank:
            return
        super()._register(term)
        if (
            isinstance(term, Apply)
            and not term.indices
            and term.op == "store"
            and len(term.args) == 3
        ):
            # RoW-1: select(store(a, i, v), i) = v, valid unconditionally.
            _a, index, value = term.args
            read = Apply("select", (term, index), term.sort.element(1))
            self.stats["row1_instances"] += 1
            if value.sort == BOOL:
                self._queue.append((read, value is TRUE, ()))
            else:
                self._queue.append((Apply("=", (read, value), BOOL), True, ()))

    def _assert_internal(
        self,
        atom: Term,
        positive: bool,
        provenance: tuple[tuple[Term, bool], ...],
    ) -> None:
        """Assert an axiom instance as if it were a trail literal, tagging
        it with the external literals that justify it.  The tag is
        undone on backtrack: a stale one would later rewrite the same
        literal, asserted by the SAT core, into a tautological clause."""
        self._save(self._provenance, (atom, positive))
        self._provenance[(atom, positive)] = provenance
        if (
            isinstance(atom, Apply)
            and atom.op == "="
            and len(atom.args) == 2
            and atom.args[0].sort == BOOL
        ):
            # Boolean-element instances: the base class rejects boolean
            # equalities, so drive the e-graph directly (the atom only
            # ever appears inside explanations, where provenance
            # rewriting removes it again).
            lhs, rhs = atom.args
            self._register(lhs)
            self._register(rhs)
            if self._conflict is not None:
                return
            if positive:
                self._merge(lhs, rhs, ("lit", atom, True))
            elif self.find(lhs) is self.find(rhs):
                literals = [(atom, False)]
                literals.extend(self.explain(lhs, rhs))
                self._set_conflict(
                    TheoryConflict(tuple(literals), source=self.name)
                )
            else:
                for end_a, end_b in ((lhs, rhs), (rhs, lhs)):
                    entries = self._diseqs.setdefault(self.find(end_a), [])
                    self._save_len(entries)
                    entries.append((lhs, rhs, atom))
            return
        super().assert_literal(atom, positive)

    def _drain_queue(self) -> None:
        while self._queue and self._conflict is None:
            atom, positive, provenance = self._queue.pop()
            self._assert_internal(atom, positive, provenance)
        if self._conflict is not None:
            # Entries queued by registrations the solver is about to roll
            # back; re-registration after backtracking re-queues them.
            self._queue.clear()

    def _set_conflict(self, conflict: TheoryConflict) -> None:
        """Rewrite internal axiom literals to their external provenance
        before the conflict becomes a blocking clause."""
        literals: list[tuple[Term, bool]] = []
        seen: set[tuple[Term, bool]] = set()
        stack = list(conflict.literals)
        while stack:
            literal = stack.pop()
            if literal in seen:
                continue
            seen.add(literal)
            provenance = self._provenance.get(literal)
            if provenance is not None:
                stack.extend(provenance)
            else:
                literals.append(literal)
        super()._set_conflict(
            TheoryConflict(tuple(literals), source=self.name)
        )

    # -- the Theory interface --------------------------------------------------

    def assert_literal(self, atom: Term, positive: bool) -> Optional[TheoryConflict]:
        if self._conflict is not None:
            return self._conflict
        super().assert_literal(atom, positive)
        if (
            self._conflict is None
            and not positive
            and isinstance(atom, Apply)
            and atom.op == "="
            and len(atom.args) == 2
            and is_array(atom.args[0].sort)
        ):
            self._instantiate_extensionality(atom)
        self._drain_queue()
        return self._conflict

    def _instantiate_extensionality(self, atom: Apply) -> None:
        """``a ≠ b`` ⇒ ``(select a w) ≠ (select b w)`` for a fresh
        stable witness ``w`` — justified by the disequality itself."""
        lhs, rhs = atom.args
        sort: Sort = lhs.sort
        witness = self._state.witnesses.get(atom)
        if witness is None:
            witness = Symbol(
                f"{WITNESS_MARKER}{len(self._state.witnesses)}",
                sort.element(0),
            )
            self._state.witnesses[atom] = witness
        element = sort.element(1)
        read_l = Apply("select", (lhs, witness), element)
        read_r = Apply("select", (rhs, witness), element)
        self.stats["witnesses"] += 1
        self._queue.append(
            (Apply("=", (read_l, read_r), BOOL), False, ((atom, False),))
        )

    def check(self) -> Optional[TheoryConflict]:
        if self._conflict is not None:
            return self._conflict
        with trace_span("instantiate", merge=True):
            changed = True
            while changed and self._conflict is None:
                changed = self._instantiate_read_over_write()
                self._drain_queue()
        return self._conflict

    def pending_lemmas(self) -> tuple[TheoryClause, ...]:
        lemmas = tuple(self._lemmas)
        self._lemmas.clear()
        return lemmas

    def incomplete_reason(self) -> Optional[str]:
        if self._budget_exhausted:
            return "array-lemma-budget"
        return None

    def _model_repair(self, classes):
        """Weak-equivalence repair of the candidate model.

        Congruence closure assigns *distinct* values to distinct classes,
        which over-separates arrays two ways:

        * When two store chains are merged (``store(b,i,v) ~
          store(a,i,w)``) their bases must agree at every row except the
          write index, but nothing at the e-graph level says so.  The
          repair closes the select rows under store edges — copying rows
          between a store term and its base everywhere off the write
          index, merging the value classes of rows forced equal and
          materialising rows one side lacks.
        * An extensionality witness seated in its own index class may be
          *provably generic*: if the two arrays agree off some write
          index ``i``, the only place they can differ is ``i`` itself.
          When the closure forces the witness reads equal against the
          witness disequality, the repair retries with the witness index
          re-seated onto a candidate write-index class.

        The repair is best-effort: if every attempt collides with a
        pinned constant or a non-witness disequality it returns the
        identity plan, and the engine's model validation demotes the
        answer to a sound ``unknown``."""
        stores: list[Apply] = []
        selects: list[Apply] = []
        for term in self._rank:
            if isinstance(term, Apply) and not term.indices:
                if term.op == "store":
                    stores.append(term)
                elif term.op == "select":
                    selects.append(term)
        if not stores:
            return {}, ()
        write_indices: list[Term] = []
        for store in stores:
            rep = self.find(store.args[1])
            if rep not in write_indices:
                write_indices.append(rep)
        attempts: list[tuple[tuple[Term, Term], ...]] = [()]
        tried = 0
        while attempts and tried < 32:
            seeds = attempts.pop(0)
            tried += 1
            outcome = self._repair_attempt(classes, stores, selects, seeds)
            if outcome is None:
                continue
            if outcome[0] == "ok":
                return outcome[1], outcome[2]
            # Witness-row conflict: retry with the witness index merged
            # onto each candidate write-index class in turn.
            witness_rep = outcome[1]
            for candidate in write_indices:
                if candidate is not witness_rep:
                    attempts.append(seeds + ((witness_rep, candidate),))
        return {}, ()

    def _repair_attempt(self, classes, stores, selects, seeds):
        parent: dict[Term, Term] = {}

        def find(item: Term) -> Term:
            root = item
            while parent.get(root, root) is not root:
                root = parent[root]
            while parent.get(item, item) is not item:
                parent[item], item = root, parent[item]
            return root

        merged = False

        def union(left: Term, right: Term) -> None:
            nonlocal merged
            root_l, root_r = find(left), find(right)
            if root_l is not root_r:
                parent[root_r] = root_l
                merged = True

        for left, right in seeds:
            union(left, right)

        # Fixpoint: rebuild the row map whenever a merge shifts group
        # keys; each pass either merges classes or reaches closure.
        rows: dict[tuple[Term, Term], Term] = {}
        for _ in range(len(classes) + len(stores) + 8):
            merged = False
            rows = {}
            for read in selects:
                array, j = read.args
                key = (find(self.find(array)), find(self.find(j)))
                existing = rows.get(key)
                if existing is None:
                    rows[key] = find(self.find(read))
                else:
                    union(existing, self.find(read))
            grew = True
            while grew and not merged:
                grew = False
                for store in stores:
                    base, i, _value = store.args
                    store_rep = find(self.find(store))
                    base_rep = find(self.find(base))
                    i_rep = find(self.find(i))
                    if store_rep is base_rep:
                        continue
                    for (array, k), row in list(rows.items()):
                        if k is i_rep:
                            continue
                        if array is store_rep:
                            other = (base_rep, k)
                        elif array is base_rep:
                            other = (store_rep, k)
                        else:
                            continue
                        existing = rows.get(other)
                        if existing is None:
                            rows[other] = find(row)
                            grew = True
                        else:
                            union(existing, row)
            if not merged:
                break

        # Veto 1: a group may carry at most one distinguished constant.
        pinned: dict[Term, Constant] = {}
        for representative in classes:
            constant = self._const.get(representative)
            if constant is None:
                continue
            root = find(representative)
            existing = pinned.get(root)
            if existing is not None and existing != constant:
                return None
            pinned[root] = constant
        # Veto 2: no merge may cross an asserted disequality.  A crossed
        # *witness* disequality is recoverable: report the witness index
        # class so the caller can re-seat it.
        for entries in self._diseqs.values():
            for lhs, rhs, _atom in entries:
                if find(self.find(lhs)) is not find(self.find(rhs)):
                    continue
                witness_rep = self._witness_index(lhs, rhs, seeds)
                if witness_rep is not None:
                    return ("reseat", witness_rep)
                return None

        class_map: dict[Term, Term] = {}
        for representative in classes:
            root = find(representative)
            if root is not representative:
                class_map[representative] = root
        select_rows = tuple(
            (array, k, find(row)) for (array, k), row in rows.items()
        )
        return ("ok", class_map, select_rows)

    def _witness_index(self, lhs, rhs, seeds):
        """The index class of a witness-select disequality, if `lhs`/`rhs`
        are the two reads of an extensionality instance whose witness has
        not been re-seated yet in this attempt."""
        for side in (lhs, rhs):
            if not (
                isinstance(side, Apply)
                and not side.indices
                and side.op == "select"
            ):
                return None
        index = lhs.args[1]
        if not (
            isinstance(index, Symbol)
            and index.name.startswith(WITNESS_MARKER)
        ):
            return None
        rep = self.find(index)
        if any(left is rep for left, _right in seeds):
            return None
        return rep

    def model(self, allocator: SortValueAllocator) -> Optional[TheoryModel]:
        result = super().model(allocator)
        if result is not None:
            # Extensionality witnesses are internal vocabulary; drop them
            # so (get-model) stays total over script declarations only.
            for name in list(result.values):
                if name.startswith(WITNESS_MARKER):
                    del result.values[name]
        return result

    # -- read-over-write propagation -------------------------------------------

    def _instantiate_read_over_write(self) -> bool:
        reads: list[Apply] = []
        writes: list[Apply] = []
        for term in self._rank:
            if isinstance(term, Apply) and not term.indices:
                if term.op == "select":
                    reads.append(term)
                elif term.op == "store":
                    writes.append(term)
        by_class: dict[Term, list[Apply]] = {}
        by_base: dict[Term, list[Apply]] = {}
        for store in writes:
            by_class.setdefault(self.find(store), []).append(store)
            by_base.setdefault(self.find(store.args[0]), []).append(store)
        changed = False
        for read in reads:
            if self._conflict is not None:
                break
            array, j = read.args
            for store in by_class.get(self.find(array), ()):
                if self._propagate_pair(read, store, j):
                    changed = True
                if self._conflict is not None:
                    break
            if self._conflict is not None:
                break
            # Lift the read over stores written on top of this array:
            # registering select(store(a,i,v), j) lets congruence chain
            # select(a, j) to reads on every array merged with the store
            # (the next pass case-splits the lifted read as usual).
            for store in by_base.get(self.find(array), ()):
                lifted = Apply("select", (store, j), read.sort)
                if lifted not in self._rank:
                    self._register(lifted)
                    changed = True
        return changed

    def _propagate_pair(self, read: Apply, store: Apply, j: Term) -> bool:
        base, i, value = store.args
        element = read.sort
        if self.find(i) is self.find(j):
            # Congruent indices: registering select(store, j) lets plain
            # congruence (j ~ i) connect it to the RoW-1 instance.
            direct = Apply("select", (store, j), element)
            if direct not in self._rank:
                self._register(direct)
                return True
            return False
        const_i = self._const.get(self.find(i))
        const_j = self._const.get(self.find(j))
        direct = Apply("select", (store, j), element)
        shifted = Apply("select", (base, j), element)
        if const_i is not None and const_j is not None:
            # Distinct literal indices: the read bypasses the write, with
            # the equalities pinning both indices as provenance.
            if direct in self._rank and self.same_class(direct, shifted):
                return False
            provenance: list[tuple[Term, bool]] = []
            provenance.extend(self.explain(i, const_i))
            provenance.extend(self.explain(j, const_j))
            self.stats["row2_ground"] += 1
            self._queue.append(
                (Apply("=", (direct, shifted), BOOL), True, tuple(provenance))
            )
            return True
        # Symbolic indices: hand the case split to the SAT core.
        key = (store, j)
        if key in self._state.emitted:
            return False
        if self._state.lemmas_emitted >= LEMMA_BUDGET:
            self._budget_exhausted = True
            return False
        self._state.emitted.add(key)
        self._state.lemmas_emitted += 1
        self.stats["lemmas"] += 1
        index_eq = Apply("=", (i, j), BOOL)
        if element == BOOL:
            hit = (direct, value is TRUE)
            self._lemmas.append(
                TheoryClause(((index_eq, False), hit), source=self.name)
            )
            self._lemmas.append(
                TheoryClause(
                    ((index_eq, True), (direct, False), (shifted, True)),
                    source=self.name,
                )
            )
            self._lemmas.append(
                TheoryClause(
                    ((index_eq, True), (direct, True), (shifted, False)),
                    source=self.name,
                )
            )
        else:
            self._lemmas.append(
                TheoryClause(
                    ((index_eq, False), (Apply("=", (direct, value), BOOL), True)),
                    source=self.name,
                )
            )
            self._lemmas.append(
                TheoryClause(
                    ((index_eq, True), (Apply("=", (direct, shifted), BOOL), True)),
                    source=self.name,
                )
            )
        return True


__all__ = ["ArraysTheory", "ArraysState", "WITNESS_MARKER", "LEMMA_BUDGET"]

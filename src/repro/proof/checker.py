"""An independent forward RUP/DRAT proof checker.

The checker re-derives nothing from the solver and shares no code with
it: this module imports nothing from :mod:`repro.sat`.  Both propagate
with two watched literals, but over separate data structures written
separately.  The solver keeps clauses in a flat literal arena with
literal-indexed watch arrays, blocker literals and dedicated binary
watch lists; the checker keeps one Python list per clause, a
literal-keyed ``watches`` dict of clause ids and the set of true
literals.  Its job is to *audit* the solver, so the two implementations
must be able to disagree.

Checking replays the proof in order:

* ``input`` and ``lemma`` steps extend the formula as axioms (lemmas are
  recorded with provenance; their theory validity is the trusted base —
  the same convention DRAT toolchains use for the CNF itself).
* ``rup`` steps must pass **reverse unit propagation**: asserting the
  negation of every literal of the clause and unit-propagating over the
  active formula must reach a conflict.  This covers every learned
  clause and the concluding clause of the answer.
* ``delete`` steps deactivate a clause, so later RUP steps cannot lean
  on clauses the solver had already dropped.  Deleting a clause never
  retracts permanent (top-level) units it helped derive — the standard
  forward-checking relaxation, also used by ``drat-trim``.

After the replay the claimed :attr:`~repro.proof.log.Proof.conclusion`
must itself follow: the empty conclusion requires the formula to have
propagated to a contradiction, a non-empty conclusion must be RUP (it is
normally also the final ``rup`` step, so this is a cheap re-check).

Whenever a clause is added while the formula already propagates to a
contradiction, every later check passes trivially — sound, because the
contradiction itself was reached by verified steps.

:func:`check_proof` takes an optional ``deadline`` (a
:func:`time.monotonic` value), tested once per RUP step.  A check that
runs past it is rejected with an error starting with
:data:`CHECK_TIMED_OUT`; a cut-short check never certifies.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .log import DELETE, INPUT, LEMMA, RUP, Proof

#: The start of the error of a check stopped by its deadline.
CHECK_TIMED_OUT = "proof check timed out"


@dataclass
class ProofCheckResult:
    """The verdict of :func:`check_proof`.

    ``ok`` is the certification verdict.  On rejection ``error`` says
    why and ``step_index`` points at the offending step (``None`` when
    the conclusion itself failed).  ``stats`` reports the work done:
    ``rup_checked``, ``propagations``, ``clauses``, ``lemmas``,
    ``deletions``.
    """

    ok: bool
    error: Optional[str] = None
    step_index: Optional[int] = None
    stats: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


class _Checker:
    """Two-watched-literal unit propagation over an add/delete clause set.

    Every clause of two or more literals that is neither tautological nor
    added after the contradiction watches its first two positions.  At
    the permanent propagation fixpoint a false watch implies a true
    partner; a RUP test assigns a temporary suffix of the trail and
    :meth:`_undo_to` only unassigns it, because watches that moved during
    the test stay valid once their literals are unassigned again."""

    def __init__(self) -> None:
        #: Clause id → deduped literal list, watches in positions 0 and 1;
        #: ``None`` once deleted (and dropped from watch lists lazily).
        self._clauses: list[Optional[list[int]]] = []
        #: Literal → ids of the clauses watching it.
        self._watches: defaultdict[int, list[int]] = defaultdict(list)
        #: The literals currently true.
        self._true: set[int] = set()
        #: ``_true`` in assignment order: the permanent prefix plus the
        #: temporary suffix of the RUP test in flight.
        self._trail: list[int] = []
        #: Sorted-literal key → ids, for deletion matching.
        self._by_key: dict[tuple[int, ...], list[int]] = {}
        #: The formula propagates to a conflict at the top level.
        self.contradiction = False
        self.stats = {
            "clauses": 0,
            "lemmas": 0,
            "deletions": 0,
            "rup_checked": 0,
            "propagations": 0,
        }

    # -- assignment ---------------------------------------------------------

    def _assign(self, lit: int) -> None:
        self._true.add(lit)
        self._trail.append(lit)

    def _propagate(self, mark: int) -> bool:
        """Unit-propagate the literals assigned from trail position
        ``mark`` on to fixpoint, counting every assignment from ``mark``.
        Returns ``True`` on conflict.  Assignments stay on the trail for
        the caller to keep (permanent) or roll back (RUP test)."""
        clauses = self._clauses
        watches = self._watches
        true = self._true
        trail = self._trail
        head = mark
        conflict = False
        while head < len(trail) and not conflict:
            false_lit = -trail[head]
            head += 1
            watchers = watches.get(false_lit)
            if not watchers:
                continue
            kept = 0
            for cid in watchers:
                clause = clauses[cid]
                if clause is None:
                    continue  # deleted: leaves this watch list here
                if conflict:
                    watchers[kept] = cid
                    kept += 1
                    continue
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                other = clause[0]
                if other not in true:
                    for index in range(2, len(clause)):
                        lit = clause[index]
                        if -lit not in true:
                            clause[1] = lit
                            clause[index] = false_lit
                            watches[lit].append(cid)
                            break
                    else:
                        if -other in true:
                            conflict = True
                        else:
                            true.add(other)
                            trail.append(other)
                        watchers[kept] = cid
                        kept += 1
                    continue
                watchers[kept] = cid
                kept += 1
            del watchers[kept:]
        self.stats["propagations"] += len(trail) - mark
        return conflict

    def _undo_to(self, mark: int) -> None:
        self._true.difference_update(self._trail[mark:])
        del self._trail[mark:]

    # -- the RUP test -------------------------------------------------------

    def entails(self, lits: Sequence[int]) -> bool:
        """True when the active formula gives ``lits`` by reverse unit
        propagation (or is already contradictory)."""
        if self.contradiction:
            return True
        deduped, tautology = _dedupe(lits)
        if tautology:
            return True
        self.stats["rup_checked"] += 1
        true = self._true
        if any(lit in true for lit in deduped):
            return True  # its negation is falsified outright
        mark = len(self._trail)
        for lit in deduped:
            if -lit not in true:
                self._assign(-lit)
        conflict = self._propagate(mark)
        self._undo_to(mark)
        return conflict

    # -- formula maintenance ------------------------------------------------

    def add(self, lits: Sequence[int], lemma: bool = False) -> None:
        """Attach a clause and propagate any permanent consequence."""
        deduped, tautology = _dedupe(lits)
        cid = len(self._clauses)
        true = self._true
        # True literals first, then free ones, then false ones: the first
        # two positions are the watches.
        clause = sorted(deduped, key=lambda lit: 0 if lit in true else 2 if -lit in true else 1)
        self._clauses.append(clause)
        self._by_key.setdefault(tuple(sorted(deduped)), []).append(cid)
        self.stats["lemmas" if lemma else "clauses"] += 1
        if self.contradiction or tautology:
            return
        if not clause or -clause[0] in true:
            self.contradiction = True  # empty, or every literal false
            return
        if len(clause) > 1:
            self._watches[clause[0]].append(cid)
            self._watches[clause[1]].append(cid)
        if clause[0] in true or (len(clause) > 1 and -clause[1] not in true):
            return  # satisfied, or two free literals: nothing to propagate
        mark = len(self._trail)
        self._assign(clause[0])
        if self._propagate(mark):
            self.contradiction = True

    def delete(self, lits: Sequence[int]) -> bool:
        """Deactivate one clause matching ``lits`` (as a literal set).
        Returns ``False`` when no active match exists."""
        deduped, _ = _dedupe(lits)
        if len(deduped) <= 1:
            # Unit/empty deletions are ignored (they would retract
            # permanent propagation); the solver never emits them.
            self.stats["deletions"] += 1
            return True
        ids = self._by_key.get(tuple(sorted(deduped)))
        if not ids:
            return False
        self._clauses[ids.pop()] = None
        self.stats["deletions"] += 1
        return True


def _dedupe(lits: Sequence[int]) -> tuple[tuple[int, ...], bool]:
    """Deduplicate preserving order; flag tautologies (p ∨ ¬p)."""
    seen: set[int] = set()
    out: list[int] = []
    tautology = False
    for lit in lits:
        lit = int(lit)
        if lit == 0:
            raise ValueError("0 is not a literal")
        if lit in seen:
            continue
        if -lit in seen:
            tautology = True
        seen.add(lit)
        out.append(lit)
    return tuple(out), tautology


def check_proof(proof: Proof, deadline: Optional[float] = None) -> ProofCheckResult:
    """Replay ``proof`` and certify it (see the module docstring).
    ``deadline`` is a :func:`time.monotonic` value tested before each
    RUP step; past it the check stops and rejects."""
    checker = _Checker()
    for index, step in enumerate(proof.steps):
        if step.kind == INPUT:
            checker.add(step.lits)
        elif step.kind == LEMMA:
            checker.add(step.lits, lemma=True)
        elif step.kind == RUP:
            if deadline is not None and time.monotonic() >= deadline:
                return ProofCheckResult(
                    False,
                    error=f"{CHECK_TIMED_OUT} at step {index} of {len(proof.steps)}",
                    step_index=index,
                    stats=checker.stats,
                )
            if not checker.entails(step.lits):
                return ProofCheckResult(
                    False,
                    error=f"step {index}: clause {list(step.lits)} is not RUP",
                    step_index=index,
                    stats=checker.stats,
                )
            checker.add(step.lits)
        elif step.kind == DELETE:
            if not checker.delete(step.lits):
                return ProofCheckResult(
                    False,
                    error=f"step {index}: deletion of unknown clause {list(step.lits)}",
                    step_index=index,
                    stats=checker.stats,
                )
        else:
            return ProofCheckResult(
                False,
                error=f"step {index}: unknown step kind {step.kind!r}",
                step_index=index,
                stats=checker.stats,
            )
    if not checker.entails(proof.conclusion):
        claim = "the empty clause" if not proof.conclusion else f"clause {list(proof.conclusion)}"
        return ProofCheckResult(
            False,
            error=f"conclusion {claim} does not follow from the proof",
            stats=checker.stats,
        )
    return ProofCheckResult(True, stats=checker.stats)


__all__ = ["CHECK_TIMED_OUT", "ProofCheckResult", "check_proof"]

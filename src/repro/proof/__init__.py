"""Proof production and checking: the solver's trust layer.

``sat`` answers are validated in-engine by evaluating the model against
every live assertion; this package closes the asymmetry for ``unsat``:

* :mod:`repro.proof.log` — the DRAT-style clause proof the CDCL core
  emits while it searches: input clauses, theory lemmas (with plugin
  provenance), learned clauses as RUP additions, deletions, and a
  concluding clause per ``unsat`` answer (the empty clause, or the
  negation of the failed-assumption core when the check ran under
  assumptions).
* :mod:`repro.proof.checker` — an **independent** forward RUP/DRAT
  checker: it replays the proof with its own two-watched-literal unit
  propagation and accepts only when every RUP addition is derivable and
  the conclusion follows.  Its independence rests on sharing no code
  with :mod:`repro.sat` (it imports nothing from it) and on keeping its
  own data structures — a list per clause, a literal-keyed watch dict
  and a set of true literals — so a bug in the solver's propagation
  cannot be mirrored in the audit of its proofs.

The trusted base mirrors the SAT-competition convention: input clauses
(the Tseitin encoding of the simplified assertions) are axioms, and
theory lemmas are axioms *recorded with provenance* — each lemma step
names the plugin whose explanation produced it, so the lemma surface is
auditable even though the checker does not re-derive theory reasoning.
Everything else — every learned clause and the final conclusion — must
pass reverse-unit-propagation over the accumulated formula.
"""

from .checker import CHECK_TIMED_OUT, ProofCheckResult, check_proof
from .log import Proof, ProofLog, ProofStep

__all__ = [
    "CHECK_TIMED_OUT",
    "Proof",
    "ProofLog",
    "ProofStep",
    "ProofCheckResult",
    "check_proof",
]

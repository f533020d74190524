"""Traced stand-in for ``python -m repro FILE`` (one script per process).

The per-layer run launches this file instead of the CLI.  It makes the
same public calls the CLI makes, in the same order —
``ensure_recursion_limit``, ``parse_script``, ``Engine(...).run`` and
``check_proof`` for every unsat answer — times each call with its own
clock, and reads the engine's spans and counters through the public API
(``Observability(tracer=Tracer())``, ``CheckSatResult.phases`` and
``.metrics``, ``ProofCheckResult.stats``).  It prints one JSON document.

Usage::

    PYTHONPATH=src python perfbench/driver.py FILE [--check-proofs] [--timeout SECS]
"""

from time import perf_counter

STARTED = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    spans: dict[str, float] = {}

    mark = perf_counter()
    # The CLI module pulls in the package and everything it imports.
    import repro.__main__  # noqa: F401
    from repro import Engine, ensure_recursion_limit
    from repro.obs import Observability, Tracer
    from repro.proof import check_proof
    from repro.smtlib import parse_script

    spans["import"] = perf_counter() - mark

    path = argv[0]
    check_proofs = "--check-proofs" in argv
    timeout = float(argv[argv.index("--timeout") + 1]) if "--timeout" in argv else None

    ensure_recursion_limit()
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    mark = perf_counter()
    script = parse_script(text)
    spans["parse"] = perf_counter() - mark

    engine = Engine(
        obs=Observability(tracer=Tracer()), produce_proofs=check_proofs, timeout=timeout
    )
    mark = perf_counter()
    result = engine.run(script)
    spans["run"] = perf_counter() - mark

    checks = []
    proof_check_s = 0.0
    for check in result.check_results:
        verdict = None
        if check_proofs and check.answer == "unsat":
            if check.proof is None:
                verdict = {"ok": False, "error": "unsat answer carries no proof"}
            else:
                mark = perf_counter()
                outcome = check_proof(check.proof)
                proof_check_s += perf_counter() - mark
                verdict = {"ok": outcome.ok, "error": outcome.error, "stats": outcome.stats}
        checks.append(
            {
                "answer": check.answer,
                "reason": check.reason,
                "stats": check.stats,
                "metrics": check.metrics,
                "phases": check.phases,
                "proof_check": verdict,
            }
        )
    spans["proof_check"] = proof_check_s
    spans["total"] = perf_counter() - STARTED
    document = {
        "bytes": len(text.encode("utf-8")),
        "spans": spans,
        "checks": checks,
        "final_metrics": engine.metrics.snapshot(),
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

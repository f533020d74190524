"""Solver observability: unified metrics, span tracing, search events.

Three orthogonal instruments, one bundle:

* :mod:`repro.obs.metrics` — a namespaced :class:`MetricsRegistry` that
  *absorbs* the layers' plain-dict stats as sources (``SatSolver.stats``
  as ``sat.*``, per-plugin ``Theory.stats`` as ``theory.<name>.*``, the
  engine's own counters as ``engine.*``, the intern table as
  ``intern.*``) behind one snapshot/delta API.
* :mod:`repro.obs.spans` — hierarchical wall-clock tracing
  (``perf_counter_ns``) over the whole pipeline, with merged hot spans
  and a no-op-cheap module-level :func:`trace_span` entry point.
* :mod:`repro.obs.events` — a bounded JSONL search-event log
  (decisions, conflicts/learns with LBD, restarts, theory lemmas with
  plugin provenance, push/pop, unknown reasons) with per-kind caps and
  sampling.

:class:`Observability` bundles one of each for the engine: metrics are
always on (snapshot cost only, no hot-path overhead), tracer and events
are opt-in and ``None`` by default — disabled instrumentation is a
single ``is None`` test at every call site.
"""

from __future__ import annotations

from typing import Optional

from .events import (
    EVENT_SCHEMA,
    EventLog,
    open_memory_log,
    validate_event,
    validate_trace,
)
from .metrics import MetricsRegistry
from .profile import format_phase_table, phase_seconds, phase_totals
from .spans import (
    NULL_SPAN,
    Span,
    Tracer,
    get_current_tracer,
    set_current_tracer,
    trace_span,
)


class Observability:
    """The engine-facing bundle: one registry, optional tracer, optional
    event log.  ``Observability()`` is the cheap default (metrics only);
    :meth:`tracing` turns everything on."""

    __slots__ = ("metrics", "tracer", "events")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.events = events

    @classmethod
    def tracing(cls, events: Optional[EventLog] = None) -> "Observability":
        """Metrics + a fresh tracer (+ an event log when given)."""
        return cls(tracer=Tracer(), events=events)


__all__ = [
    "Observability",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "NULL_SPAN",
    "trace_span",
    "set_current_tracer",
    "get_current_tracer",
    "EventLog",
    "EVENT_SCHEMA",
    "validate_event",
    "validate_trace",
    "open_memory_log",
    "phase_totals",
    "phase_seconds",
    "format_phase_table",
]

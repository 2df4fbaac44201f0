"""Structured planner events: one record per executed (or skipped) pass.

The event log is the planner's long-standing observability surface: the
CLI renders it (``repro plan --explain``), experiments aggregate it
across sweeps, and tests assert on it (e.g. "the cached run never
entered the stage search").

Since the :mod:`repro.obs` layer landed, the log is a **thin view over a
tracer** rather than its own store: :meth:`EventLog.record` appends a
completed :class:`~repro.obs.tracer.Span` (category
:data:`PASS_CATEGORY`, the pass's status and detail as span attributes)
to the backing :class:`~repro.obs.tracer.Tracer`, and every read-side
accessor reconstructs :class:`PassEvent` records from the spans it
recorded.  One store means ``repro plan --explain`` tables and an
exported Perfetto ``trace.json`` can never disagree about what the
planner did.  The tracer may be shared (the plan service records every
request's passes under its ``service.plan`` span); a log reads only its
own run's spans.

A pass can be ``skipped`` because its work is not needed (the detail
carries a ``reason``) or because the artifact store already holds its
result.  A reuse skip carries ``reuse=True`` plus the pass's input
``fingerprint``: either its own artifact was loaded under that address
(a delta replan, with a ``planner.reuse.<pass>`` span on the same
tracer), or the store served the finished plan whole and every compute
pass was skipped (see ``docs/INCREMENTAL.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.tracer import Span, Tracer

#: event status values
OK = "ok"
SKIPPED = "skipped"
FAILED = "failed"

#: span category of pass events on the backing tracer
PASS_CATEGORY = "planner.pass"


@dataclass
class PassEvent:
    """Outcome of one pass execution."""

    name: str
    status: str  # "ok" | "skipped" | "failed"
    wall_time: float = 0.0
    detail: Dict[str, Any] = field(default_factory=dict)


def _event_of(span: Span) -> PassEvent:
    detail = {k: v for k, v in span.attrs.items() if k != "status"}
    return PassEvent(
        span.name, span.attrs.get("status", OK), span.duration, detail
    )


class EventLog:
    """Append-only log of :class:`PassEvent` records, stored as spans.

    Args:
        tracer: the backing tracer; a private always-enabled one is
            created when omitted, so a bare ``EventLog()`` still works
            everywhere it used to.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        #: the spans this log recorded on the tracer, in order
        self._spans: List[Span] = []

    def record(
        self,
        name: str,
        status: str,
        wall_time: float = 0.0,
        detail: Optional[Dict[str, Any]] = None,
        start: Optional[float] = None,
    ) -> PassEvent:
        """Record a pass outcome as a completed span on the tracer.

        The span starts at ``start`` (a ``time.perf_counter()`` reading)
        when given, so spans recorded inside the pass lie within it;
        otherwise it is back-dated by ``wall_time`` to end "now" — the
        pass manager measures first and records after.
        """
        span = self.tracer.add_span(
            name,
            category=PASS_CATEGORY,
            duration=wall_time,
            start=start,
            attrs={"status": status, **(detail or {})},
        )
        if self.tracer.enabled:
            self._spans.append(span)
        return _event_of(span)

    @property
    def events(self) -> List[PassEvent]:
        """The pass events, reconstructed from the spans this log
        recorded."""
        return [_event_of(s) for s in self._spans]

    def find(self, name: str) -> Optional[PassEvent]:
        """The most recent event of pass ``name``, if any."""
        for event in reversed(self.events):
            if event.name == name:
                return event
        return None

    def total_time(self) -> float:
        return sum(e.wall_time for e in self.events)

    def timings(self) -> Dict[str, float]:
        """Per-pass wall time of every non-skipped pass."""
        return {
            e.name: e.wall_time for e in self.events if e.status != SKIPPED
        }

    def __iter__(self) -> Iterator[PassEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

"""Exporters: JSON-lines and Chrome-trace/Perfetto ``trace.json``.

Two output formats:

* **JSON-lines** (:func:`spans_to_jsonl`, :func:`write_jsonl`): one
  object per line — ``{"type": "span", ...}`` records followed by a
  single ``{"type": "metrics", "values": {...}}`` record.  Greppable,
  streamable, diff-able.
* **Chrome trace** (:func:`chrome_trace`, :func:`write_chrome_trace`):
  the ``traceEvents`` JSON that `Perfetto <https://ui.perfetto.dev>`_
  and ``chrome://tracing`` load directly.  Spans become complete events
  (``"ph": "X"``) with microsecond ``ts``/``dur``; process/thread
  metadata events (``"ph": "M"``) name the tracks.

Track layout in the Chrome trace:

* ``pid 1`` ("planner"): one track (``tid``) per OS thread that recorded
  spans — the parallel Algorithm-2 sweep shows up as concurrent tracks.
* ``pid 2`` ("pipeline (simulated)"): one track per pipeline stage from
  a :class:`~repro.pipeline.timeline.Timeline`, forward ("F") and
  backward ("B") phases colour-separated via the event ``cat``.

The metrics snapshot rides along under the top-level ``"metrics"`` key,
and a :class:`~repro.obs.tracer.Tracer` source adds how many old spans
its bounded buffer evicted under ``"dropped_spans"`` (Chrome-trace
consumers ignore unknown top-level keys).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.timeline import Timeline

#: pid values of the two logical "processes" in the exported trace
PLANNER_PID = 1
PIPELINE_PID = 2

_PHASE_NAMES = {"F": "forward", "B": "backward"}


def _metadata(kind: str, pid: int, tid: int = 0, **args: Any) -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "ph": "M", "name": kind, "pid": pid, "args": args,
    }
    if kind == "thread_name":
        event["tid"] = tid
    return event


def spans_to_trace_events(
    spans: Iterable[Span],
    origin: Optional[float] = None,
    pid: int = PLANNER_PID,
    process_name: str = "planner",
) -> List[Dict[str, Any]]:
    """Complete events (``ph: "X"``) for tracer spans, one track per
    recording thread.  ``ts``/``dur`` are microseconds relative to
    ``origin`` (default: the earliest span start)."""
    spans = list(spans)
    if not spans:
        return []
    if origin is None:
        origin = min(s.start for s in spans)
    # compact thread ids: OS idents are huge; number tracks 1..T in
    # order of first appearance (main/coordinating thread first)
    tid_map: Dict[int, int] = {}
    for span in spans:
        if span.thread_id not in tid_map:
            tid_map[span.thread_id] = len(tid_map) + 1
    events: List[Dict[str, Any]] = [
        _metadata("process_name", pid, name=process_name)
    ]
    for tid in tid_map.values():
        label = "main" if tid == 1 else f"worker-{tid - 1}"
        events.append(_metadata("thread_name", pid, tid, name=label))
    for span in spans:
        args: Dict[str, Any] = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": tid_map[span.thread_id],
            "args": args,
        })
    return events


def timeline_to_trace_events(
    timeline: "Timeline",
    pid: int = PIPELINE_PID,
    origin: float = 0.0,
    process_name: str = "pipeline (simulated)",
) -> List[Dict[str, Any]]:
    """One complete event per (stage, microbatch, phase) interval, one
    track per pipeline stage.

    Interval times are simulated seconds from iteration start, exported
    as microseconds, so the sum of ``dur`` on a stage's track equals
    ``Timeline.stage_busy_time(stage) * 1e6`` exactly (tested)."""
    events: List[Dict[str, Any]] = [
        _metadata("process_name", pid, name=process_name)
    ]
    for s in range(timeline.num_stages):
        events.append(_metadata("thread_name", pid, s, name=f"stage {s}"))
    for iv in timeline.intervals:
        events.append({
            "name": f"{iv.phase} mb{iv.microbatch}",
            "cat": _PHASE_NAMES.get(iv.phase, iv.phase),
            "ph": "X",
            "ts": (iv.start - origin) * 1e6,
            "dur": iv.duration * 1e6,
            "pid": pid,
            "tid": iv.stage,
            "args": {
                "stage": iv.stage,
                "microbatch": iv.microbatch,
                "phase": iv.phase,
            },
        })
    return events


def chrome_trace(
    tracer: Optional[Union[Tracer, Iterable[Span]]] = None,
    timeline: Optional["Timeline"] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Assemble the Chrome-trace document from any subset of sources."""
    events: List[Dict[str, Any]] = []
    if tracer is not None:
        spans = tracer.spans() if isinstance(tracer, Tracer) else list(tracer)
        events.extend(spans_to_trace_events(spans))
    if timeline is not None:
        events.extend(timeline_to_trace_events(timeline))
    doc: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if isinstance(tracer, Tracer):
        doc["dropped_spans"] = tracer.dropped_spans
    if metrics is not None:
        doc["metrics"] = metrics.snapshot()
    return doc


def write_chrome_trace(
    path: str,
    tracer: Optional[Union[Tracer, Iterable[Span]]] = None,
    timeline: Optional["Timeline"] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Write ``trace.json``; returns the document written."""
    doc = chrome_trace(tracer=tracer, timeline=timeline, metrics=metrics)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


# ----------------------------------------------------------------------
def spans_to_jsonl(
    spans: Iterable[Span],
    metrics: Optional[MetricsRegistry] = None,
) -> str:
    """JSON-lines rendering: span records, then one metrics record."""
    lines = [
        json.dumps({"type": "span", **span.as_dict()}, sort_keys=True)
        for span in spans
    ]
    if metrics is not None:
        lines.append(
            json.dumps(
                {"type": "metrics", "values": metrics.snapshot()},
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(
    path: str,
    tracer: Union[Tracer, Iterable[Span]],
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    spans = tracer.spans() if isinstance(tracer, Tracer) else tracer
    with open(path, "w") as fh:
        fh.write(spans_to_jsonl(spans, metrics))

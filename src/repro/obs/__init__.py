"""Unified observability: trace spans, metrics, Perfetto export.

One tracer + one metrics registry thread through the planner (pass
spans, Algorithm-2 candidate spans, Algorithm-1 DP counters), the
pipeline simulator (per-stage timeline tracks) and the runtime
(opt-in per-task spans); :mod:`repro.obs.export` renders everything as
JSON-lines or a Chrome-trace ``trace.json`` that Perfetto loads.

See ``docs/OBSERVABILITY.md`` for the span/metric naming scheme, the
exporter formats, and a Perfetto walkthrough; ``repro plan --trace-out``
on the CLI produces a trace file in one command.
"""

from repro.obs.export import (
    PIPELINE_PID,
    PLANNER_PID,
    chrome_trace,
    spans_to_jsonl,
    spans_to_trace_events,
    timeline_to_trace_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    point_name,
)
from repro.obs.rss import peak_rss_bytes
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "PIPELINE_PID",
    "PLANNER_PID",
    "Span",
    "Tracer",
    "chrome_trace",
    "peak_rss_bytes",
    "point_name",
    "spans_to_jsonl",
    "spans_to_trace_events",
    "timeline_to_trace_events",
    "write_chrome_trace",
    "write_jsonl",
]

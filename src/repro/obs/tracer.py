"""Hierarchical trace spans with monotonic timestamps.

The :class:`Tracer` is the storage backend of the whole observability
layer: planner passes, Algorithm-2 candidates, Algorithm-1 DP calls,
pipeline-timeline intervals and (opt-in) runtime tasks all become
:class:`Span` records on one tracer, which the exporters in
:mod:`repro.obs.export` turn into JSON-lines or a Chrome-trace/Perfetto
``trace.json``.

Design points:

* **Monotonic clock.**  Timestamps are ``time.perf_counter()`` seconds;
  only differences (and differences to :attr:`Tracer.origin`) are
  meaningful, which is exactly what trace viewers need.
* **Nesting via a thread-local stack.**  ``span()`` is a context
  manager; the innermost open span on the *same thread* becomes the
  parent.  Work fanned out to a thread pool (the parallel Algorithm-2
  sweep) passes the coordinating span's id explicitly via ``parent_id``,
  so cross-thread edges survive.
* **Thread ids.**  Every span records ``threading.get_ident()`` at entry;
  the Perfetto exporter maps them to one track per thread, making the
  parallel sweep's interleaving visible.
* **Cheap when disabled.**  A ``Tracer(enabled=False)`` hands out a
  shared no-op span and appends nothing, so instrumented hot paths cost
  one attribute check.
* **Bounded.**  Completed spans live in a ring of :data:`MAX_SPANS`;
  once it is full each new span evicts the oldest and bumps
  :attr:`Tracer.dropped_spans`, so a long-lived process (the plan
  service) can leave tracing on without growing without bound.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Optional

#: completed spans a tracer keeps; the oldest are dropped beyond it.  A
#: traced cold plan of a 10k-task graph records about ten thousand
#: spans, so this holds several such runs (a span costs a few hundred
#: bytes)
MAX_SPANS = 1 << 16


class Span:
    """One named, timed interval with attributes and lineage."""

    __slots__ = (
        "name",
        "category",
        "start",
        "duration",
        "attrs",
        "span_id",
        "parent_id",
        "thread_id",
    )

    def __init__(
        self,
        name: str,
        category: str = "",
        start: float = 0.0,
        duration: float = 0.0,
        attrs: Optional[Dict[str, Any]] = None,
        span_id: int = 0,
        parent_id: Optional[int] = None,
        thread_id: int = 0,
    ) -> None:
        self.name = name
        self.category = category
        self.start = start
        self.duration = duration
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_id = thread_id

    @property
    def end(self) -> float:
        return self.start + self.duration

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "duration": self.duration,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"dur={self.duration * 1e3:.3f}ms, attrs={self.attrs})"
        )


class _NullSpan:
    """Shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()
    name = ""
    category = ""
    start = 0.0
    duration = 0.0
    end = 0.0
    span_id = 0
    parent_id = None
    thread_id = 0
    attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects completed :class:`Span` records, thread-safely.

    Keeps the newest :data:`MAX_SPANS` spans; :attr:`dropped_spans`
    counts the older ones evicted to make room.

    Args:
        enabled: when ``False``, :meth:`span` and :meth:`add_span` are
            no-ops (a shared null span is yielded), so instrumentation
            can stay in place at zero recording cost.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: Deque[Span] = deque(maxlen=MAX_SPANS)
        #: spans evicted from the full ring over the tracer's lifetime
        self.dropped_spans = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped_spans += 1
            self._spans.append(span)

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[Span]:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a timed span; the context body runs inside it.

        ``parent_id`` overrides the implicit thread-local parent — use
        it when the logical parent lives on another thread (e.g. the
        Algorithm-2 sweep submitting DP candidates to a pool).
        """
        if not self.enabled:
            yield NULL_SPAN
            return
        stack = self._stack()
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        span = Span(
            name,
            category=category,
            start=time.perf_counter(),
            attrs=attrs,
            span_id=next(self._ids),
            parent_id=parent_id,
            thread_id=threading.get_ident(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - span.start
            stack.pop()
            self._record(span)

    def add_span(
        self,
        name: str,
        category: str = "",
        duration: float = 0.0,
        start: Optional[float] = None,
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record an already-measured interval.

        When ``start`` is omitted the span is back-dated so it *ends*
        now — right for the "measure first, record after" pattern of the
        pass manager.  Returns the recorded span (a null span when the
        tracer is disabled).
        """
        if not self.enabled:
            return NULL_SPAN  # type: ignore[return-value]
        now = time.perf_counter()
        if start is None:
            start = now - duration
        stack = self._stack()
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        span = Span(
            name,
            category=category,
            start=start,
            duration=duration,
            attrs=attrs,
            span_id=next(self._ids),
            parent_id=parent_id,
            thread_id=threading.get_ident(),
        )
        self._record(span)
        return span

    # ------------------------------------------------------------------
    def spans(self, category: Optional[str] = None) -> List[Span]:
        """Snapshot of completed spans, optionally filtered by category.

        Ordered by completion time (append order), which for the pass
        pipeline equals execution order.
        """
        with self._lock:
            snapshot = list(self._spans)
        if category is None:
            return snapshot
        return [s for s in snapshot if s.category == category]

    def clear(self) -> None:
        """Forget the recorded spans (:attr:`dropped_spans` keeps its
        lifetime count)."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: shared disabled tracer for call sites that want "maybe trace" syntax
NULL_TRACER = Tracer(enabled=False)

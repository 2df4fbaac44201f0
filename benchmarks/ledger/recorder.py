"""The ledger's span recorder and the wrappers it installs from outside.

Spans are kept in memory as tuples
``(name, start_ns, end_ns, span_id, parent_id, op_id, thread, attrs)`` on
the system-wide monotonic clock, so spans recorded by the benchmark's
child processes and by the plan server line up on one timeline.  The
recorder is the benchmark's own rather than ``repro.obs`` so that the
ledger keeps measuring while the program's observability layer changes.
"""

from __future__ import annotations

import functools
import itertools
import resource
import threading
import time


class Recorder:
    """Collects timed spans; :meth:`wrap` turns a callable into a span."""

    def __init__(self, single_caller: bool = True) -> None:
        self.spans = []
        #: op id stamped on spans whose thread has none (the cold
        #: workloads plan one graph at a time, so this is that plan)
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._single_caller = single_caller

    def _stack(self):
        stack = self._local.__dict__.get("stack")
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def wrap(self, fn, name, attrs=None, new_op=False, rss=False):
        """``fn`` recording one span per call.  ``name`` is a string or a
        function of the call's arguments; ``attrs(args, result)`` adds
        span attributes; ``new_op`` makes the span the op of everything
        it calls on its thread; ``rss`` records the peak-RSS growth."""
        rec = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = rec._stack()
            span_id = next(rec._ids)
            parent = stack[-1] if stack else None
            if parent is None and rec._single_caller and rec._main_stack:
                try:  # a search pool thread: caused by the main thread
                    parent = rec._main_stack[-1]
                except IndexError:
                    pass
            prev_op = rec._local.__dict__.get("op")
            if new_op:
                rec._local.op = span_id
            op = rec._local.__dict__.get("op") or rec.op
            stack.append(span_id)
            rss0 = _maxrss_kib() if rss else 0
            start = time.monotonic_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                stack.pop()
                rec._local.op = prev_op
                extra = attrs(args, result) if attrs is not None else {}
                if rss:
                    extra["rss_delta_mib"] = (_maxrss_kib() - rss0) / 1024
                label = name if isinstance(name, str) else name(args)
                rec.spans.append((label, start, end, span_id, parent, op,
                                  threading.get_ident(), extra))

        return timed


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _pass_detail(args, detail):
    """Numeric fields of a pass's returned detail (``hit``,
    ``states_evaluated``, ...)."""
    return {k: v for k, v in (detail or {}).items()
            if isinstance(v, (bool, int, float))}


def _handle_detail(args, result):
    meta = (result or {}).get("meta", {})
    return {"method": args[1], "cache": meta.get("cache"),
            "coalesced": bool(meta.get("coalesced"))}


def install(rec: Recorder) -> None:
    """Wrap the public layer entry points the per-layer table reads:
    every built-in pass's ``run``, ``PassManager.run``, the stage DP,
    the artifact store and the service's request entry points."""
    from repro.partitioner import search
    from repro.planner import default_passes
    from repro.planner.manager import PassManager
    from repro.planner.store import ArtifactStore
    from repro.service import engine

    for cls in {type(p) for p in default_passes()}:
        if "run" in vars(cls):
            cls.run = rec.wrap(cls.run, lambda a: f"planner.pass.{a[0].name}",
                               attrs=_pass_detail, rss=True)
    PassManager.run = rec.wrap(PassManager.run, "planner.manager.run")
    search.form_stage_dp = rec.wrap(search.form_stage_dp, "stage_dp.call")
    ArtifactStore.get = rec.wrap(
        ArtifactStore.get, "store.get",
        attrs=lambda a, r: {"artifact": a[1], "hit": r is not None})
    ArtifactStore.put = rec.wrap(ArtifactStore.put, "store.put")
    ArtifactStore.refresh = rec.wrap(ArtifactStore.refresh, "store.refresh")
    engine.normalize_plan_request = rec.wrap(
        engine.normalize_plan_request, "service.normalize")
    engine.PlanEngine.handle = rec.wrap(
        engine.PlanEngine.handle, "service.handle",
        attrs=_handle_detail, new_op=True)


def chrome_trace(processes):
    """A Perfetto-loadable Chrome trace of ``{process label: spans}``:
    one ``pid`` per process, one track per recording thread."""
    starts = [s[1] for spans in processes.values() for s in spans]
    origin = min(starts) if starts else 0
    events = []
    for pid, (label, spans) in enumerate(sorted(processes.items()), 1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "args": {"name": label}})
        tids = {}
        for name, start, end, span_id, parent, op, thread, attrs in spans:
            tid = tids.setdefault(thread, len(tids) + 1)
            args = {"span": span_id, "parent": parent, "op": op}
            args.update(attrs)
            events.append({
                "ph": "X", "name": name, "cat": name.split(".")[0],
                "pid": pid, "tid": tid, "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3, "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}

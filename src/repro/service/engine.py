"""The plan engine: coalescing, shared artifact store, drain semantics.

:class:`PlanEngine` is the transport-independent core of the plan
service.  It owns

* one :class:`~repro.planner.store.ArtifactStore` shared by every
  request (optionally disk-backed under ``cache_dir`` with one LRU byte
  budget over the serialized artifacts, exactly as ``repro plan
  --cache-dir`` configures it), which serves repeated requests the
  stored plan whole,
* the **in-flight request table**: requests are keyed by the store
  address of the plan they determine
  (:attr:`~repro.service.protocol.PlanRequest.key`); concurrent
  duplicates coalesce onto the first caller's future, so N identical
  requests cost one pipeline run and N-1 waits,
* the service-level observability surface: ``service.*`` spans on a
  :class:`~repro.obs.tracer.Tracer` and request / coalesce / hit
  counters plus per-class latency histograms on a
  :class:`~repro.obs.metrics.MetricsRegistry`, and a per-request phase
  breakdown (``meta.timings``: normalize, pipeline, encode) on every
  plan response.

A warm hit that needs no computation -- its graph built and validated,
its plan in the store's memory tier with a verification record that
serves the request -- is answered by :meth:`PlanEngine.warm_plan`: the
request key, one memory-tier lookup, the per-hit digest of the stored
plan and the request's budget check; the plan's deployment JSON is the
response body as it stands.  No worker hand-off or pass runs (the HTTP
server calls it on its event loop).  Any other request goes through the
pass manager, where a warm hit costs a probe and the same digest and
budget check: the store verifies a stored plan once and remembers
validated graphs (see :mod:`repro.planner.store`).  A plan response is
never parsed and re-encoded: results carry the document as
:class:`~repro.service.protocol.RawJSON` and only the in-process
methods parse it.

Concurrency contract (the store/replan plumbing this engine relies on):

* :class:`~repro.planner.store.DiskBackend` writes are atomic
  (write-then-rename), so concurrent readers -- including a second
  engine process over the same ``cache_dir`` -- never observe a torn
  file, and a crash mid-write leaves at most an orphaned ``*.tmp``.
* :class:`~repro.planner.store.ArtifactStore` ``get``/``put``/
  ``refresh`` are linearizable (internal lock), so requests run fully
  in parallel against one store.
* A reused ``dp_context`` artifact (held in the store's memory tier
  only) is a content-addressed memo that concurrent runs of one model
  family share as it stands: each run keeps its cluster, budget and
  counters in its own :class:`~repro.partitioner.stage_dp.DPRun`, and
  the memo's fills are idempotent, so no request waits on another.

Delta requests need no special endpoint plumbing: every run attaches the
shared store, so the pass manager reruns exactly the invalidated
pipeline suffix (a cluster resize reuses atomic partition + coarsening +
profile tensors and reruns the stage search onward; see
:mod:`repro.planner.replan` for why the result is bit-identical to a
cold plan).  The ``replan`` method only adds the *contract*: it fails
with ``no_base`` unless the model family was planned before, so callers
can distinguish "cheap incremental update" from "schedule a cold plan".
"""

from __future__ import annotations

import concurrent.futures
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.tracer import Tracer
from repro.partitioner.stage_dp import TOTAL_METRICS
from repro.planner import PartitioningError, PlanningContext, default_passes
from repro.planner.events import OK
from repro.planner.store import ArtifactStore, DiskBackend
from repro.service.protocol import (
    PlanRequest,
    RawJSON,
    ServiceError,
    normalize_plan_request,
)

__all__ = ["PlanEngine"]

#: built graphs a :class:`PlanEngine` keeps, least recently used
#: dropped first
GRAPH_CACHE_MAX = 32

#: the run metrics a pool request adds to the engine's: the store memo
#: hits, the known layouts and the search totals
FOLDED_METRICS = (
    "verify.memo_hits",
    "validate.memo_hits",
    "evaluate.layout_hits",
    *TOTAL_METRICS.values(),
)

#: the passes a whole-plan store hit skips, in pipeline order: the
#: ``reused_passes`` of every warm answer
WARM_REUSED_PASSES = tuple(
    p.name for p in default_passes() if p.skip_when_planned
)


@dataclass(frozen=True)
class _Normalized:
    """A plan request normalized, and how long normalizing took.  The
    event loop hands a warm miss to the pool in this form, so it is not
    normalized twice."""

    req: PlanRequest
    normalize_ms: float


def _parsed(result: Dict[str, Any]) -> Dict[str, Any]:
    """``result`` with its :class:`RawJSON` plan parsed, for in-process
    callers."""
    return dict(result, plan=json.loads(result["plan"].text))


def _plan_meta(
    req: PlanRequest,
    cache: str,
    reused: List[str],
    plan: Any,
    plan_ms: float,
    timings: Dict[str, float],
) -> Dict[str, Any]:
    """The ``meta`` of a plan answer, from the event loop or the pool:
    the same keys in the same order either way (callers add
    ``wall_ms``)."""
    return {
        "fingerprint": req.key,
        "cache": cache,
        "reused_passes": reused,
        "verified": bool(req.config.verify),
        "plan_ms": plan_ms,
        "iteration_time": plan.iteration_time,
        "throughput": plan.throughput,
        "num_stages": plan.num_stages,
        "timings": timings,
    }


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


class _GraphCache:
    """Built graphs keyed by canonical model spec: an LRU of at most
    ``maxsize`` entries.  Each lookup and insert takes the lock on its
    own, so a request building a graph blocks no other request's
    lookup (two cold builds of one spec may race; the last one stays)."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._graphs: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, spec: str) -> Any:
        with self._lock:
            graph = self._graphs.get(spec)
            if graph is not None:
                self._graphs.move_to_end(spec)
            return graph

    def __setitem__(self, spec: str, graph: Any) -> None:
        with self._lock:
            self._graphs[spec] = graph
            self._graphs.move_to_end(spec)
            if len(self._graphs) > self.maxsize:
                self._graphs.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._graphs)


class PlanEngine:
    """Transport-independent plan service core (see module docstring).

    Args:
        cache_dir: root of the shared on-disk artifact cache; ``None``
            keeps everything in memory.
        cache_budget_bytes: LRU byte budget over the whole cache root.
        store_memory_budget_bytes: byte budget of the in-memory artifact
            tier (``None``: unbounded).
        workers: size of the pipeline thread pool -- the number of
            plans that can run concurrently, for any mix of models.
        tracer / metrics: observability sinks; fresh ones are created
            when omitted (exported via :meth:`export_trace`).
    """

    def __init__(
        self,
        cache_dir: Optional[Path] = None,
        cache_budget_bytes: Optional[int] = None,
        store_memory_budget_bytes: Optional[int] = None,
        workers: int = 2,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        disk = None
        if cache_dir is not None:
            disk = DiskBackend(Path(cache_dir), byte_budget=cache_budget_bytes)
        self.store = ArtifactStore(
            memory_budget_bytes=store_memory_budget_bytes, disk=disk
        )
        self.workers = max(1, int(workers))
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._graph_cache = _GraphCache(GRAPH_CACHE_MAX)
        self._inflight: Dict[str, concurrent.futures.Future] = {}
        self._inflight_lock = threading.Lock()
        #: model families (graph fingerprints) that completed >= 1 plan;
        #: the ``replan`` endpoint's base check
        self._planned_models: Set[str] = set()
        #: per-class latency samples backing the stats percentiles
        self._latency: Dict[str, List[float]] = {}
        self._latency_lock = threading.Lock()
        self._closing = threading.Event()
        # uptime must survive wall-clock jumps (NTP steps, DST): measure
        # it on the monotonic clock; keep the unix stamp for display only
        self.started_at = time.monotonic()
        self.started_at_unix = time.time()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, method: str, params: Any) -> Dict[str, Any]:
        """Serve one request; returns the ``result`` object in transport
        form or raises :class:`ServiceError`.  Thread-safe; blocks until
        done.

        A result's ``plan`` is the deployment document as
        :class:`~repro.service.protocol.RawJSON`, which the transport
        writes as it stands (:meth:`plan`, :meth:`replan` and
        :meth:`repair` are the parsed in-process API).  ``plan`` params
        may be the work :meth:`warm_plan` handed back."""
        handler = {
            "plan": self._plan,
            "replan": self._replan,
            "repair": self._repair,
            "verify": self.verify,
            "simulate": self.simulate,
            "serving_sim": self.serving_sim,
            "stats": lambda _params: self.stats(),
        }.get(method)
        if handler is None:
            raise ServiceError("not_found", f"unknown method {method!r}")
        return handler(params)

    # ------------------------------------------------------------------
    # plan / replan / simulate
    # ------------------------------------------------------------------
    def plan(self, params: Any) -> Dict[str, Any]:
        return _parsed(self._plan(params))

    def _plan(self, params: Any) -> Dict[str, Any]:
        if not isinstance(params, _Normalized):
            result, params = self.warm_plan(params)
            if result is not None:
                return result
        document, meta = self._coalesced_plan(self._normalized(params))
        return {"plan": RawJSON(document), "meta": meta}

    def warm_plan(self, params: Any) -> Tuple[Optional[Dict[str, Any]], Any]:
        """Answer a ``plan`` request whose plan needs no computation.

        The one warm path: the server runs it on its event loop before
        handing a request to the worker pool, and :meth:`plan` runs it
        first too.  It answers only when the pool would compute
        nothing: the request's graph is in the graph cache (this path
        never builds one), the store remembers the graph as validated,
        and the plan's ``evaluated`` entry is in the store's memory tier
        with a verification record that serves the request
        (:meth:`ArtifactStore.recorded_plan`: the per-hit digest
        matches, and the plan fits the request's budget).  It reads no
        file and runs no pass and no full check.

        Returns ``(result, None)`` for an answer -- the stored document
        as it stands, with the counters and warm latency sample a pool
        hit records -- and otherwise ``(None, work)``: what to hand
        :meth:`handle`, the request normalized here or, when its graph
        is not built yet, the raw ``params``.  A draining engine answers
        nothing here: the pool joins an in-flight run of the same plan
        or refuses with ``shutting_down``.  Raises :class:`ServiceError`
        for a malformed request.
        """
        started = time.perf_counter()
        req = self._normalize(params, build_graph=False)
        if req is None:
            return None, params
        looked_up = time.perf_counter()
        work = self._timed_normalize(req, started, looked_up)
        if self._closing.is_set() or not self.store.graph_validated(
            req.model_key
        ):
            return None, work
        served = self.store.recorded_plan(req.key, req)
        if served is None:
            return None, work
        plan, document, _report = served
        done = time.perf_counter()
        lookup_ms = (done - looked_up) * 1e3
        wall_ms = (done - started) * 1e3
        self._planned_models.add(req.model_key)
        for name in (
            "service.requests",
            "service.warm_results",
            "service.loop_answers",
            "verify.memo_hits",
            "validate.memo_hits",
        ):
            self.metrics.counter(name).inc()
        self._observe_latency("warm", wall_ms)
        self.tracer.add_span(
            "service.warm_answer",
            category="service",
            start=started,
            duration=done - started,
            attrs={"fingerprint": req.key},
        )
        meta = _plan_meta(
            req, "warm", list(WARM_REUSED_PASSES), plan, lookup_ms,
            {
                "pipeline_ms": lookup_ms,
                "encode_ms": 0.0,
                "normalize_ms": work.normalize_ms,
            },
        )
        meta["wall_ms"] = wall_ms
        return {"plan": RawJSON(document), "meta": meta}, None

    def replan(self, params: Any) -> Dict[str, Any]:
        """Delta contract: like ``plan``, but only against a warm base.

        Fails with ``no_base`` (HTTP 409) when this engine never
        finished a plan for the model family, instead of silently
        falling back to a cold run.
        """
        return _parsed(self._replan(params))

    def _replan(self, params: Any) -> Dict[str, Any]:
        work = self._normalized(params)
        req = work.req
        if req.model_key not in self._planned_models:
            raise ServiceError(
                "no_base",
                "replan requires a previous plan for this model; "
                "POST /v1/plan first",
                {"model": json.loads(req.model_spec)},
            )
        document, meta = self._coalesced_plan(work)
        return {"plan": RawJSON(document), "meta": meta}

    def repair(self, params: Any) -> Dict[str, Any]:
        """Replan-on-event: repair the deployed plan after a cluster
        event (node loss, preemption, scale-up), migrating as few
        (replica, stage) pairs as possible.

        The request is a ``plan`` request (model + *pre-event* cluster +
        batch_size/options) plus an ``event`` object (see
        :func:`~repro.service.protocol.parse_event`).  Like ``replan``,
        it fails with ``no_base`` unless this engine already planned the
        model family; the base plan itself is rebuilt from the shared
        store, which is a full reuse after any earlier ``plan``.
        """
        return _parsed(self._repair(params))

    def _repair(self, params: Any) -> Dict[str, Any]:
        from repro.partitioner.deployment import plan_to_json
        from repro.planner.repair import repair as plan_repair
        from repro.service.protocol import parse_event

        params = params if isinstance(params, dict) else {}
        event = parse_event(params.get("event"))
        req = self._normalize(
            {k: v for k, v in params.items() if k != "event"}
        )
        if req.model_key not in self._planned_models:
            raise ServiceError(
                "no_base",
                "repair requires a previous plan for this model; "
                "POST /v1/plan first",
                {"model": json.loads(req.model_spec)},
            )
        started = time.perf_counter()
        self.metrics.counter("service.repair_requests").inc()
        ctx = PlanningContext(
            req.graph, req.cluster, req.config, store=self.store
        )
        with self.tracer.span(
            "service.repair",
            category="service",
            model=req.graph.name,
            event=event.kind,
        ) as span:
            try:
                ctx.run()
                result = plan_repair(ctx, event)
            except PartitioningError as exc:
                span.set(outcome="infeasible")
                raise ServiceError("infeasible", str(exc)) from exc
            except ValueError as exc:
                span.set(outcome="bad_request")
                raise ServiceError("bad_request", str(exc)) from exc
            span.set(
                outcome="ok",
                full_replan=result.used_full_replan,
                migrated=result.migrated_pairs,
            )
        wall_ms = (time.perf_counter() - started) * 1e3
        self._observe_latency("repair", wall_ms)
        return {
            "plan": RawJSON(plan_to_json(result.plan, req.graph)),
            "repair": {
                "event": event.kind,
                "used_full_replan": result.used_full_replan,
                "fallback_reason": result.fallback_reason,
                "migrated_pairs": result.migrated_pairs,
                "migration_bytes": result.migration_bytes,
                "migration_time_s": result.migration_time,
                "repair_latency_s": result.repair_latency,
                "surviving_devices": result.cluster.total_devices,
            },
            "meta": {
                "fingerprint": req.key,
                "wall_ms": wall_ms,
                "iteration_time": result.plan.iteration_time,
                "throughput": result.plan.throughput,
                "num_stages": result.plan.num_stages,
            },
        }

    def simulate(self, params: Any) -> Dict[str, Any]:
        """Plan (warm requests reuse everything) and report the simulated
        GPipe flush-synchronous timeline (all forwards, then all
        backwards): makespan, bubble, per-stage utilization.  The
        timeline is simulated from the plan's deployment document, which
        carries each stage's times and the microbatch count."""
        from repro.pipeline.simulator import flush_schedule

        document, meta = self._coalesced_plan(self._normalized(params))
        doc = json.loads(document)
        stages = [s["profile"] for s in doc["stages"]]
        timing = flush_schedule(
            [p["time_fwd"] for p in stages],
            [p["time_bwd"] for p in stages],
            doc["num_microbatches"],
        )
        return {
            "meta": meta,
            "timeline": {
                "makespan": timing.makespan,
                "bubble_fraction": timing.bubble_fraction(),
                "num_stages": len(stages),
                "stage_utilization": [
                    timing.utilization(s) for s in range(len(stages))
                ],
                "iteration_time": meta["iteration_time"],
                "throughput": meta["throughput"],
            },
        }

    #: numeric serving-sim request knobs -> coercion applied
    _SERVING_SIM_KNOBS = {
        "rps": float,
        "slo_ms": float,
        "duration_s": float,
        "seed": int,
        "max_wait_ms": float,
        "max_replicas": int,
        "batch_size": int,
        "samples_per_request": int,
    }

    def serving_sim(self, params: Any) -> Dict[str, Any]:
        """Plan in inference mode and simulate serving the offered load
        (``POST /v1/serving-sim``).

        The request carries ``model`` / ``cluster`` (a spec object or a
        preset name string) plus the knobs of
        :func:`repro.serving.api.run_serving_sim` (``rps``, ``slo_ms``,
        ``duration_s``, ``seed``, ``max_wait_ms``, ``max_replicas``,
        ``batch_size``, ``samples_per_request``).  The whole computation
        is deterministic, so the returned ``serving`` summary is
        identical to what ``repro serve-sim`` prints for the same
        arguments -- a test holds the two surfaces to that contract.
        """
        from repro.serving import run_serving_sim

        if not isinstance(params, dict):
            raise ServiceError("bad_request", "params must be a JSON object")
        model = params.get("model")
        cluster = params.get("cluster")
        if model is None or cluster is None:
            raise ServiceError("bad_request", "missing 'model' or 'cluster'")
        unknown = sorted(
            set(params) - set(self._SERVING_SIM_KNOBS) - {"model", "cluster"}
        )
        if unknown:
            raise ServiceError(
                "bad_request",
                f"unknown serving-sim parameters {unknown}; supported: "
                f"{sorted(self._SERVING_SIM_KNOBS)}",
            )
        kwargs = {}
        for name, cast in self._SERVING_SIM_KNOBS.items():
            if name in params:
                try:
                    kwargs[name] = cast(params[name])
                except (TypeError, ValueError) as exc:
                    raise ServiceError(
                        "bad_request", f"invalid {name!r}: {exc}"
                    ) from exc
        started = time.perf_counter()
        self.metrics.counter("service.serving_sim_requests").inc()
        with self.tracer.span(
            "service.serving_sim", category="service"
        ) as span:
            try:
                summary = run_serving_sim(model, cluster, **kwargs)
            except PartitioningError as exc:
                span.set(outcome="infeasible")
                raise ServiceError("infeasible", str(exc)) from exc
            except ValueError as exc:
                span.set(outcome="bad_request")
                raise ServiceError("bad_request", str(exc)) from exc
            span.set(
                outcome="ok",
                replicas=summary["replicas"],
                met_slo=summary["met_slo"],
            )
        wall_ms = (time.perf_counter() - started) * 1e3
        self._observe_latency("serving_sim", wall_ms)
        return {"serving": summary, "meta": {"wall_ms": wall_ms}}

    # ------------------------------------------------------------------
    # verify
    # ------------------------------------------------------------------
    def verify(self, params: Any) -> Dict[str, Any]:
        """Round-trip a deployment document through
        :func:`~repro.partitioner.deployment.plan_from_json` and the full
        :mod:`repro.verify` invariants."""
        from repro.partitioner.deployment import (
            DeploymentMismatchError,
            plan_from_json,
        )
        from repro.service.protocol import build_cluster, build_model
        from repro.verify import PlanVerificationError

        if not isinstance(params, dict):
            raise ServiceError("bad_request", "params must be a JSON object")
        plan_doc = params.get("plan")
        if not isinstance(plan_doc, dict):
            raise ServiceError(
                "bad_request", "missing 'plan' (a deployment document)"
            )
        if params.get("model") is None or params.get("cluster") is None:
            raise ServiceError("bad_request", "missing 'model' or 'cluster'")
        graph, _ = build_model(params["model"])
        cluster, _ = build_cluster(params["cluster"])
        started = time.perf_counter()
        with self.tracer.span(
            "service.verify", category="service", model=graph.name
        ):
            try:
                plan = plan_from_json(
                    json.dumps(plan_doc), graph, cluster, verify=True
                )
            except PlanVerificationError as exc:
                raise ServiceError(
                    "verification_failed",
                    f"{len(exc.violations)} invariant violation(s)",
                    {"violations": [str(v) for v in exc.violations]},
                ) from exc
            except (DeploymentMismatchError, ValueError, KeyError) as exc:
                raise ServiceError(
                    "verification_failed", str(exc)
                ) from exc
        self.metrics.counter("service.verify_requests").inc()
        return {
            "verified": True,
            "model": plan.model_name,
            "num_stages": plan.num_stages,
            "num_microbatches": plan.num_microbatches,
            "replica_factor": plan.replica_factor,
            "wall_ms": (time.perf_counter() - started) * 1e3,
        }

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._inflight_lock:
            inflight = len(self._inflight)
        with self._latency_lock:
            latency = {
                kind: {
                    "count": len(samples),
                    "p50_ms": _percentile(samples, 50),
                    "p99_ms": _percentile(samples, 99),
                    "mean_ms": sum(samples) / len(samples),
                }
                for kind, samples in self._latency.items()
                if samples
            }
        return {
            "uptime_s": time.monotonic() - self.started_at,
            "started_at_unix": self.started_at_unix,
            "inflight": inflight,
            "draining": self._closing.is_set(),
            "models_planned": len(self._planned_models),
            "latency_ms": latency,
            "counters": {
                name: value
                for name, value in self.metrics.snapshot().items()
                if name.startswith(("service.", "verify.", "validate.",
                                     "evaluate.", "search.", "dp.",
                                     "profiler."))
            },
            "store": self.store.stats(),
            "spans": len(self.tracer),
            "dropped_spans": self.tracer.dropped_spans,
        }

    def export_trace(self, path) -> int:
        """Write the serving window's spans + metrics as a Perfetto /
        Chrome trace; returns the number of trace events."""
        from repro.obs import write_chrome_trace

        doc = write_chrome_trace(path, tracer=self.tracer, metrics=self.metrics)
        return len(doc["traceEvents"])

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Stop accepting new plan work and wait for in-flight requests.

        Returns ``True`` when everything completed inside ``timeout``.
        New submissions fail fast with ``shutting_down`` (HTTP 503);
        requests already coalesced keep their future and still get the
        leader's result.  Store writes are atomic, so even an abandoned
        drain leaves no torn cache entries -- a later engine over the
        same ``cache_dir`` sees either the old bytes or the new bytes,
        never a mix (miss-then-repair covers deleted/truncated files).
        """
        self._closing.set()
        with self._inflight_lock:
            pending = list(self._inflight.values())
        done, not_done = concurrent.futures.wait(pending, timeout=timeout)
        return not not_done

    @property
    def draining(self) -> bool:
        return self._closing.is_set()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _normalize(
        self, params: Any, build_graph: bool = True
    ) -> Optional[PlanRequest]:
        return normalize_plan_request(
            params,
            graph_cache=self._graph_cache,
            build_graph=build_graph,
        )

    def _normalized(self, params: Any) -> _Normalized:
        """``params`` normalized and timed (as it stands when the event
        loop normalized it already)."""
        if isinstance(params, _Normalized):
            return params
        started = time.perf_counter()
        req = self._normalize(params)
        return self._timed_normalize(req, started, time.perf_counter())

    def _timed_normalize(
        self, req: PlanRequest, started: float, done: float
    ) -> _Normalized:
        """``req`` with its normalization time, recorded as one
        ``service.normalize`` span: a request gets one, on the loop
        when its graph was built already and in the pool otherwise."""
        self.tracer.add_span(
            "service.normalize",
            category="service",
            start=started,
            duration=done - started,
            attrs={"fingerprint": req.key},
        )
        return _Normalized(req, (done - started) * 1e3)

    def _coalesced_plan(self, work: _Normalized) -> Tuple[str, Dict[str, Any]]:
        """``(deployment JSON, meta)``: one pipeline run per in-flight
        key; followers share it.

        ``meta.wall_ms`` counts from ``now`` less ``work.normalize_ms``:
        the normalization and everything after it, but never the wait
        in the pool's queue, whether the request was normalized in the
        pool or on the event loop.  A follower reports its wait on the
        leader as ``pipeline_ms``.
        """
        req = work.req
        started = time.perf_counter() - work.normalize_ms / 1e3
        self.metrics.counter("service.requests").inc()
        with self._inflight_lock:
            future = self._inflight.get(req.key)
            leader = future is None
            if leader:
                if self._closing.is_set():
                    raise ServiceError(
                        "shutting_down", "service is draining; retry elsewhere"
                    )
                future = concurrent.futures.Future()
                self._inflight[req.key] = future
        if leader:
            try:
                future.set_result(self._execute(req))
            except BaseException as exc:  # propagate to every waiter
                future.set_exception(exc)
            finally:
                with self._inflight_lock:
                    self._inflight.pop(req.key, None)
        else:
            self.metrics.counter("service.coalesced").inc()
        waited = time.perf_counter()
        try:
            document, meta = future.result()
        except concurrent.futures.CancelledError:
            raise ServiceError(
                "shutting_down", "request cancelled during shutdown"
            ) from None
        done = time.perf_counter()
        wall_ms = (done - started) * 1e3
        meta = dict(meta)
        meta["wall_ms"] = wall_ms
        if leader:
            timings = dict(meta["timings"])
        else:
            timings = {
                "pipeline_ms": (done - waited) * 1e3,
                "encode_ms": 0.0,
            }
        timings["normalize_ms"] = work.normalize_ms
        meta["timings"] = timings
        if not leader:
            meta["coalesced"] = True
            self._observe_latency("coalesced", wall_ms)
        else:
            self._observe_latency(meta["cache"], wall_ms)
        return document, meta

    def _execute(self, req: PlanRequest) -> Tuple[str, Dict[str, Any]]:
        """Run the planning pipeline for one (leader) request; returns
        the plan's deployment JSON and the response meta."""
        from repro.partitioner.deployment import plan_to_json

        # the run records its passes on the engine's tracer, under the
        # request's ``service.plan`` span
        ctx = PlanningContext(
            req.graph,
            req.cluster,
            req.config,
            tracer=self.tracer,
            store=self.store,
        )
        run_started = time.perf_counter()
        with self.tracer.span(
            "service.plan",
            category="service",
            model=req.graph.name,
            devices=req.cluster.total_devices,
            fingerprint=req.key,
        ) as span:
            try:
                plan = ctx.run()
            except PartitioningError as exc:
                span.set(outcome="infeasible")
                raise ServiceError("infeasible", str(exc)) from exc
            with self.tracer.span("service.classify", category="service"):
                cache_kind, reused = self._classify(ctx)
            span.set(outcome="ok", cache=cache_kind)
            with self.tracer.span("service.fold", category="service"):
                self._planned_models.add(req.model_key)
                self.metrics.counter(f"service.{cache_kind}_results").inc()
                # the run's store memo hits and search totals: counters
                # sum over runs, a gauge (the widest slab) holds the
                # latest run's value
                for name in FOLDED_METRICS:
                    metric = ctx.metrics.get(name)
                    if isinstance(metric, Gauge):
                        self.metrics.gauge(name).set(metric.value)
                    elif metric is not None:
                        self.metrics.counter(name).inc(metric.value)
            encode_started = time.perf_counter()
            with self.tracer.span("service.encode", category="service"):
                # the verify pass or the store probe encoded the document
                # its verification record hashes; a run that recorded
                # none encodes it here
                document = ctx.plan_document or plan_to_json(plan, req.graph)
        done = time.perf_counter()
        meta = _plan_meta(
            req, cache_kind, reused, plan, (done - run_started) * 1e3,
            {
                "pipeline_ms": (encode_started - run_started) * 1e3,
                "encode_ms": (done - encode_started) * 1e3,
            },
        )
        return document, meta

    @staticmethod
    def _classify(ctx: PlanningContext) -> Tuple[str, List[str]]:
        """``(cache kind, reused pass names)`` from the run's event log.
        The kind says whether the run computed the plan:

        * ``warm``: no compute pass ran (the store served the finished
          plan, or every compute pass's artifacts);
        * ``delta``: some passes were reused and the rest ran (the
          pipeline reran only the invalidated suffix) -- also a run
          whose stage search returned a known layout, which ``evaluate``
          then took from the store: it searched;
        * ``cold``: nothing was reused.
        """
        reused = []
        computed = False
        for event in ctx.events:
            if event.detail.get("reuse"):
                reused.append(event.name)
            elif event.status == OK and event.name in WARM_REUSED_PASSES:
                computed = True
        if not reused:
            return "cold", reused
        return ("delta" if computed else "warm"), reused

    def _observe_latency(self, kind: str, wall_ms: float) -> None:
        self.metrics.histogram(f"service.latency_ms.{kind}").observe(wall_ms)
        with self._latency_lock:
            samples = self._latency.setdefault(kind, [])
            samples.append(wall_ms)
            if len(samples) > 4096:  # bound stats memory under load
                del samples[: len(samples) - 4096]

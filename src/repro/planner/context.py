"""Planner configuration and the context threaded through every pass."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.planner.events import EventLog
from repro.profiler.memory import OptimizerKind
from repro.profiler.profiler import GraphProfiler

#: canonical artifact names produced by the built-in passes
VALIDATED = "validated"
COMPONENTS = "components"
BLOCKS = "blocks"
DP_CONTEXT = "dp_context"
SEARCH_RESULT = "search_result"
PLAN = "plan"
EVALUATED = "evaluated"
VERIFIED = "verified"
FRAMEWORK_RESULT = "framework_result"


@dataclass(frozen=True)
class PlannerConfig:
    """Everything the planning pipeline needs besides graph + cluster.

    The fields mirror the historical ``auto_partition`` keyword
    arguments; :meth:`fingerprint` hashes the plan-determining subset so
    the plan service can coalesce requests on it (``validate``,
    ``verify``, ``cache_dir`` and ``trace`` change how the pipeline runs,
    not what plan it produces, and are excluded -- tracing/verification
    only record or check what happened).  How the stage search runs is
    not a field either: Algorithm 1 has one evaluation path (banded
    profiles, see ``docs/SCALING.md``) and Algorithm 2 runs its sweeps
    serially, in one thread.

    ``trace`` turns on fine-grained span recording (per-candidate
    Algorithm-2 spans, per-call Algorithm-1 DP spans) on the context's
    tracer; pass-level spans and search counters are always on -- they
    back the event log and ``PlanDiagnostics`` -- and are too few to
    measure.

    ``comm_model`` selects the communication cost model
    (:mod:`repro.comm`): ``None`` inherits the cluster's own setting,
    ``"flat"``/``"topology"`` override it for this run.  The model is
    plan-determining (it prices stage boundaries and allreduce), so it
    participates in :meth:`fingerprint`.

    ``memory_budget`` optionally caps the per-device memory the stage
    search may fill *below* the hardware capacity (bytes; ``None`` means
    capacity).  It bounds only the DP's feasibility check -- coarsening
    keeps using the raw device capacity -- so a budget change invalidates
    the stage search but reuses the coarsening and profile-tensor
    artifacts under delta replanning.  Plan-determining, so it enters
    :meth:`fingerprint`; ``None`` is omitted from the hashed document to
    keep default-config fingerprints identical to earlier releases.

    ``cache_dir`` gives every context built from this config a disk-backed
    :class:`~repro.planner.store.ArtifactStore` rooted there: a repeated
    run is served the stored plan whole, and a changed one reuses every
    still-valid artifact, across processes.

    ``cache_budget_bytes`` is the LRU byte budget of the on-disk cache
    backend (serialized artifacts, the finished plan included); ``None`` leaves
    the cache unbounded.  A run-mode knob: it changes what stays cached,
    never what plan is produced, so it is excluded from the fingerprint.

    Example -- the paper's BERT setup with tracing and a bounded disk
    cache::

        config = PlannerConfig(
            batch_size=256,
            num_blocks=32,            # block-level partitioning k
            comm_model="topology",    # link-level communication costs
            memory_budget=24 * 2**30, # cap the stage search at 24 GiB
            cache_dir="~/.cache/repro",
            cache_budget_bytes=256 * 2**20,
            trace=True,
        )

    The full knob-by-knob table lives in ``docs/SERVICE.md`` (the plan
    service exposes most of these as request ``options``).
    """

    batch_size: int
    precision: Precision = Precision.FP32
    num_blocks: int = 32
    optimizer: OptimizerKind = OptimizerKind.ADAM
    mode: str = "training"
    max_microbatches: Optional[int] = None
    validate: bool = True
    verify: bool = True
    schedule: str = "sync"
    cache_dir: Optional[Union[str, Path]] = None
    trace: bool = False
    comm_model: Optional[str] = None
    memory_budget: Optional[float] = None
    cache_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("training", "inference"):
            raise ValueError(
                f"unknown mode {self.mode!r}; "
                f"expected 'training' or 'inference'"
            )

    def fingerprint(self) -> str:
        """Stable content hash of the plan-determining fields."""
        doc = {
            "batch_size": self.batch_size,
            "precision": self.precision.value,
            "num_blocks": self.num_blocks,
            "optimizer": self.optimizer.value,
            "max_microbatches": self.max_microbatches,
            "schedule": self.schedule,
            "comm_model": self.comm_model,
        }
        if self.memory_budget is not None:
            # only hashed when set, so default-config fingerprints stay
            # identical to earlier releases
            doc["memory_budget"] = self.memory_budget
        if self.mode != "training":
            # same back-compat contract as memory_budget: training-mode
            # fingerprints are byte-identical to earlier releases
            doc["mode"] = self.mode
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class PlanningContext:
    """Mutable state shared by the passes of one planning run.

    Holds the immutable inputs (graph, cluster, config), the lazily
    constructed profiler, the per-run artifact dict passes read from and
    write to, optionally a cross-run content-addressed
    :class:`~repro.planner.store.ArtifactStore` (whole-plan hits and
    delta replanning; always present when ``config.cache_dir`` is set), and
    the run's observability surface: a
    :class:`~repro.obs.tracer.Tracer` (also the storage behind the
    structured event log the :class:`~repro.planner.manager.PassManager`
    appends to) and a :class:`~repro.obs.metrics.MetricsRegistry` the
    search layers record counters into.
    """

    def __init__(
        self,
        graph: TaskGraph,
        cluster: ClusterSpec,
        config: PlannerConfig,
        profiler: Optional[GraphProfiler] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        store: Optional["ArtifactStore"] = None,
    ) -> None:
        self.graph = graph
        # an explicit config.comm_model overrides the cluster's own
        # setting, so every pass (and the plan itself) sees one
        # consistent communication model
        if (
            config.comm_model is not None
            and config.comm_model != cluster.comm_model
        ):
            cluster = cluster.with_comm_model(config.comm_model)
        self.cluster = cluster
        self.config = config
        self.profiler = profiler
        self.artifacts: Dict[str, Any] = {}
        # the tracer stays enabled regardless of config.trace: it stores
        # the pass events; config.trace gates the *fine-grained* spans
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = EventLog(self.tracer)
        #: fingerprints of the artifacts produced (or reused) this run,
        #: keyed by artifact name; feeds downstream passes' input
        #: fingerprints and seeds the store for later delta replans
        self.artifact_fps: Dict[str, str] = {}
        self.store: Optional["ArtifactStore"] = None
        #: a plan served whole from the store: its deployment JSON,
        #: encoded once, and the report of the probe that verified it
        self.plan_document: Optional[str] = None
        self.plan_report: Optional[Any] = None
        if store is None and config.cache_dir is not None:
            from repro.planner.store import ArtifactStore

            store = ArtifactStore()
        if store is not None:
            self.attach_store(store)

    # ------------------------------------------------------------------
    # artifact store
    # ------------------------------------------------------------------
    def has(self, name: str) -> bool:
        return name in self.artifacts

    def get(self, name: str, default: Any = None) -> Any:
        return self.artifacts.get(name, default)

    def require(self, name: str) -> Any:
        """Fetch an artifact an earlier pass must have produced."""
        try:
            return self.artifacts[name]
        except KeyError:
            raise KeyError(
                f"artifact {name!r} has not been produced "
                f"(available: {sorted(self.artifacts)})"
            ) from None

    def put(self, name: str, value: Any) -> Any:
        self.artifacts[name] = value
        return value

    # ------------------------------------------------------------------
    # incremental replanning
    # ------------------------------------------------------------------
    def attach_store(self, store: "ArtifactStore") -> "ArtifactStore":
        """Adopt a cross-run artifact store.  A configured ``cache_dir``
        lends a store without a disk tier its backend, so planning with
        a ``cache_dir`` always persists and reuses artifacts on disk."""
        if store.disk is None and self.config.cache_dir is not None:
            from repro.planner.store import DiskBackend

            store.disk = DiskBackend(
                Path(self.config.cache_dir),
                byte_budget=self.config.cache_budget_bytes,
            )
        self.store = store
        return store

    def facets(self) -> Dict[str, str]:
        """Digest of every input facet of this run (see
        :mod:`repro.planner.facets`)."""
        from repro.planner.facets import compute_facets

        return compute_facets(self.graph, self.cluster, self.config)

    # ------------------------------------------------------------------
    def check_plan(
        self, plan: Any, expected_iteration_time: Optional[float] = None
    ) -> Any:
        """:func:`repro.verify.check_plan` of ``plan`` under this run's
        graph, cluster, optimizer and schedule, inside a ``verify.plan``
        span.  ``expected_iteration_time`` is the stage search's estimate
        for a plan searched this run (``None`` for a stored plan)."""
        from repro.verify import check_plan

        with self.tracer.span(
            "verify.plan", category="verify", model=plan.model_name
        ):
            return check_plan(
                plan,
                self.graph,
                self.cluster,
                profiler=self.ensure_profiler(),
                optimizer=self.config.optimizer,
                expected_iteration_time=expected_iteration_time,
                schedule=self.config.schedule,
            )

    def ensure_profiler(self) -> GraphProfiler:
        """The run's profiler, constructing the default one on demand.

        Construction is the one pass that builds the graph table every
        pre-search layer reads; it is recorded as a ``profiler.build``
        span (``tasks``, ``values``, ``ms``) inside whichever pass first
        asked (``coarsen`` on a cold plan)."""
        if self.profiler is None:
            start = time.perf_counter()
            self.profiler = GraphProfiler(
                self.graph,
                self.cluster,
                self.config.precision,
                self.config.optimizer,
                mode=self.config.mode,
            )
            elapsed = time.perf_counter() - start
            self.tracer.add_span(
                "profiler.build",
                category="profiler",
                start=start,
                duration=elapsed,
                attrs={
                    "tasks": len(self.graph.tasks),
                    "values": len(self.graph.values),
                    "ms": elapsed * 1e3,
                },
            )
        return self.profiler

"""Planner configuration and the context threaded through every pass."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.planner.events import EventLog
from repro.profiler.memory import OptimizerKind
from repro.profiler.profiler import GraphProfiler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partitioner.plan import PartitionPlan
    from repro.planner.manager import PlannerPass
    from repro.planner.store import ArtifactStore, LayoutPlan

#: canonical artifact names produced by the built-in passes
VALIDATED = "validated"
COMPONENTS = "components"
BLOCKS = "blocks"
DP_CONTEXT = "dp_context"
SEARCH_RESULT = "search_result"
EVALUATED = "evaluated"
VERIFIED = "verified"

#: the largest global batch size a plan may have.  Algorithm 2 tries
#: microbatch counts up to ``BS / R`` and simulates each candidate's
#: flush schedule one microbatch at a time, so the search grows linearly
#: with the batch size (~9 s at 2**24 for a 3-layer MLP on one 8-V100
#: node); from 2**62 numpy cannot index the search's arrays at all
MAX_BATCH_SIZE = 2**24


@dataclass(frozen=True)
class PlannerConfig:
    """Everything the planning pipeline needs besides graph + cluster.

    The fields mirror the ``auto_partition`` keyword arguments.  Which of
    them determine the plan is decided by the passes that read them: each
    pass declares its input facets (:mod:`repro.planner.facets`), and the
    ``evaluate`` pass's input fingerprint is the finished plan's address
    (:func:`~repro.planner.facets.plan_address`).  ``verify`` and
    ``trace`` change how the pipeline runs, not what plan it produces,
    so no facet reads them.  How the stage search runs is not a field
    either: Algorithm 1 has one evaluation path (banded profiles, see
    ``docs/SCALING.md``) and Algorithm 2 runs its sweeps serially, in
    one thread.

    Each planner input has one owner, and three that look like knobs
    are not fields here (DESIGN.md "One owner per planner input"):

    * every plan is priced under the flush-synchronous schedule the
      stage search ranks candidates by;
      :func:`~repro.pipeline.hybrid.evaluate_plan` re-prices a finished
      plan under a 1F1B schedule;
    * the communication cost model is the cluster's
      (``ClusterSpec.comm_model``, see :mod:`repro.comm`);
    * a run persists its artifacts when the
      :class:`~repro.planner.store.ArtifactStore` it is handed has a
      :class:`~repro.planner.store.DiskBackend` (the cache root and its
      byte budget).

    ``trace`` turns on fine-grained span recording (per-candidate
    Algorithm-2 spans, per-call Algorithm-1 DP spans) on the context's
    tracer; pass-level spans and search counters are always on -- they
    back the event log and ``PlanDiagnostics`` -- and are too few to
    measure.

    ``memory_budget`` optionally caps the per-device memory the stage
    search may fill *below* the hardware capacity (bytes; ``None`` means
    capacity).  It bounds only the DP's feasibility check -- coarsening
    keeps using the raw device capacity -- so a budget change invalidates
    the stage search but reuses the coarsening and profile-tensor
    artifacts under delta replanning.

    Example -- the paper's BERT setup with tracing, planned under the
    topology communication model with a bounded disk cache::

        config = PlannerConfig(
            batch_size=256,
            num_blocks=32,            # block-level partitioning k
            memory_budget=24 * 2**30, # cap the stage search at 24 GiB
            trace=True,
        )
        store = ArtifactStore(disk=DiskBackend(
            Path("~/.cache/repro").expanduser(), byte_budget=256 * 2**20,
        ))
        plan = PlanningContext(
            graph, cluster.with_comm_model("topology"), config, store=store,
        ).run()

    The full knob-by-knob table lives in ``docs/SERVICE.md`` (the plan
    service exposes most of these as request ``options``).
    """

    batch_size: int
    precision: Precision = Precision.FP32
    num_blocks: int = 32
    optimizer: OptimizerKind = OptimizerKind.ADAM
    mode: str = "training"
    max_microbatches: Optional[int] = None
    verify: bool = True
    trace: bool = False
    memory_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in ("training", "inference"):
            raise ValueError(
                f"unknown mode {self.mode!r}; "
                f"expected 'training' or 'inference'"
            )
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ValueError(
                f"batch_size must be <= {MAX_BATCH_SIZE}, got {self.batch_size}"
            )
        if self.max_microbatches is not None and self.max_microbatches < 1:
            raise ValueError(
                f"max_microbatches must be >= 1, got {self.max_microbatches}"
            )
        if self.memory_budget is not None and not (
            math.isfinite(self.memory_budget) and self.memory_budget > 0
        ):
            raise ValueError(
                "memory_budget must be a finite positive number of bytes, "
                f"got {self.memory_budget}"
            )


class PlanningContext:
    """One planning run: its inputs and the state its passes share.

    Holds the run's inputs (graph, cluster, config), fixed at
    construction, the lazily constructed profiler, the per-run artifact
    dict passes read from and write to, optionally a cross-run
    content-addressed :class:`~repro.planner.store.ArtifactStore`
    (whole-plan hits and delta replanning; the run persists its
    artifacts when the store has a disk tier), and the run's
    observability surface: a
    :class:`~repro.obs.tracer.Tracer` (also the storage behind the
    structured event log the :class:`~repro.planner.manager.PassManager`
    appends to) and a :class:`~repro.obs.metrics.MetricsRegistry` the
    search layers record counters into.

    Build one per run and call :meth:`run`; keep the context to read the
    event log and artifacts afterwards, or to seed a delta run::

        ctx = PlanningContext(graph, cluster, config)
        plan = ctx.run()
        ctx.events            # per-pass event log (``--explain``)
        delta = PlanningContext(graph, bigger, config,
                                store=ensure_store(ctx)).run()
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
        #: a plan served whole from the store: its deployment JSON,
        #: encoded once, and the report of the probe that verified it
        self.plan_document: Optional[str] = None
        self.plan_report: Optional[Any] = None
        self.store: Optional["ArtifactStore"] = store
        #: the store's plan of this run's stage layout (store-backed runs
        #: only): the evaluate pass's ``evaluated`` artifact is a view of
        #: it, and the verify pass checks it under the run's budget
        self.layout: Optional["LayoutPlan"] = None
        self._facets: Optional[Dict[str, str]] = None

    def run(
        self, passes: Optional[Sequence["PlannerPass"]] = None
    ) -> "PartitionPlan":
        """Run ``passes`` (default: :func:`~repro.planner.default_passes`)
        over this context and return the finished
        :class:`~repro.partitioner.plan.PartitionPlan`.

        Running a finished context again skips every pass ("artifacts
        already present") and returns the same plan.
        """
        from repro.planner import default_passes
        from repro.planner.manager import PassError, PassManager

        PassManager(passes if passes is not None else default_passes()).run(
            self
        )
        plan = self.get(EVALUATED)
        if plan is None:
            raise PassError(
                "pipeline",
                "no pass produced a plan artifact "
                f"(artifacts: {sorted(self.artifacts)})",
            )
        return plan

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
    def facets(self) -> Dict[str, str]:
        """Digest of every input facet of this run (see
        :mod:`repro.planner.facets`), computed once: the inputs are fixed
        at construction."""
        if self._facets is None:
            from repro.planner.facets import compute_facets

            self._facets = compute_facets(self.graph, self.cluster, self.config)
        return self._facets

    # ------------------------------------------------------------------
    def check_plan(
        self, plan: Any, expected_iteration_time: Optional[float] = None
    ) -> Any:
        """:func:`repro.verify.check_plan` of ``plan`` under this run's
        graph, cluster, optimizer and memory budget, inside a
        ``verify.plan`` span.  ``expected_iteration_time`` is the stage
        search's estimate for a plan searched this run (``None`` for a
        stored plan)."""
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
                memory_budget=self.config.memory_budget,
            )

    def ensure_profiler(self) -> GraphProfiler:
        """The run's profiler, constructing the default one on demand.

        A run that reused the ``dp_context`` shares its profiler (with
        its time-table memo), so a warm delta replan profiles nothing
        afresh.  Otherwise construction is the one pass that builds the
        graph table every pre-search layer reads; it is recorded as a
        ``profiler.build`` span (``tasks``, ``values``, ``ms``) inside
        whichever pass first asked (``coarsen`` on a cold plan)."""
        if self.profiler is None and self.has(DP_CONTEXT):
            self.profiler = self.require(DP_CONTEXT).profiler
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

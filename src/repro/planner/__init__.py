"""Pass-based planning engine.

The paper's three-phase flow (atomic partitioning, block coarsening, the
Algorithm-1/2 stage search) is expressed as discrete
:class:`~repro.planner.manager.PlannerPass` objects threaded through a
shared :class:`~repro.planner.context.PlanningContext` by a
:class:`~repro.planner.manager.PassManager`.  ``auto_partition`` is a
thin wrapper over :func:`default_passes`; baselines and experiments
assemble their own pipelines from the same building blocks, and every
run yields a structured per-pass event log (``repro plan --explain``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.partitioner.plan import PartitionPlan
from repro.planner.context import (
    BLOCKS,
    COMPONENTS,
    DP_CONTEXT,
    EVALUATED,
    FRAMEWORK_RESULT,
    PLAN,
    SEARCH_RESULT,
    VALIDATED,
    VERIFIED,
    PlannerConfig,
    PlanningContext,
)
from repro.planner.events import EventLog, PassEvent
from repro.planner.facets import FACET_NAMES, compute_facets
from repro.planner.manager import (
    PartitioningError,
    PassError,
    PassManager,
    PlannerPass,
)
from repro.planner.passes import (
    AllocatePass,
    AtomicPartitionPass,
    CoarsenPass,
    EvaluatePass,
    ProfileTensorsPass,
    StageSearchPass,
    ValidatePass,
    VerifyPass,
)
from repro.planner.repair import (
    ClusterEvent,
    NodeLoss,
    Preemption,
    RepairResult,
    ScaleUp,
    repair,
    survivor_map,
)
from repro.planner.replan import ensure_store, replan
from repro.planner.store import Artifact, ArtifactStore, DiskBackend
from repro.profiler.profiler import GraphProfiler


def default_passes() -> List[PlannerPass]:
    """The standard ``auto_partition`` pipeline.

    ``validate`` always runs (it is cheap and also guards a stored
    plan); the compute passes mirror the paper's phases, with
    ``profile_tensors`` building the reusable DP profile planes between
    coarsening and the stage search; ``verify`` holds the plan to the
    :mod:`repro.verify` invariants.  With an artifact store (a
    ``cache_dir``, or a delta replan), a stored finished plan skips
    every compute pass (see :mod:`repro.planner.manager`).
    """
    return [
        ValidatePass(),
        AtomicPartitionPass(),
        CoarsenPass(),
        ProfileTensorsPass(),
        StageSearchPass(),
        AllocatePass(),
        EvaluatePass(),
        VerifyPass(),
    ]


def plan_graph(
    graph: TaskGraph,
    cluster: ClusterSpec,
    config: PlannerConfig,
    profiler: Optional[GraphProfiler] = None,
    passes: Optional[List[PlannerPass]] = None,
    context: Optional[PlanningContext] = None,
) -> PartitionPlan:
    """Run a planning pipeline and return the finished plan.

    Pass ``context`` to keep a handle on the artifacts and event log
    (e.g. for ``--explain`` rendering); otherwise one is created.
    """
    ctx = context or PlanningContext(graph, cluster, config, profiler)
    PassManager(passes if passes is not None else default_passes()).run(ctx)
    plan = ctx.get(EVALUATED) or ctx.get(PLAN)
    if plan is None:
        raise PassError(
            "pipeline",
            "no pass produced a plan artifact "
            f"(artifacts: {sorted(ctx.artifacts)})",
        )
    return plan


def run_framework_pipeline(
    graph: TaskGraph,
    cluster: ClusterSpec,
    config: PlannerConfig,
    passes: List[PlannerPass],
    profiler: Optional[GraphProfiler] = None,
    context: Optional[PlanningContext] = None,
):
    """Run a baseline-framework pipeline and return its result artifact.

    Baselines (GPipe, PipeDream-2BW, Megatron-LM, data parallelism)
    share this entry point: each contributes a search pass producing the
    ``FRAMEWORK_RESULT`` artifact, and gets the same context, event log
    and profiler handling as ``auto_partition``.
    """
    ctx = context or PlanningContext(graph, cluster, config, profiler)
    PassManager(passes).run(ctx)
    return ctx.require(FRAMEWORK_RESULT)


__all__ = [
    "Artifact",
    "ArtifactStore",
    "AllocatePass",
    "AtomicPartitionPass",
    "BLOCKS",
    "COMPONENTS",
    "ClusterEvent",
    "CoarsenPass",
    "DP_CONTEXT",
    "DiskBackend",
    "EVALUATED",
    "EvaluatePass",
    "EventLog",
    "FACET_NAMES",
    "FRAMEWORK_RESULT",
    "GraphProfiler",
    "NodeLoss",
    "PLAN",
    "PartitioningError",
    "PassError",
    "PassEvent",
    "PassManager",
    "PlannerConfig",
    "PlannerPass",
    "PlanningContext",
    "Preemption",
    "ProfileTensorsPass",
    "RepairResult",
    "SEARCH_RESULT",
    "ScaleUp",
    "StageSearchPass",
    "VALIDATED",
    "VERIFIED",
    "ValidatePass",
    "VerifyPass",
    "compute_facets",
    "default_passes",
    "ensure_store",
    "plan_graph",
    "repair",
    "replan",
    "run_framework_pipeline",
    "survivor_map",
]

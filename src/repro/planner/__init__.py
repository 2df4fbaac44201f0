"""Pass-based planning engine.

The paper's three-phase flow (atomic partitioning, block coarsening, the
Algorithm-1/2 stage search) is expressed as discrete
:class:`~repro.planner.manager.PlannerPass` objects threaded through a
shared :class:`~repro.planner.context.PlanningContext` by a
:class:`~repro.planner.manager.PassManager`.

A run has one way in: build a context from the run's inputs (graph,
cluster, config) and call :meth:`PlanningContext.run`.
:func:`plan_graph` does both; ``auto_partition`` builds the config from
keyword arguments; :func:`replan` builds the context of a delta run
over the previous run's store; :func:`repair` runs plan repair as a
pipeline.  Every run yields a structured per-pass event log
(``repro plan --explain``) on its context.

The repair names (:func:`repair`, the cluster events, ...) load
:mod:`repro.planner.repair` on first use (PEP 562), so importing the
planner loads no network-topology or contention model.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, List, Optional

from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.partitioner.plan import PartitionPlan
from repro.planner.context import (
    BLOCKS,
    COMPONENTS,
    DP_CONTEXT,
    EVALUATED,
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
    AtomicPartitionPass,
    CoarsenPass,
    EvaluatePass,
    ProfileTensorsPass,
    StageSearchPass,
    ValidatePass,
    VerifyPass,
)
from repro.planner.replan import ensure_store, replan
from repro.planner.store import Artifact, ArtifactStore, DiskBackend
from repro.profiler.profiler import GraphProfiler


#: the names :mod:`repro.planner.repair` provides, loaded on first use
_REPAIR_NAMES = (
    "ClusterEvent",
    "NodeLoss",
    "Preemption",
    "RepairResult",
    "ScaleUp",
    "repair",
    "survivor_map",
)


def __getattr__(name: str) -> Any:
    if name not in _REPAIR_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("repro.planner.repair")
    for attr in _REPAIR_NAMES:
        globals()[attr] = getattr(module, attr)
    return globals()[name]


class _Package(types.ModuleType):
    """This package's module type.  Loading the ``repair`` submodule
    binds it to the package's ``repair`` name; that name stays the
    function, as it was when the package imported it eagerly."""

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "repair" and isinstance(value, types.ModuleType):
            value = value.repair
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


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
        EvaluatePass(),
        VerifyPass(),
    ]


def plan_graph(
    graph: TaskGraph,
    cluster: ClusterSpec,
    config: PlannerConfig,
    *,
    profiler: Optional[GraphProfiler] = None,
    passes: Optional[List[PlannerPass]] = None,
) -> PartitionPlan:
    """Plan ``graph`` on ``cluster`` under ``config`` and return the
    finished plan: ``PlanningContext(...).run(passes)``.  Build the
    context yourself to keep a handle on its artifacts and event log
    (e.g. for ``--explain`` rendering)."""
    return PlanningContext(graph, cluster, config, profiler).run(passes)


__all__ = [
    "Artifact",
    "ArtifactStore",
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
    "GraphProfiler",
    "NodeLoss",
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
    "survivor_map",
]

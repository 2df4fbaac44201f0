"""Shared sweep-result record, table formatting, and planner-event
aggregation across a sweep's partitioning runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.partitioner.plan import PartitionPlan
from repro.planner import EventLog, PlannerConfig, PlanningContext
from repro.profiler.profiler import GraphProfiler


@dataclass
class SweepRow:
    """One (workload, framework) measurement of a sweep."""

    workload: str
    framework: str
    params_billion: float
    feasible: bool
    throughput: float = 0.0  # samples/s; 0 when infeasible
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def cell(self) -> str:
        """Table-cell rendering: throughput or OOM."""
        return f"{self.throughput:.1f}" if self.feasible else "OOM"


def plan_with_events(
    graph: TaskGraph,
    cluster: ClusterSpec,
    config: PlannerConfig,
    profiler: Optional[GraphProfiler] = None,
) -> Tuple[PartitionPlan, EventLog]:
    """Plan one workload through the pass pipeline, returning the event
    log alongside the plan so sweeps can aggregate planner overhead.

    Raises :class:`repro.planner.PartitioningError` when infeasible, like
    ``auto_partition``.
    """
    ctx = PlanningContext(graph, cluster, config, profiler)
    return ctx.run(), ctx.events


def rannc_sweep_row(
    workload: str,
    plan: PartitionPlan,
    params_billion: float,
) -> SweepRow:
    """The standard "rannc" row of a sweep, with planner diagnostics."""
    return SweepRow(
        workload,
        "rannc",
        params_billion,
        True,
        plan.throughput,
        detail={
            "stages": plan.num_stages,
            "microbatches": plan.num_microbatches,
            "replica_factor": plan.replica_factor,
            "device_counts": [s.devices_per_pipeline for s in plan.stages],
            "dp_calls": plan.diagnostics.dp_calls,
            "pass_timings": dict(plan.diagnostics.pass_timings),
        },
    )


def format_rows(
    rows: Sequence[SweepRow],
    title: str = "",
    frameworks: Optional[Sequence[str]] = None,
) -> str:
    """Render sweep rows as a workload x framework table (paper style)."""
    if frameworks is None:
        seen: List[str] = []
        for row in rows:
            if row.framework not in seen:
                seen.append(row.framework)
        frameworks = seen
    workloads: List[str] = []
    params: Dict[str, float] = {}
    cells: Dict[str, Dict[str, str]] = {}
    for row in rows:
        if row.workload not in cells:
            cells[row.workload] = {}
            workloads.append(row.workload)
            params[row.workload] = row.params_billion
        cells[row.workload][row.framework] = row.cell

    w0 = max([len(w) for w in workloads] + [len("model")]) + 2
    wcol = max([len(f) for f in frameworks] + [8]) + 2
    lines = []
    if title:
        lines.append(title)
    header = "model".ljust(w0) + "params".rjust(8) + "".join(
        f.rjust(wcol) for f in frameworks
    )
    lines.append(header)
    lines.append("-" * len(header))
    for w in workloads:
        line = w.ljust(w0) + f"{params[w]:.2f}B".rjust(8)
        for f in frameworks:
            line += cells[w].get(f, "-").rjust(wcol)
        lines.append(line)
    return "\n".join(lines)

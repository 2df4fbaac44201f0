"""Partition-plan data types: stages, device assignments, full plans."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.profiler.profiler import ProfileResult


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage of the final plan.

    Attributes:
        index: stage position in the pipeline (0-based).
        block_range: half-open block interval ``(lo, hi]`` in the paper's
            1-based convention, i.e. blocks ``lo+1 .. hi`` (0-based:
            ``blocks[lo:hi]``).
        tasks: all task names of the stage.
        devices_per_pipeline: devices allocated to this stage inside ONE
            pipeline replica (``d_i - d_{i-1}`` of Algorithm 1).
        microbatch_size: per-device microbatch size the stage was
            profiled with (``BS/R/MB/(d_i - d_{i-1})``).
        profile: the ``(t_f, t_b, m)`` profile of the stage.
    """

    index: int
    block_range: Tuple[int, int]
    tasks: Tuple[str, ...]
    devices_per_pipeline: int
    microbatch_size: int
    profile: ProfileResult

    @property
    def time_fwd(self) -> float:
        return self.profile.time_fwd

    @property
    def time_bwd(self) -> float:
        return self.profile.time_bwd


@dataclass(frozen=True)
class DeviceAssignment:
    """Mapping of (pipeline replica, stage) -> global device ranks.

    Device ranks are assigned contiguously: pipeline replica ``r`` owns
    ranks ``[r*D, (r+1)*D)`` and its stages take consecutive ranks inside
    that range, so adjacent stages land on the same node whenever possible
    (the alignment Algorithm 2 aims at with ``D = D_node x n``).

    Immutable, ``ranks`` included (a read-only mapping): the artifact
    store shares one assignment between every view of a stored plan.
    """

    ranks: Mapping[Tuple[int, int], Tuple[int, ...]]
    cluster: ClusterSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", MappingProxyType(dict(self.ranks)))

    def __reduce__(self):
        # a read-only mapping does not pickle or deep-copy by itself
        return type(self), (dict(self.ranks), self.cluster)

    def devices_of(self, replica: int, stage: int) -> Tuple[int, ...]:
        return self.ranks[(replica, stage)]

    def stage_spans_nodes(self, replica: int, stage: int) -> bool:
        nodes = {self.cluster.node_of(r) for r in self.ranks[(replica, stage)]}
        return len(nodes) > 1

    def crossing_is_internode(self, replica: int, stage: int) -> bool:
        """Whether the boundary between ``stage`` and ``stage+1`` crosses
        a node boundary (determines p2p bandwidth)."""
        a = self.ranks[(replica, stage)]
        b = self.ranks.get((replica, stage + 1))
        if b is None:
            return False
        return self.cluster.node_of(a[-1]) != self.cluster.node_of(b[0])

    def total_devices_used(self) -> int:
        return sum(len(v) for v in self.ranks.values())


@dataclass
class PlanDiagnostics:
    """Typed search/evaluation diagnostics attached to every plan.

    The planner passes fill in the fields they own, and :meth:`as_dict`
    provides a flat float-valued view for JSON serialization and table
    rendering.
    """

    # the stage search's totals (``DPRun.totals``; empty for a plan no
    # search produced), three of them also read as attributes
    search: Dict[str, int] = field(default_factory=dict)
    dp_calls = property(lambda self: self.search.get("dp_calls", 0))
    candidates_tried = property(
        lambda self: self.search.get("candidates_tried", 0)
    )
    states_evaluated = property(
        lambda self: self.search.get("states_evaluated", 0)
    )
    num_blocks: int = 0
    num_atomic_components: int = 0
    # throughput breakdown (EvaluatePass / evaluate_plan)
    pipeline_time: float = 0.0
    allreduce_time: float = 0.0
    optimizer_time: float = 0.0
    # communication model the evaluation priced the plan under, and the
    # allreduce algorithm of the dominant stage group ("" until the
    # plan is evaluated; always "ring" under the flat model)
    comm_model: str = ""
    allreduce_algorithm: str = ""
    # planner instrumentation
    cache_hit: bool = False
    profiler_memo_hit_rate: float = 0.0
    profiler_stats: Dict[str, float] = field(default_factory=dict)
    pass_timings: Dict[str, float] = field(default_factory=dict)
    # escape hatch for experiment-specific annotations
    extra: Dict[str, float] = field(default_factory=dict)

    def copy(self) -> "PlanDiagnostics":
        """A copy with dicts of its own: stamping it leaves this one as
        it is."""
        return replace(
            self,
            search=dict(self.search),
            profiler_stats=dict(self.profiler_stats),
            pass_timings=dict(self.pass_timings),
            extra=dict(self.extra),
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat float view (per-pass timings keyed ``pass_time.<name>``)."""
        doc: Dict[str, float] = {
            **{name: float(v) for name, v in self.search.items()},
            "num_blocks": float(self.num_blocks),
            "num_atomic_components": float(self.num_atomic_components),
            "pipeline_time": self.pipeline_time,
            "allreduce_time": self.allreduce_time,
            "optimizer_time": self.optimizer_time,
            "cache_hit": float(self.cache_hit),
            "profiler_memo_hit_rate": self.profiler_memo_hit_rate,
        }
        for name, value in self.profiler_stats.items():
            doc[f"profiler.{name}"] = float(value)
        for name, seconds in self.pass_timings.items():
            doc[f"pass_time.{name}"] = seconds
        doc.update(self.extra)
        return doc


@dataclass
class PartitionPlan:
    """The complete result of automatic partitioning for one model."""

    model_name: str
    stages: List[StageSpec]
    num_microbatches: int
    replica_factor: int  # R of Algorithm 2: whole-pipeline replicas
    batch_size: int
    precision: Precision
    cluster: ClusterSpec
    assignment: Optional[DeviceAssignment] = None
    #: "training" or "inference" -- which cost/memory semantics the
    #: stage profiles were computed under (inference stages carry
    #: time_bwd == 0 and forward-only memory)
    mode: str = "training"
    # filled in by the throughput evaluation
    iteration_time: float = 0.0
    throughput: float = 0.0
    diagnostics: PlanDiagnostics = field(default_factory=PlanDiagnostics)

    def view(self) -> "PartitionPlan":
        """A plan sharing this one's stages, device assignment and
        cluster, with a stage list and diagnostics of its own: what a
        run may stamp or reorder without reaching this plan (the
        artifact store's plan of a layout, shared by every run and entry
        of that layout, is read through views; read their assignment and
        cluster, never change them)."""
        return replace(
            self, stages=list(self.stages), diagnostics=self.diagnostics.copy()
        )

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def per_microbatch_time(self) -> float:
        """The DP objective: max stage forward + max stage backward."""
        if not self.stages:
            return 0.0
        return max(s.time_fwd for s in self.stages) + max(
            s.time_bwd for s in self.stages
        )

    @property
    def devices_per_pipeline(self) -> int:
        return sum(s.devices_per_pipeline for s in self.stages)

    @property
    def total_devices(self) -> int:
        return self.devices_per_pipeline * self.replica_factor

    def stage_replicas(self, stage: int) -> int:
        """Total data-parallel replicas of one stage across the job."""
        return self.stages[stage].devices_per_pipeline * self.replica_factor

    def summary(self) -> str:
        lines = [
            f"PartitionPlan[{self.model_name}] stages={self.num_stages} "
            f"microbatches={self.num_microbatches} R={self.replica_factor} "
            f"BS={self.batch_size} devices={self.total_devices}",
        ]
        for s in self.stages:
            lines.append(
                f"  stage {s.index}: blocks({s.block_range[0]},{s.block_range[1]}] "
                f"tasks={len(s.tasks)} devices={s.devices_per_pipeline} "
                f"mb={s.microbatch_size} tf={s.time_fwd * 1e3:.2f}ms "
                f"tb={s.time_bwd * 1e3:.2f}ms mem={s.profile.memory / 2**30:.2f}GiB"
            )
        if self.throughput:
            lines.append(
                f"  iteration={self.iteration_time * 1e3:.1f}ms "
                f"throughput={self.throughput:.1f} samples/s"
            )
        return "\n".join(lines)

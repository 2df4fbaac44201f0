"""One-call public API: ``auto_partition``.

A thin wrapper over the pass-based planning engine
(:mod:`repro.planner`): it assembles the default pass list — validate ->
atomic-level partitioning -> block-level coarsening -> profile-tensor
construction -> Algorithm-2 stage search -> device allocation ->
throughput evaluation -> verification — and returns the finished plan.
Callers that need the event log or a custom pipeline build a
:class:`repro.planner.PlanningContext` and run it; a delta replan goes
through :func:`repro.planner.replan`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.partitioner.plan import PartitionPlan
from repro.planner import (
    ArtifactStore,
    DiskBackend,
    PartitioningError,
    PlannerConfig,
    PlanningContext,
)
from repro.profiler.memory import OptimizerKind
from repro.profiler.profiler import GraphProfiler

__all__ = ["PartitioningError", "auto_partition"]


def auto_partition(
    graph: TaskGraph,
    cluster: ClusterSpec,
    batch_size: int,
    precision: Precision = Precision.FP32,
    num_blocks: int = 32,
    optimizer: OptimizerKind = OptimizerKind.ADAM,
    max_microbatches: Optional[int] = None,
    verify: bool = True,
    profiler: Optional[GraphProfiler] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    memory_budget: Optional[float] = None,
    cache_budget_bytes: Optional[int] = None,
    mode: str = "training",
) -> PartitionPlan:
    """Automatically partition ``graph`` for hybrid parallelism.

    This is the user-facing equivalent of wrapping a PyTorch module in
    ``pyrannc.RaNNCModule``: no annotations, no manual stages.

    Example -- partition BERT-base for one 8-V100 node in mixed
    precision::

        from repro.hardware import Precision, paper_cluster
        from repro.models import BertConfig, build_bert

        graph = build_bert(BertConfig(hidden_size=768, num_layers=12,
                                      num_heads=12))
        plan = auto_partition(graph, paper_cluster(1), batch_size=64,
                              precision=Precision.AMP)

    To re-plan the same model for two nodes reusing the profiling work,
    run a :class:`~repro.planner.PlanningContext` and pass it to
    :func:`~repro.planner.replan`.  The communication cost model is the
    cluster's: pass ``cluster.with_comm_model("topology")`` to price
    link-level transfers (see :mod:`repro.comm`).

    Args:
        graph: the traced model (see :mod:`repro.models`).
        cluster: target cluster (e.g. ``paper_cluster()``).
        batch_size: global minibatch size.
        precision: FP32 or AMP mixed precision.
        num_blocks: ``k`` of block-level partitioning (paper uses 32).
        optimizer: optimizer whose state enters the memory estimate.
        max_microbatches: optional cap on the microbatch search.
        verify: hold the finished plan (fresh or cache-restored) to the
            :mod:`repro.verify` invariants; violations raise
            :class:`repro.verify.PlanVerificationError`.
        profiler: reuse an existing profiler (e.g. across experiments).
        cache_dir: root of the on-disk artifact store the call plans
            against (a :class:`~repro.planner.DiskBackend`); a repeated
            call with identical graph / cluster / planner config loads
            the plan from disk instead of re-running the search, and a
            changed call reuses every still-valid artifact.
        memory_budget: optional per-device memory cap (bytes) for the
            stage search, below the hardware capacity; ``None`` uses
            the full capacity.
        cache_budget_bytes: LRU byte budget of the ``cache_dir``
            store's disk tier; ``None`` is unbounded.
        mode: ``"training"`` (default) plans a full training iteration;
            ``"inference"`` plans forward-only serving (no backward or
            optimizer cost, weights-plus-KV memory accounting; see
            ``docs/SERVING_SIM.md``).

    Returns:
        A fully evaluated :class:`PartitionPlan`.

    Raises:
        PartitioningError: if no feasible partition exists.
    """
    config = PlannerConfig(
        batch_size=batch_size,
        precision=precision,
        num_blocks=num_blocks,
        optimizer=optimizer,
        max_microbatches=max_microbatches,
        verify=verify,
        memory_budget=memory_budget,
        mode=mode,
    )
    store = None
    if cache_dir is not None:
        store = ArtifactStore(
            disk=DiskBackend(Path(cache_dir), byte_budget=cache_budget_bytes)
        )
    return PlanningContext(
        graph, cluster, config, profiler, store=store
    ).run()

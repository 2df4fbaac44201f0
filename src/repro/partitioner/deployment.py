"""Deployments: (de)serialize partition plans to JSON.

RaNNC saves partitioning results ("deployments") so that relaunching a
job skips the search entirely; this module provides the same: a plan can
be written next to a checkpoint and restored against the same graph and
cluster.  A content hash of the graph guards against restoring a plan for
a different (or modified) model.  The planner's artifact store persists
its whole-plan entries in this format (:mod:`repro.planner.store`).
"""

from __future__ import annotations

import hashlib
import json
import weakref
from typing import Any, Dict, List, Optional, Tuple

from repro.graph.ir import TaskGraph
from repro.graph.serialize import graph_to_json
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.partitioner.allocation import allocate_devices
from repro.partitioner.plan import PartitionPlan, StageSpec
from repro.pipeline.hybrid import evaluate_plan_timing
from repro.pipeline.simulator import FlushTiming
from repro.profiler.memory import OptimizerKind
from repro.profiler.profiler import GraphProfiler, ProfileResult


class DeploymentMismatchError(ValueError):
    """The stored deployment does not match the supplied graph/cluster."""


#: per-object fingerprint memo -- graphs are immutable once traced, and
#: serializing a large graph is the single most expensive step of a
#: cache lookup / facet digest, so hash each instance at most once
_fingerprint_memo: "weakref.WeakKeyDictionary[TaskGraph, str]" = (
    weakref.WeakKeyDictionary()
)


def graph_fingerprint(graph: TaskGraph) -> str:
    """Stable content hash of a traced graph."""
    fp = _fingerprint_memo.get(graph)
    if fp is None:
        fp = hashlib.sha256(graph_to_json(graph).encode()).hexdigest()[:16]
        _fingerprint_memo[graph] = fp
    return fp


def build_plan(
    stages: List[StageSpec],
    *,
    model_name: str,
    num_microbatches: int,
    replica_factor: int,
    batch_size: int,
    precision: Precision,
    cluster: ClusterSpec,
    mode: str,
) -> Tuple[PartitionPlan, FlushTiming]:
    """``(plan, flush timing)`` of ``stages`` placed on ``cluster`` and
    priced under the flush schedule (:func:`~repro.pipeline.hybrid.evaluate_plan_timing`):
    the one way the ``evaluate`` pass and :func:`plan_from_json` build a
    plan.  The stage boundary bytes steer the placement, so a
    topology-priced plan lands on the ranks it was searched for."""
    plan = PartitionPlan(
        model_name=model_name,
        stages=stages,
        num_microbatches=num_microbatches,
        replica_factor=replica_factor,
        batch_size=batch_size,
        precision=precision,
        cluster=cluster,
        assignment=allocate_devices(
            cluster,
            [s.devices_per_pipeline for s in stages],
            replica_factor,
            boundary_bytes=[s.profile.out_bytes for s in stages[:-1]],
        ),
        mode=mode,
    )
    return evaluate_plan_timing(plan)


def plan_to_json(plan: PartitionPlan, graph: TaskGraph) -> str:
    """Serialize a plan (with the graph's fingerprint) to JSON."""
    doc: Dict[str, Any] = {
        "version": 1,
        "model_name": plan.model_name,
        "graph_fingerprint": graph_fingerprint(graph),
        "batch_size": plan.batch_size,
        "precision": plan.precision.value,
        "num_microbatches": plan.num_microbatches,
        "replica_factor": plan.replica_factor,
        "cluster": {
            "num_nodes": plan.cluster.num_nodes,
            "devices_per_node": plan.cluster.devices_per_node,
        },
        "stages": [
            {
                "index": s.index,
                "block_range": list(s.block_range),
                "tasks": list(s.tasks),
                "devices_per_pipeline": s.devices_per_pipeline,
                "microbatch_size": s.microbatch_size,
                "profile": {
                    "time_fwd": s.profile.time_fwd,
                    "time_bwd": s.profile.time_bwd,
                    "memory": s.profile.memory,
                    "param_count": s.profile.param_count,
                    "in_bytes": s.profile.in_bytes,
                    "out_bytes": s.profile.out_bytes,
                },
            }
            for s in plan.stages
        ],
    }
    if plan.mode != "training":
        # stored only when non-default, so pre-existing training
        # deployments stay byte-identical
        doc["mode"] = plan.mode
    return json.dumps(doc, sort_keys=True)


def plan_from_json(
    text: str,
    graph: TaskGraph,
    cluster: ClusterSpec,
    *,
    verify: bool = True,
    optimizer: OptimizerKind = OptimizerKind.ADAM,
    profiler: Optional[GraphProfiler] = None,
) -> PartitionPlan:
    """Restore a plan; re-validates it against graph and cluster.

    Raises :class:`DeploymentMismatchError` if the graph content or the
    cluster shape changed since the plan was saved.  The plan is
    re-evaluated under the flush schedule (the deployment JSON stores
    the partition, not its timing).  With ``verify`` (the
    default) the restored plan is additionally held to the full
    :mod:`repro.verify` invariants -- a stored deployment that drops a
    stage, duplicates a task or no longer fits device memory raises
    :class:`repro.verify.PlanVerificationError` instead of being
    silently deployed (``optimizer``/``profiler`` feed the memory
    re-derivation; the deployment JSON does not store the optimizer).
    """
    doc = json.loads(text)
    if doc.get("version") != 1:
        raise DeploymentMismatchError(f"unknown deployment version: {doc.get('version')!r}")
    if doc["graph_fingerprint"] != graph_fingerprint(graph):
        raise DeploymentMismatchError(
            "deployment was computed for a different model graph"
        )
    if (
        doc["cluster"]["num_nodes"] != cluster.num_nodes
        or doc["cluster"]["devices_per_node"] != cluster.devices_per_node
    ):
        raise DeploymentMismatchError(
            "deployment was computed for a different cluster shape"
        )
    missing = [
        t
        for sdoc in doc["stages"]
        for t in sdoc["tasks"]
        if t not in graph.tasks
    ]
    if missing:
        raise DeploymentMismatchError(
            f"deployment references unknown tasks: {missing[:3]}"
        )

    stages = [
        StageSpec(
            index=sdoc["index"],
            block_range=tuple(sdoc["block_range"]),
            tasks=tuple(sdoc["tasks"]),
            devices_per_pipeline=sdoc["devices_per_pipeline"],
            microbatch_size=sdoc["microbatch_size"],
            profile=ProfileResult(**sdoc["profile"]),
        )
        for sdoc in doc["stages"]
    ]
    plan, _ = build_plan(
        stages,
        model_name=doc["model_name"],
        num_microbatches=doc["num_microbatches"],
        replica_factor=doc["replica_factor"],
        batch_size=doc["batch_size"],
        precision=Precision(doc["precision"]),
        cluster=cluster,
        mode=doc.get("mode", "training"),
    )
    if verify:
        # local import: repro.verify depends on repro.partitioner types
        from repro.verify import verify_plan

        verify_plan(
            plan,
            graph,
            cluster,
            profiler=profiler,
            optimizer=optimizer,
        )
    return plan

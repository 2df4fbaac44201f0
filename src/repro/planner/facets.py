"""Input facets: the fingerprint vocabulary of incremental replanning.

A *facet* is a named, hashable slice of the planner's inputs (graph,
cluster, config) that some passes depend on and others do not.  Each
pass declares the facets it reads (``PlannerPass.facets``); its *input
fingerprint* is the hash of those facet digests plus the fingerprints of
the artifacts it requires, so invalidation propagates transitively: a
memory-budget change re-fingerprints ``stage_search`` and ``evaluate``
but leaves ``coarsen`` and ``profile_tensors`` untouched, while a graph
edit re-fingerprints everything downstream of ``atomic_partition``.

The facet boundaries encode real dataflow, not convention -- e.g. the
profile tensors price stage boundaries at the *same-node* p2p affine
(footnote 3 of the paper), so ``comm_local`` hashes exactly that pair
and a change to the inter-node bandwidth alone reuses them.  See
``docs/INCREMENTAL.md`` for the full facet-invalidation matrix.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

from repro.graph.serialize import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.ir import TaskGraph
    from repro.hardware.cluster import ClusterSpec
    from repro.planner.context import PlannerConfig
    from repro.planner.manager import PlannerPass

#: facet names, in the order they appear in the invalidation matrix
FACET_NAMES = (
    "graph",
    "arch",
    "capacity",
    "budget",
    "coarsen",
    "batch",
    "cluster_shape",
    "comm_local",
    "comm",
    "search",
)


def _digest(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]


def compute_facets(
    graph: "TaskGraph", cluster: "ClusterSpec", config: "PlannerConfig"
) -> Dict[str, str]:
    """Digest every facet of one planning run's inputs.

    Args:
        graph: the traced model.
        cluster: the target cluster (``PlanningContext.cluster``),
            communication model included.
        config: the planner configuration.
    """
    from repro.partitioner.deployment import graph_fingerprint

    device = cluster.device
    lat, bw = cluster.comm.p2p_affine(same_node=True)
    # device-class data enters the digests only when present, so every
    # homogeneous fingerprint (and hence every cached artifact) stays
    # bit-identical to the pre-heterogeneity planner
    arch_doc: Dict[str, Any] = {
        "device": [
            device.peak_flops_fp32,
            device.peak_flops_fp16,
            device.mem_bandwidth,
            device.matmul_efficiency,
            device.kernel_overhead,
        ],
        "precision": config.precision.value,
        "optimizer": config.optimizer.value,
    }
    if config.mode != "training":
        # like device classes: absent for training runs so every
        # pre-existing training artifact fingerprint stays bit-identical
        arch_doc["mode"] = config.mode
    capacity_doc: Any = [device.memory_bytes, device.memory_reserve_fraction]
    shape_doc: Any = [cluster.num_nodes, cluster.devices_per_node]
    if cluster.device_classes:
        classes = [
            [
                c.name,
                c.num_nodes,
                c.devices_per_node,
                c.straggler_factor,
                c.device.peak_flops_fp32,
                c.device.peak_flops_fp16,
                c.device.mem_bandwidth,
                c.device.matmul_efficiency,
                c.device.kernel_overhead,
                c.device.memory_bytes,
                c.device.memory_reserve_fraction,
            ]
            for c in cluster.device_classes
        ]
        arch_doc["classes"] = classes
        capacity_doc = [capacity_doc, classes]
        shape_doc = [shape_doc, classes]
    return {
        # the traced model itself
        "graph": graph_fingerprint(graph),
        # device performance model + numerics: everything a per-task
        # time or memory profile depends on
        "arch": _digest(arch_doc),
        # per-device memory capacity (bounds coarsening and the DP)
        "capacity": _digest(capacity_doc),
        # the planner-level cap below capacity (DP feasibility only)
        "budget": _digest(config.memory_budget),
        # block-level partitioning knobs
        "coarsen": _digest([config.num_blocks]),
        # global minibatch size
        "batch": _digest(config.batch_size),
        # how many devices Algorithm 2 may spread a pipeline over
        "cluster_shape": _digest(shape_doc),
        # the same-node p2p affine the profile tensors price stage
        # boundaries at (footnote 3): latency + bytes / bandwidth
        "comm_local": _digest([cluster.comm_model, lat, bw]),
        # the full communication model (placement scoring, allreduce)
        "comm": _digest(
            [
                cluster.comm_model,
                cluster.intra_node_bandwidth,
                cluster.inter_node_bandwidth,
                cluster.comm_latency,
                cluster.nvlink_degree,
                cluster.nic_count,
            ]
        ),
        # stage-search envelope
        "search": _digest(config.max_microbatches),
    }


def pass_input_fingerprint(
    p: "PlannerPass",
    facets: Dict[str, str],
    artifact_fps: Dict[str, str],
) -> Optional[str]:
    """The input fingerprint of one pass given the run's facets.

    Hashes the pass name together with each declared input
    (``facet:<name>`` or ``artifact:<name>``) mapped to its digest.
    Returns ``None`` when a required artifact has no recorded
    fingerprint (e.g. it was restored through a non-content-addressed
    path), which disables store reuse for the pass rather than guessing.
    """
    inputs: Dict[str, str] = {}
    for facet in p.facets:
        inputs[f"facet:{facet}"] = facets[facet]
    for artifact in p.requires:
        fp = artifact_fps.get(artifact)
        if fp is None:
            return None
        inputs[f"artifact:{artifact}"] = fp
    return _digest({"pass": p.name, "inputs": inputs})


def fingerprint_chain(
    passes: Sequence["PlannerPass"],
    facets: Dict[str, str],
    artifact_fps: Dict[str, str],
    feeds: Callable[["PlannerPass"], bool],
) -> Dict[str, str]:
    """``{pass name: input fingerprint}`` of every cacheable pass.

    Walks ``passes`` in order.  Each cacheable pass is fingerprinted from
    the facets and the fingerprints of its required artifacts, seeded
    from ``artifact_fps`` (not mutated).  When ``feeds(p)`` holds, the
    pass's fingerprint becomes the address of its artifacts for the
    passes after it.  Needs no payloads, so the whole chain is known
    before any pass runs.  A pass whose required artifacts have no
    fingerprint is left out (see :func:`pass_input_fingerprint`).
    """
    chain = dict(artifact_fps)
    out: Dict[str, str] = {}
    for p in passes:
        if not (p.cacheable and p.produces):
            continue
        fp = pass_input_fingerprint(p, facets, chain)
        if fp is None:
            continue
        out[p.name] = fp
        if feeds(p):
            for artifact in p.produces:
                chain[artifact] = fp
    return out


def plan_address(
    passes: Sequence["PlannerPass"],
    fps: Dict[str, str],
) -> Optional[Tuple["PlannerPass", str]]:
    """The pass that produces the finished ``evaluated`` plan, with its
    input fingerprint from ``fps`` (a :func:`fingerprint_chain`): the
    store address of the finished plan.  ``None`` when no such pass is
    fingerprinted.

    The pass manager probes the store at this address before any pass
    runs, and the plan service keys requests on it, so one list -- the
    facets each pass declares -- says what determines a plan.
    """
    from repro.planner.context import EVALUATED

    for p in passes:
        if EVALUATED in p.produces and p.name in fps:
            return p, fps[p.name]
    return None

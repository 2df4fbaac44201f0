"""Pure data parallelism (PyTorch DDP) with gradient accumulation.

Every device holds the complete model; the global batch is sharded across
all devices and each shard optionally split into accumulation steps to
shrink activation memory ("we also used gradient accumulation ... for
data parallelism", Sec. IV-A).  Parameters, gradients and optimizer state
cannot shrink, so DP OOMs first as models grow -- the Fig. 4/5 baseline
behaviour.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import FrameworkResult
from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.pipeline.hybrid import GRAD_BYTES_PER_PARAM, OPT_STEP_BYTES_PER_PARAM
from repro.profiler.profiler import GraphProfiler


def run_data_parallel(
    graph: TaskGraph,
    cluster: ClusterSpec,
    batch_size: int,
    precision: Precision = Precision.FP32,
    profiler: Optional[GraphProfiler] = None,
) -> FrameworkResult:
    """Evaluate pure DP: feasibility, accumulation steps, throughput."""
    profiler = profiler or GraphProfiler(graph, cluster, precision)
    world = cluster.total_devices
    if batch_size % world:
        return FrameworkResult(
            "data_parallel", False,
            reason=f"batch {batch_size} not divisible by {world} devices",
        )
    per_device = batch_size // world
    M = cluster.device.usable_memory
    tasks = list(graph.tasks)

    # smallest power-of-two accumulation count whose chunk fits memory
    chosen = None
    accum = 1
    while accum <= per_device:
        chunk = per_device // accum
        if per_device % accum == 0:
            prof = profiler.profile(
                tasks, chunk, microbatches_in_flight=1,
                checkpointing=False,
            )
            if prof.memory <= M:
                chosen = (accum, chunk, prof)
                break
        accum *= 2
    if chosen is None:
        smallest = profiler.profile(
            tasks, 1, microbatches_in_flight=1, checkpointing=False,
        )
        return FrameworkResult(
            "data_parallel", False,
            reason=(
                f"model needs {smallest.memory / 2**30:.1f} GiB at batch 1, "
                f"device has {M / 2**30:.1f} GiB"
            ),
        )

    accum, chunk, prof = chosen
    compute = accum * (prof.time_fwd + prof.time_bwd)
    grad_bytes = graph.num_parameters() * GRAD_BYTES_PER_PARAM
    allreduce = cluster.allreduce_time(
        grad_bytes, world, spans_nodes=cluster.num_nodes > 1
    )
    opt = graph.num_parameters() * OPT_STEP_BYTES_PER_PARAM / cluster.device.mem_bandwidth
    iteration = compute + allreduce + opt
    return FrameworkResult(
        "data_parallel",
        True,
        throughput=batch_size / iteration,
        iteration_time=iteration,
        config={
            "accumulation_steps": accum,
            "per_device_chunk": chunk,
            "memory_gib": prof.memory / 2**30,
        },
    )

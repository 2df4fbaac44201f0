"""GPipe baselines: GPipe-Hybrid and GPipe-Model.

*GPipe-Hybrid* (the PipeDream-2BW authors' PyTorch port used in Fig. 4)
splits a Transformer into ``S`` stages of equal *layer counts* -- the
manual rewriting the paper contrasts with RaNNC -- and replicates the
whole pipeline uniformly (``world / S`` copies).  Following Sec. IV-B we
sweep S over {2, 4, 8, 16}, require the layer count to divide evenly,
sweep the microbatch count, and report the best feasible setting.

*GPipe-Model* (torchgpipe, used for ResNet in Fig. 5) runs model-parallel
pipeline stages on the GPUs of a single node (max 8 stages), with the
microbatch count fixed to 64 as in the paper, and stage boundaries chosen
to balance computation as well as a human reasonably could at coarse layer
granularity (greedy prefix balancing over whole residual blocks).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import FrameworkResult
from repro.comm.model import stage_boundary_p2p_times
from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.pipeline.hybrid import GRAD_BYTES_PER_PARAM, OPT_STEP_BYTES_PER_PARAM
from repro.pipeline.simulator import simulate_sync_pipeline
from repro.profiler.profiler import GraphProfiler


def layer_units(graph: TaskGraph) -> List[Tuple[str, List[str]]]:
    """Group tasks into the coarse 'layers' a manual user would see.

    Units are task-name prefixes: ``layerN`` / ``embeddings`` / ``mlm`` /
    ``nsp`` for BERT, ``stem`` / ``stageX.blockY`` / ``head`` for ResNet.
    Order follows first appearance (topological).
    """
    units: Dict[str, List[str]] = {}
    order: List[str] = []
    for tname in graph.tasks:
        parts = tname.split(".")
        if parts[0].startswith("stage") and len(parts) > 1 and parts[1].startswith(
            "block"
        ):
            key = f"{parts[0]}.{parts[1]}"
        else:
            key = parts[0]
        if key not in units:
            units[key] = []
            order.append(key)
        units[key].append(tname)
    return [(key, units[key]) for key in order]


def _transformer_layer_count(units: Sequence[Tuple[str, List[str]]]) -> int:
    return sum(1 for key, _ in units if key.startswith("layer"))


def _uniform_layer_stages(
    units: Sequence[Tuple[str, List[str]]], num_stages: int
) -> Optional[List[List[str]]]:
    """Equal-layer-count stages; embeddings join the first stage, heads
    the last.  ``None`` when the layer count is not divisible by S."""
    layer_keys = [k for k, _ in units if k.startswith("layer")]
    L = len(layer_keys)
    if L % num_stages:
        return None
    per = L // num_stages
    unit_map = dict(units)
    stages: List[List[str]] = []
    for s in range(num_stages):
        tasks: List[str] = []
        if s == 0:
            for k, t in units:
                if not k.startswith(("layer", "mlm", "nsp", "total_loss")):
                    tasks.extend(t)
        for k in layer_keys[s * per : (s + 1) * per]:
            tasks.extend(unit_map[k])
        if s == num_stages - 1:
            for k, t in units:
                if k.startswith(("mlm", "nsp")) or k == "total_loss":
                    tasks.extend(t)
        stages.append(tasks)
    return stages


def _evaluate_pipeline(
    profiler: GraphProfiler,
    cluster: ClusterSpec,
    stages: List[List[str]],
    batch_size: int,
    replicas: int,
    num_microbatches: int,
    extra_static_bytes_per_param: float = 0.0,
    in_flight: Optional[int] = None,
    simulate: Callable[
        [Sequence[float], Sequence[float], int], float
    ] = simulate_sync_pipeline,
) -> Optional[Tuple[float, float]]:
    """(iteration_time, max_mem) or None if OOM/invalid.

    Every stage holds ``in_flight`` microbatches' stashes (default: all
    of them) plus ``extra_static_bytes_per_param`` per parameter, and
    ``simulate(tf, tb, MB)`` times the pipeline (default: the flush
    schedule)."""
    per_pipeline_batch = batch_size // replicas
    if per_pipeline_batch == 0 or per_pipeline_batch % num_microbatches:
        return None
    bs_micro = per_pipeline_batch // num_microbatches
    M = cluster.device.usable_memory
    tf: List[float] = []
    tb: List[float] = []
    max_mem = 0.0
    max_param = 0
    for i, tasks in enumerate(stages):
        prof = profiler.profile(
            tasks,
            bs_micro,
            microbatches_in_flight=(
                in_flight if in_flight is not None else num_microbatches
            ),
            checkpointing=True,
        )
        memory = prof.memory + prof.param_count * extra_static_bytes_per_param
        if memory > M:
            return None
        max_mem = max(max_mem, memory)
        max_param = max(max_param, prof.param_count)
        # charge each stage boundary at the tier it actually crosses:
        # with one device per stage, boundary ranks follow the same
        # contiguous layout the runtime would use, so a pipeline
        # straddling nodes pays the inter-node rate there
        send, recv = stage_boundary_p2p_times(
            cluster, [1] * len(stages), replicas, i,
            prof.out_bytes, prof.in_bytes,
        )
        tf.append(prof.time_fwd + send)
        tb.append(prof.time_bwd + recv)
    pipe = simulate(tf, tb, num_microbatches)
    allreduce = (
        cluster.allreduce_time(
            max_param * GRAD_BYTES_PER_PARAM, replicas, spans_nodes=cluster.num_nodes > 1
        )
        if replicas > 1
        else 0.0
    )
    opt = max_param * OPT_STEP_BYTES_PER_PARAM / cluster.device.mem_bandwidth
    return pipe + allreduce + opt, max_mem


def run_gpipe_hybrid(
    graph: TaskGraph,
    cluster: ClusterSpec,
    batch_size: int,
    precision: Precision = Precision.FP32,
    stage_counts: Sequence[int] = (2, 4, 8, 16),
    profiler: Optional[GraphProfiler] = None,
) -> FrameworkResult:
    """GPipe with hybrid parallelism on a Transformer graph."""
    return sweep_uniform_pipelines(
        "gpipe_hybrid",
        "implementation is specialized to BERT-style models",
        graph,
        cluster,
        batch_size,
        stage_counts,
        profiler or GraphProfiler(graph, cluster, precision),
    )


def sweep_uniform_pipelines(
    framework: str,
    unsupported: str,
    graph: TaskGraph,
    cluster: ClusterSpec,
    batch_size: int,
    stage_counts: Sequence[int],
    profiler: GraphProfiler,
    pipeline: Optional[Callable[[int, int], Dict[str, Any]]] = None,
) -> FrameworkResult:
    """Sec. IV-B's sweep of a uniformly split, uniformly replicated
    pipeline (GPipe-Hybrid and PipeDream-2BW): every stage count ``S``
    in ``stage_counts`` that divides the devices and the layer count,
    and every power-of-two microbatch count ``MB``; the fastest feasible
    setting wins (the first on a tie).

    ``pipeline(MB, S)`` gives the framework's extra
    :func:`_evaluate_pipeline` arguments (default: none, the flush
    schedule with every microbatch in flight); ``unsupported`` is the
    reason reported for a graph with no Transformer layers.
    """
    units = layer_units(graph)
    if _transformer_layer_count(units) == 0:
        return FrameworkResult(framework, False, reason=unsupported)
    world = cluster.total_devices
    best: Optional[FrameworkResult] = None
    for S in stage_counts:
        if world % S:
            continue
        stages = _uniform_layer_stages(units, S)
        if stages is None:
            continue
        replicas = world // S
        if batch_size % replicas:
            continue
        MB = 1
        while MB <= batch_size // replicas:
            outcome = _evaluate_pipeline(
                profiler, cluster, stages, batch_size, replicas, MB,
                **(pipeline(MB, S) if pipeline is not None else {}),
            )
            if outcome is not None:
                iteration, mem = outcome
                result = FrameworkResult(
                    framework,
                    True,
                    throughput=batch_size / iteration,
                    iteration_time=iteration,
                    config={
                        "stages": S,
                        "replicas": replicas,
                        "microbatches": MB,
                        "memory_gib": mem / 2**30,
                    },
                )
                if best is None or result.throughput > best.throughput:
                    best = result
            MB *= 2
    if best is None:
        return FrameworkResult(
            framework, False,
            reason="no (stages, microbatches) setting fits device memory",
        )
    return best


def run_gpipe_model(
    graph: TaskGraph,
    cluster: ClusterSpec,
    batch_size: int,
    precision: Precision = Precision.FP32,
    num_stages: int = 8,
    num_microbatches: int = 64,
    profiler: Optional[GraphProfiler] = None,
) -> FrameworkResult:
    """torchgpipe-style model parallelism on one node (Fig. 5 baseline)."""
    profiler = profiler or GraphProfiler(graph, cluster, precision)
    if cluster.num_nodes != 1:
        return FrameworkResult(
            "gpipe_model", False,
            reason="GPipe-Model can use only GPUs on a single node",
        )
    num_stages = min(num_stages, cluster.devices_per_node)
    units = layer_units(graph)
    stages = _balanced_unit_stages(profiler, units, num_stages)

    MB = num_microbatches
    while MB >= 1:
        if batch_size % MB == 0:
            outcome = _evaluate_pipeline(
                profiler, cluster, stages, batch_size, 1, MB,
            )
            if outcome is not None:
                iteration, mem = outcome
                return FrameworkResult(
                    "gpipe_model",
                    True,
                    throughput=batch_size / iteration,
                    iteration_time=iteration,
                    config={
                        "stages": len(stages),
                        "microbatches": MB,
                        "memory_gib": mem / 2**30,
                    },
                )
        MB //= 2
    return FrameworkResult(
        "gpipe_model", False, reason="stages exceed device memory at all MB",
    )


def _balanced_unit_stages(
    profiler: GraphProfiler,
    units: Sequence[Tuple[str, List[str]]],
    num_stages: int,
) -> List[List[str]]:
    """Greedy prefix balancing of whole units into contiguous stages --
    the 'as balanced as possible by hand' split of Sec. IV-B."""
    tf, tb = profiler._times_at(1)
    weights = []
    for _, tasks in units:
        idx = profiler.indices_of(tasks)
        weights.append(float(tf[idx].sum() + tb[idx].sum()))
    total = sum(weights)
    target = total / num_stages
    stages: List[List[str]] = []
    current: List[str] = []
    acc = 0.0
    for (_key, tasks), w in zip(units, weights):
        if (
            current
            and acc + w > target * 1.05
            and len(stages) < num_stages - 1
        ):
            stages.append(current)
            current = []
            acc = 0.0
        current.extend(tasks)
        acc += w
    if current:
        stages.append(current)
    # merge tail stages if we overshot the stage count
    while len(stages) > num_stages:
        stages[-2].extend(stages[-1])
        stages.pop()
    return stages

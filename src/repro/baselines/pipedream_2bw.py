"""PipeDream-2BW: asynchronous 1F1B pipeline with double-buffered weights.

Partitions the model exactly like GPipe-Hybrid ("PipeDream-2BW partitions
a model in the same way as GPipe-Hybrid", Sec. IV-B): equal layer counts
per stage, uniform whole-pipeline replication.  Differences from GPipe:

* **schedule** -- asynchronous one-forward-one-backward with no flush, so
  the pipeline bubble disappears and per-iteration time approaches
  ``MB x max_s(t_f + t_b)``;
* **memory** -- two weight versions are kept resident (the "2BW" double
  buffer: +4 bytes/param) but only ~S microbatches are in flight at once
  instead of all MB;
* **semantics** -- parameter staleness: a microbatch's forward and
  backward may use different weight versions.  The simulator only models
  time; the staleness-free column of Table I records the semantic cost.

The paper could not run 2BW's automatic stage-count planner, so -- like
the authors -- we sweep S over {2, 4, 8, 16} and keep the best.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.base import FrameworkResult
from repro.baselines.gpipe import (
    _evaluate_pipeline,
    _transformer_layer_count,
    _uniform_layer_stages,
    layer_units,
)
from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.pipeline.simulator import simulate_async_1f1b
from repro.profiler.profiler import GraphProfiler


def run_pipedream_2bw(
    graph: TaskGraph,
    cluster: ClusterSpec,
    batch_size: int,
    precision: Precision = Precision.FP32,
    stage_counts: Sequence[int] = (2, 4, 8, 16),
    profiler: Optional[GraphProfiler] = None,
) -> FrameworkResult:
    """Evaluate PipeDream-2BW on a Transformer graph."""
    return _search_pipedream_2bw(
        graph,
        cluster,
        batch_size,
        stage_counts,
        profiler or GraphProfiler(graph, cluster, precision),
    )


def _search_pipedream_2bw(
    graph: TaskGraph,
    cluster: ClusterSpec,
    batch_size: int,
    stage_counts: Sequence[int],
    profiler: GraphProfiler,
) -> FrameworkResult:
    units = layer_units(graph)
    if _transformer_layer_count(units) == 0:
        return FrameworkResult(
            "pipedream_2bw", False,
            reason="available implementation is specialized to BERT",
        )
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
                # the second weight buffer, and 1F1B keeps at most S
                # microbatches in flight
                extra_static_bytes_per_param=4.0,
                in_flight=min(MB, S),
                simulate=simulate_async_1f1b,
            )
            if outcome is not None:
                iteration, _, mem = outcome
                result = FrameworkResult(
                    "pipedream_2bw",
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
            "pipedream_2bw", False,
            reason="no (stages, microbatches) setting fits device memory",
        )
    return best

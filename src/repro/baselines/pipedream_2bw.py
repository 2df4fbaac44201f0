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

from typing import Any, Dict, Optional, Sequence

from repro.baselines.base import FrameworkResult
from repro.baselines.gpipe import sweep_uniform_pipelines
from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.pipeline.simulator import simulate_async_1f1b
from repro.profiler.profiler import GraphProfiler


def _two_bw_pipeline(MB: int, S: int) -> Dict[str, Any]:
    """How a 2BW pipeline differs from GPipe's in the shared sweep: the
    second weight buffer, at most ``S`` microbatches in flight under
    1F1B, and the asynchronous 1F1B timing."""
    return {
        "extra_static_bytes_per_param": 4.0,
        "in_flight": min(MB, S),
        "simulate": simulate_async_1f1b,
    }


def run_pipedream_2bw(
    graph: TaskGraph,
    cluster: ClusterSpec,
    batch_size: int,
    precision: Precision = Precision.FP32,
    stage_counts: Sequence[int] = (2, 4, 8, 16),
    profiler: Optional[GraphProfiler] = None,
) -> FrameworkResult:
    """Evaluate PipeDream-2BW on a Transformer graph."""
    return sweep_uniform_pipelines(
        "pipedream_2bw",
        "available implementation is specialized to BERT",
        graph,
        cluster,
        batch_size,
        stage_counts,
        profiler or GraphProfiler(graph, cluster, precision),
        pipeline=_two_bw_pipeline,
    )

"""Megatron-LM-style tensor partitioning (manual, Transformer-only).

Implements Megatron's intra-layer model parallelism as a cost/memory
policy: attention and FFN matmuls (and the embedding table) are split
``t``-ways with two activation allreduces per layer per pass; layernorms,
residual adds and dropout buffers are replicated.  Faithful to the paper's
experimental notes:

* Transformer-only -- inapplicable to ResNet (Sec. IV-A "Models");
* no gradient accumulation, so each device processes its full data-
  parallel shard at once -- the memory behaviour behind "the largest model
  RaNNC could train was five times larger than those Megatron-LM could";
* activation buffers of the distributed matmuls are *not* reduced by
  ``t`` after their allreduce ("the size of the buffer to store the
  results is not reduced"), while intra-matmul intermediates are;
* gradient checkpointing enabled (the authors added it to every baseline).

The degree ``t`` sweeps powers of two up to the device count; the best
feasible configuration is reported (the paper manually tried all).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import FrameworkResult
from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.models.configs import BertConfig
from repro.pipeline.hybrid import GRAD_BYTES_PER_PARAM, OPT_STEP_BYTES_PER_PARAM
from repro.profiler.profiler import GraphProfiler

#: op types whose compute and weights Megatron splits across t devices
_SPLIT_OPS = frozenset({"matmul", "linear", "softmax", "gelu", "embedding"})


def _is_transformer(graph: TaskGraph) -> bool:
    return any(t.startswith("layer0.attn.") for t in graph.tasks)


def run_megatron(
    graph: TaskGraph,
    cfg: BertConfig,
    cluster: ClusterSpec,
    batch_size: int,
    precision: Precision = Precision.FP32,
    profiler: Optional[GraphProfiler] = None,
) -> FrameworkResult:
    """Evaluate Megatron-LM tensor parallelism on a BERT-family graph."""
    profiler = profiler or GraphProfiler(graph, cluster, precision)
    if not _is_transformer(graph):
        return FrameworkResult(
            "megatron_lm", False,
            reason="tensor partitioning applies only to Transformer models",
        )
    world = cluster.total_devices
    M = cluster.device.usable_memory
    device = cluster.device
    act_factor = precision.activation_bytes_factor

    names = list(graph.tasks)
    idx_all = profiler.indices_of(names)
    split_mask = np.array(
        [graph.tasks[t].op_type in _SPLIT_OPS for t in names]
    )
    # unique parameter split: weights of split ops shard t-ways
    split_params = 0
    seen: set = set()
    for i, _tname in enumerate(names):
        for pid in profiler._task_param_ids[i]:
            if pid in seen:
                continue
            seen.add(pid)
            if split_mask[i]:
                split_params += int(profiler._param_sizes_arr[pid])
    total_params = graph.num_parameters()
    unsplit_params = total_params - split_params

    # per-layer checkpoint boundary: one (S, H) activation per layer
    boundary_per_sample = (
        (cfg.num_layers + 1) * cfg.seq_len * cfg.hidden_size * 4.0 * act_factor
    )
    # recompute peak: densest single layer's saved activations
    layer_tasks = [t for t in names if t.startswith("layer0.")]
    layer_idx = profiler.indices_of(layer_tasks)
    layer_split = np.array(
        [graph.tasks[t].op_type in _SPLIT_OPS for t in layer_tasks]
    )
    layer_saved_split = float(profiler.saved_bytes[layer_idx][layer_split].sum())
    layer_saved_unsplit = float(
        profiler.saved_bytes[layer_idx][~layer_split].sum()
    )
    # the MLM head's vocabulary logits buffer (vocab-parallel: /t)
    head_logits_per_sample = cfg.seq_len * cfg.vocab_size * 4.0 * act_factor

    best: Optional[FrameworkResult] = None
    t = 1
    while t <= min(world, cfg.num_heads):
        dp_ways = world // t
        if batch_size % dp_ways == 0:
            bs_dev = batch_size // dp_ways  # no gradient accumulation
            params_dev = split_params / t + unsplit_params
            static = profiler.memory_model.static_bytes(int(params_dev))
            act = (
                boundary_per_sample * bs_dev
                + (layer_saved_split / t + layer_saved_unsplit)
                * bs_dev
                * act_factor
                + head_logits_per_sample * bs_dev / t
            )
            memory = static + act
            if memory <= M:
                result = _throughput(
                    profiler, graph, cfg, cluster, batch_size, bs_dev, t,
                    dp_ways, split_mask, idx_all, params_dev, memory,
                )
                if best is None or result.throughput > best.throughput:
                    best = result
        t *= 2

    if best is None:
        return FrameworkResult(
            "megatron_lm", False,
            reason=(
                "no tensor-parallel degree fits device memory "
                "(no gradient accumulation: per-device batch "
                f"{batch_size}/dp_ways must be resident at once)"
            ),
        )
    return best


def _throughput(
    profiler: GraphProfiler,
    graph: TaskGraph,
    cfg: BertConfig,
    cluster: ClusterSpec,
    batch_size: int,
    bs_dev: int,
    t: int,
    dp_ways: int,
    split_mask: np.ndarray,
    idx_all: np.ndarray,
    params_dev: float,
    memory: float,
) -> FrameworkResult:
    tf_all, tb_all = profiler._times_at(bs_dev)
    tf_dev = float(
        tf_all[idx_all][split_mask].sum() / t + tf_all[idx_all][~split_mask].sum()
    )
    tb_dev = float(
        tb_all[idx_all][split_mask].sum() / t + tb_all[idx_all][~split_mask].sum()
    )
    tb_dev += tf_dev  # gradient checkpointing recompute

    act_factor = profiler.precision.activation_bytes_factor
    layer_act_bytes = bs_dev * cfg.seq_len * cfg.hidden_size * 4.0 * act_factor
    # two allreduces per layer per direction (attention out + FFN out)
    spans = t > cluster.devices_per_node
    tensor_comm = (
        cfg.num_layers * 4 * cluster.allreduce_time(layer_act_bytes, t, spans)
    )
    grad_allreduce = cluster.allreduce_time(
        params_dev * GRAD_BYTES_PER_PARAM, dp_ways, spans_nodes=cluster.num_nodes > 1
    ) if dp_ways > 1 else 0.0
    opt = params_dev * OPT_STEP_BYTES_PER_PARAM / cluster.device.mem_bandwidth
    iteration = tf_dev + tb_dev + tensor_comm + grad_allreduce + opt
    return FrameworkResult(
        "megatron_lm",
        True,
        throughput=batch_size / iteration,
        iteration_time=iteration,
        config={
            "tensor_parallel": t,
            "data_parallel": dp_ways,
            "per_device_batch": bs_dev,
            "memory_gib": memory / 2**30,
        },
    )

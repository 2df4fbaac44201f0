"""Per-operator roofline cost model on a simulated device.

Each task's execution time is ``max(compute, memory-traffic) + launch
overhead`` where the compute term runs at the device's sustained matmul
efficiency (tensor cores under AMP for matmul-class ops) and the traffic
term moves every input/output byte through device memory once.  Both
FLOPs and *activation* bytes scale linearly with batch size; parameter
bytes do not -- so small batches drift toward the bandwidth-bound regime
exactly as real kernels do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.graph.ir import TaskGraph, TaskNode, ValueKind, ValueNode
from repro.graph.ops import registry
from repro.hardware.device import DeviceSpec, Precision

#: op types executed on tensor cores under AMP and at matmul efficiency
#: under FP32 (dense GEMM/conv kernels).
MATMUL_OPS = frozenset({"matmul", "linear", "conv2d"})

#: ops that are pure metadata on contiguous layouts (no kernel at all).
FREE_OPS = frozenset({"reshape", "flatten", "identity"})


@dataclass(frozen=True)
class TaskCost:
    """Batch-size-1, FP32-reference cost coefficients of one task.

    ``act_bytes`` are the batched tensor bytes touched (inputs + outputs),
    ``param_bytes`` the non-batched bytes (weights/constants read),
    ``saved_bytes`` the activation storage this task adds to the backward
    tape (its outputs), all at canonical batch 1 in FP32.
    """

    fwd_flops: float
    bwd_flops: float
    act_bytes: float
    param_bytes: float
    saved_bytes: float
    param_count: int
    is_matmul: bool
    is_free: bool


#: what :func:`task_row` reads of one value: ``(batch-1 bytes, batch-1
#: element count, batched, is a trainable parameter)``
ValueRecord = Tuple[int, int, bool, bool]


def value_record(value: ValueNode) -> ValueRecord:
    """The :data:`ValueRecord` of one value."""
    numel = value.numel(1)
    return (numel * value.dtype.itemsize, numel, value.batched,
            value.kind is ValueKind.PARAM)


def task_row(
    graph: TaskGraph,
    task: TaskNode,
    inputs: Sequence[ValueRecord],
    outputs: Sequence[ValueRecord],
) -> Tuple:
    """The :class:`TaskCost` fields of one task, in field order, from the
    records of its input and output values (positional, as listed by the
    task): the per-task rule behind :meth:`CostModel.task_cost`.  The
    profiler's per-graph table derives the same fields for every task at
    once from the graph's CSR; ``tests/profiler/oracles.py`` judges
    both."""
    fwd = registry.flops(task, graph, 1)
    bwd = fwd * registry.get(task.op_type).bwd_factor
    act_bytes = 0.0
    param_bytes = 0.0
    param_count = 0
    for nbytes, numel, batched, is_param in inputs:
        if batched:
            act_bytes += nbytes
        else:
            param_bytes += nbytes
            if is_param:
                param_count += numel
    saved = 0.0
    for nbytes, _, batched, _ in outputs:
        if batched:
            act_bytes += nbytes
            saved += nbytes
        else:
            param_bytes += nbytes
    is_free = task.op_type in FREE_OPS
    return (fwd, bwd, act_bytes, param_bytes, 0.0 if is_free else saved,
            param_count, task.op_type in MATMUL_OPS, is_free)


class CostModel:
    """Computes :class:`TaskCost` entries and evaluates roofline times."""

    def __init__(self, device: DeviceSpec, precision: Precision = Precision.FP32):
        self.device = device
        self.precision = precision

    # ------------------------------------------------------------------
    def task_cost(self, graph: TaskGraph, task: TaskNode) -> TaskCost:
        """Extract the cost coefficients of one task instance."""
        values = graph.values
        return TaskCost(*task_row(
            graph,
            task,
            [value_record(values[v]) for v in task.inputs],
            [value_record(values[v]) for v in task.outputs],
        ))

    # ------------------------------------------------------------------
    def _compute_time(self, flops: float, is_matmul: bool) -> float:
        if flops <= 0:
            return 0.0
        if is_matmul:
            peak = self.device.peak_flops(self.precision)
        else:
            # pointwise/reduction kernels do not use tensor cores
            peak = self.device.peak_flops_fp32
        return flops / (peak * self.device.matmul_efficiency)

    def _traffic_time(self, act_bytes: float, param_bytes: float) -> float:
        nbytes = act_bytes * self.precision.activation_bytes_factor + param_bytes
        return nbytes / self.device.mem_bandwidth

    def fwd_time(self, cost: TaskCost, batch_size: int) -> float:
        """Forward execution time of one task at the given batch size."""
        if cost.is_free:
            return 0.0
        return (
            max(
                self._compute_time(cost.fwd_flops * batch_size, cost.is_matmul),
                self._traffic_time(cost.act_bytes * batch_size, cost.param_bytes),
            )
            + self.device.kernel_overhead
        )

    def bwd_time(self, cost: TaskCost, batch_size: int) -> float:
        """Backward execution time (reads saved activations, writes both
        input grads and weight grads: ~2x the forward traffic)."""
        if cost.is_free:
            return 0.0
        return (
            max(
                self._compute_time(cost.bwd_flops * batch_size, cost.is_matmul),
                self._traffic_time(
                    2.0 * cost.act_bytes * batch_size, 2.0 * cost.param_bytes
                ),
            )
            + self.device.kernel_overhead
        )

    # ------------------------------------------------------------------
    def activation_nbytes(self, saved_bytes_fp32: float, batch_size: int) -> float:
        """Stored-activation bytes at the working precision."""
        return saved_bytes_fp32 * batch_size * self.precision.activation_bytes_factor

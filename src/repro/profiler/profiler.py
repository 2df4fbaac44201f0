"""Graph profiler: the per-graph table and the Algorithm-1 oracle.

``GraphProfiler`` plays the role of the paper's ``profile(U, batch)``
procedure.  Its construction builds the **table** every pre-search
layer reads instead of the graph's dicts, with NumPy over the graph's
own value ids and task CSR (tasks indexed in the graph's topological
insertion order, values in insertion order):

* per value: batch-1 bytes, and whether the value is floating point
  (the working precision scales it), batched, a parameter or constant,
  or a graph output; its producer task (``-1`` for a leaf) and its
  distinct consumer tasks (CSR, first-use order);
* per task: forward and backward FLOPs at batch 1 (computed once),
  activation, parameter, saved and attention K/V bytes, the parameter
  count, the matmul / free / non-constant flags, the ids of the
  parameters it reads (with one size per parameter), and its input and
  output value ids (CSR).

Profiling a subcomponent is then fancy-indexed sums over per-batch time
tables, fast enough for the DP's thousands of candidate stages; block
coarsening builds its atom aggregates and the stage DP its range
matrices from the same arrays.  The time tables are memoized per batch
size.

The time-table memo is a plain dict whose fills are idempotent: runs
that share one profiler across threads (through a stored
``dp_context``) may both build a batch size's table, and the last
write wins.  Its lookup counters are cumulative over every run, and a
lock guards their increments.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import islice, repeat
from operator import attrgetter, is_
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.graph.ir import TaskGraph, ValueKind
from repro.graph.ops import registry
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.profiler.cost_model import FREE_OPS, MATMUL_OPS, CostModel
from repro.profiler.memory import MemoryModel, OptimizerKind


@dataclass(frozen=True)
class ProfileResult:
    """Output of one ``profile`` call: the tuple (t_f, t_b, m) of
    Algorithm 1, plus the boundary traffic used for communication costs."""

    time_fwd: float
    time_bwd: float
    memory: float
    param_count: int
    in_bytes: float
    out_bytes: float


def csr_rows(
    ptr: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Entries of CSR ``rows`` (concatenated, row by row) and, per entry,
    its position in ``rows``."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    which = np.repeat(np.arange(len(rows)), lens)
    offsets = np.arange(len(which)) - np.repeat(np.cumsum(lens) - lens, lens)
    return data[starts[which] + offsets], which


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of an integer array.

    Stands in for ``np.unique``, which in NumPy 2 imports ``numpy.ma`` on
    first use: about 1 MiB of peak RSS the planner never needs."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class GraphProfiler:
    """Profiling oracle over one task graph on one device."""

    def __init__(
        self,
        graph: TaskGraph,
        cluster: ClusterSpec,
        precision: Precision = Precision.FP32,
        optimizer: OptimizerKind = OptimizerKind.ADAM,
        mode: str = "training",
    ) -> None:
        self.graph = graph
        self.precision = precision
        self.mode = mode
        self.cost_model = CostModel(cluster.device, precision)
        #: ``(latency, bandwidth)`` of a same-node transfer on
        #: ``cluster``: the stage DP prices stage boundaries at it
        #: (footnote 3).  No other part of the cluster is kept: runs that
        #: share this profiler may plan on different clusters.
        self.p2p_local = cluster.comm.p2p_affine(same_node=True)
        self.memory_model = MemoryModel(precision, optimizer, mode)
        self._build_table(graph)

        self._time_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: cumulative over every run that shares this profiler; the lock
        #: keeps concurrent runs from losing increments
        self._counter_lock = threading.Lock()
        self.profile_calls = 0
        self.table_calls = 0
        self.table_hits = 0

    def _build_table(self, graph: TaskGraph) -> None:
        """The table, from the graph's value columns and task CSR.

        The value columns come from C-level ``map`` reads of the value
        nodes; every per-task sum is a ``bincount`` over the CSR entries.
        Each summand is an integer byte or element count held in a
        float, so the sums are exact in any order.  Only the op's FLOP
        count is a per-task Python call."""
        tasks = list(graph.tasks.values())
        values = list(graph.values.values())
        n, nv = len(tasks), len(values)
        self._names: List[str] = list(graph.tasks)
        self._index = dict(zip(self._names, range(n)))

        # --- per value ----------------------------------------------------
        shapes = list(map(attrgetter("shape"), values))
        numel = np.fromiter(map(math.prod, shapes), np.int64, nv)
        self.value_bytes = numel * np.fromiter(
            map(attrgetter("dtype.itemsize"), values), np.int64, nv
        )
        batched = self.value_batched = np.fromiter(
            map(attrgetter("batched"), values), bool, nv
        )
        self.value_float = np.fromiter(
            map(attrgetter("dtype.is_float"), values), bool, nv
        )
        kinds = list(map(attrgetter("kind"), values))
        is_param = np.fromiter(map(is_, kinds, repeat(ValueKind.PARAM)),
                               bool, nv)
        const = self.value_const = is_param | np.fromiter(
            map(is_, kinds, repeat(ValueKind.CONST)), bool, nv
        )
        self.value_output = np.zeros(nv, dtype=bool)
        self.value_output[
            [graph.value_index[v] for v in graph.output_names]
        ] = True
        self.value_producer = np.array(graph.value_producer, dtype=np.int64)

        # --- the task CSR and its entries' tasks ----------------------------
        in_ptr = self.task_in_ptr = np.array(graph.task_in_ptr, dtype=np.int64)
        ins = self.task_in = np.array(graph.task_in, dtype=np.int64)
        out_ptr = self.task_out_ptr = np.array(graph.task_out_ptr,
                                               dtype=np.int64)
        outs = self.task_out = np.array(graph.task_out, dtype=np.int64)
        in_task = np.repeat(np.arange(n), np.diff(in_ptr))
        out_task = np.repeat(np.arange(n), np.diff(out_ptr))

        def per_task(entry_task, weights):
            return np.bincount(entry_task, weights=weights, minlength=n)

        in_bytes = self.value_bytes[ins].astype(float)
        out_bytes = self.value_bytes[outs].astype(float)
        in_batched, out_batched = batched[ins], batched[outs]
        self.act_bytes = (per_task(in_task, in_bytes * in_batched)
                          + per_task(out_task, out_bytes * out_batched))
        self.param_bytes = (per_task(in_task, in_bytes * ~in_batched)
                            + per_task(out_task, out_bytes * ~out_batched))
        self.param_count = per_task(
            in_task, numel[ins] * (is_param[ins] & ~in_batched)
        ).astype(np.int64)

        ops = list(map(attrgetter("op_type"), tasks))
        specs = {op: registry.get(op) for op in set(ops)}
        self.is_matmul = np.fromiter(map(MATMUL_OPS.__contains__, ops),
                                     bool, n)
        self.is_free = np.fromiter(map(FREE_OPS.__contains__, ops), bool, n)
        self.saved_bytes = per_task(out_task, out_bytes * out_batched)
        self.saved_bytes[self.is_free] = 0.0
        # the FLOPs of ``registry.flops(task, graph, 1)``: one call per task
        in_shapes = list(map(shapes.__getitem__, ins.tolist()))
        out_shapes = list(map(shapes.__getitem__, outs.tolist()))
        in_lo, out_lo = in_ptr.tolist(), out_ptr.tolist()
        self.fwd_flops = np.fromiter(
            (
                specs[op].flops(in_shapes[a:b], out_shapes[c:d], task.attrs)
                for op, task, a, b, c, d in zip(
                    ops, tasks, in_lo, in_lo[1:], out_lo, out_lo[1:]
                )
            ),
            float,
            n,
        )
        self.bwd_flops = self.fwd_flops * np.fromiter(
            map({op: spec.bwd_factor for op, spec in specs.items()}
                .__getitem__, ops),
            float,
            n,
        )

        # per-sample attention K/V bytes persisted while a microbatch
        # stays in flight during inference.  Structural rule: a ``matmul``
        # whose two operands are both batched activations is an attention
        # contraction (``q @ k^T`` or ``probs @ v``); its second operand
        # is the cached K (or V) tensor.  Weight matmuls never qualify --
        # a PARAM/CONST operand (or any value derived only from them, e.g.
        # a transposed embedding table) is not batched, so ``lm_head``-
        # style projections are excluded.
        self.kv_saved_bytes = np.zeros(n)
        pair = np.flatnonzero(
            np.fromiter(map("matmul".__eq__, ops), bool, n)
            & (np.diff(in_ptr) == 2)
        )
        first, second = ins[in_ptr[pair]], ins[in_ptr[pair] + 1]
        activation = batched & ~const
        cached = activation[first] & activation[second]
        self.kv_saved_bytes[pair[cached]] = self.value_bytes[second[cached]]

        self.non_constant = np.array(graph.non_constant_flags(), dtype=bool)

        # parameters read, for unique-parameter accounting (a tied/shared
        # weight is stored once per stage, not once per consuming task):
        # ids in order of first read, one per read
        entry = np.flatnonzero(is_param[ins])
        read = ins[entry]
        order = np.argsort(read, kind="stable")
        head = np.ones(len(order), dtype=bool)
        head[1:] = read[order][1:] != read[order][:-1]
        pid_of_head = np.empty(int(head.sum()), dtype=np.int64)
        pid_of_head[np.argsort(order[head])] = np.arange(len(pid_of_head))
        pid = np.empty(len(read), dtype=np.int64)
        pid[order] = pid_of_head[np.cumsum(head) - 1]
        sizes = np.empty(len(pid_of_head), dtype=np.int64)
        sizes[pid_of_head] = numel[read[order][head]]
        self._param_sizes: List[int] = sizes.tolist()
        self._param_sizes_arr = sizes
        # one tuple per task, cut from the per-read ids in CSR order
        reads = iter(pid.tolist())
        self._task_param_ids: List[Tuple[int, ...]] = list(map(
            tuple, map(islice, repeat(reads),
                       np.bincount(in_task[entry], minlength=n).tolist())
        ))

        # distinct readers per value, in task order
        width = max(n, 1)
        key = distinct(ins * width + in_task)
        self.value_consumers = key % width
        self.value_consumer_ptr = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // width, minlength=nv),
                  out=self.value_consumer_ptr[1:])

    def scaled_value_bytes(self, batch_size: int, values=slice(None)) -> np.ndarray:
        """Bytes of ``values`` (ids; default all) at ``batch_size``,
        floating-point values scaled to the working precision: each entry
        is an integer (``1.0`` or ``0.5`` times an even byte count), so
        sums of them are exact in any order."""
        factor = self.precision.activation_bytes_factor
        batched = np.where(self.value_batched[values], batch_size, 1)
        scale = np.where(self.value_float[values], factor, 1.0)
        return (self.value_bytes[values] * batched) * scale

    # ------------------------------------------------------------------
    # vectorized time tables
    # ------------------------------------------------------------------
    def _times_at(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-task (t_f, t_b) arrays at one batch size (cached)."""
        table = self._time_tables.get(batch_size)
        with self._counter_lock:
            self.table_calls += 1
            self.table_hits += table is not None
        if table is not None:
            return table
        return self._build_time_table(batch_size)

    def _build_time_table(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        device = self.cost_model.device
        act_factor = self.precision.activation_bytes_factor
        peak_mm = device.peak_flops(self.precision) * device.matmul_efficiency
        peak_other = device.peak_flops_fp32 * device.matmul_efficiency
        peak = np.where(self.is_matmul, peak_mm, peak_other)

        compute_f = self.fwd_flops * batch_size / peak
        traffic_f = (
            self.act_bytes * batch_size * act_factor + self.param_bytes
        ) / device.mem_bandwidth
        tf = np.maximum(compute_f, traffic_f) + device.kernel_overhead
        tf[self.is_free] = 0.0

        if self.mode == "inference":
            tb = np.zeros_like(tf)  # no backward pass is ever run
        else:
            compute_b = self.bwd_flops * batch_size / peak
            traffic_b = (
                2.0 * self.act_bytes * batch_size * act_factor
                + 2.0 * self.param_bytes
            ) / device.mem_bandwidth
            tb = np.maximum(compute_b, traffic_b) + device.kernel_overhead
            tb[self.is_free] = 0.0

        table = (tf, tb)
        self._time_tables[batch_size] = table
        return table

    def indices_of(self, task_names: Iterable[str]) -> np.ndarray:
        return np.fromiter(
            (self._index[t] for t in task_names), dtype=np.int64
        )

    # ------------------------------------------------------------------
    # the Algorithm-1 oracle
    # ------------------------------------------------------------------
    def profile(
        self,
        task_names: Sequence[str],
        batch_size: int,
        microbatches_in_flight: int = 1,
        checkpointing: bool = False,
    ) -> ProfileResult:
        """Profile a subcomponent: ``(t_f, t_b, m)`` plus boundary bytes.

        Args:
            task_names: tasks forming the subcomponent ``U``.
            batch_size: per-replica microbatch size (the
                ``BS/R/MB/(d-d')`` of Algorithm 1); clamped to >= 1.
            microbatches_in_flight: how many microbatches' stashes are
                resident simultaneously (the pipeline depth term).
            checkpointing: activation checkpointing (adds one forward
                recompute to ``t_b`` and shrinks the stash to the stage
                boundary).
        """
        batch_size = max(1, int(batch_size))
        with self._counter_lock:
            self.profile_calls += 1

        idx = self.indices_of(task_names)
        tf_all, tb_all = self._times_at(batch_size)
        t_f = float(tf_all[idx].sum())
        t_b = float(tb_all[idx].sum())
        if checkpointing and self.mode == "training":
            t_b += t_f  # recompute the forward before the backward

        act_factor = self.precision.activation_bytes_factor
        saved = float(self.saved_bytes[idx].sum()) * batch_size * act_factor
        kv = float(self.kv_saved_bytes[idx].sum()) * batch_size * act_factor
        params = self.unique_param_count(idx)

        in_bytes, out_bytes = self._boundary_bytes(idx, batch_size)
        memory = self.memory_model.total_bytes(
            param_count=params,
            saved_act_bytes_micro=saved,
            boundary_in_bytes_micro=in_bytes,
            microbatches_in_flight=microbatches_in_flight,
            checkpointing=checkpointing,
            kv_bytes_micro=kv,
        )
        return ProfileResult(
            time_fwd=t_f,
            time_bwd=t_b,
            memory=memory,
            param_count=params,
            in_bytes=in_bytes,
            out_bytes=out_bytes,
        )

    def unique_param_count(self, task_indices: np.ndarray) -> int:
        """Number of distinct parameters consumed by a set of tasks
        (shared/tied weights counted once)."""
        seen: set = set()
        for i in task_indices:
            seen.update(self._task_param_ids[i])
        if not seen:
            return 0
        return int(
            self._param_sizes_arr[np.fromiter(seen, dtype=np.int64)].sum()
        )

    # ------------------------------------------------------------------
    # communication helpers
    # ------------------------------------------------------------------
    def boundary_bytes(
        self, task_names: Sequence[str], batch_size: int
    ) -> Tuple[float, float]:
        """Precision-scaled activation bytes crossing the boundary of U:
        the values of ``TaskGraph.boundary_values``, parameters and
        constants left out of the inputs."""
        return self._boundary_bytes(self.indices_of(task_names), batch_size)

    def _boundary_bytes(
        self, idx: np.ndarray, batch_size: int
    ) -> Tuple[float, float]:
        member = np.zeros(len(self._names), dtype=bool)
        member[idx] = True
        # inputs produced outside U (or graph leaves)
        ins, _ = csr_rows(self.task_in_ptr, self.task_in, idx)
        producer = self.value_producer[ins]
        ins = distinct(
            ins[((producer < 0) | ~member[producer]) & ~self.value_const[ins]]
        )
        # outputs read outside U, or graph outputs
        outs = distinct(csr_rows(self.task_out_ptr, self.task_out, idx)[0])
        readers, which = csr_rows(
            self.value_consumer_ptr, self.value_consumers, outs
        )
        leaving = self.value_output[outs]
        leaving[which[~member[readers]]] = True
        return (
            float(self.scaled_value_bytes(batch_size, ins).sum()),
            float(self.scaled_value_bytes(batch_size, outs[leaving]).sum()),
        )

    # ------------------------------------------------------------------
    @property
    def memo_hit_rate(self) -> float:
        """Fraction of per-batch time-table lookups answered from the
        memo."""
        return self.table_hits / self.table_calls if self.table_calls else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "profile_calls": self.profile_calls,
            "table_calls": self.table_calls,
            "table_hits": self.table_hits,
            "memo_hit_rate": self.memo_hit_rate,
        }

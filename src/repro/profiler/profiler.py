"""Graph profiler: the per-graph table and the Algorithm-1 oracle.

``GraphProfiler`` plays the role of the paper's ``profile(U, batch)``
procedure.  Its construction is one pass over the task graph that
builds the **table** every pre-search layer reads instead of the graph's
dicts (tasks indexed in the graph's topological insertion order, values
in insertion order):

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

The time-table memo is a plain dict: the planner is serial, and callers
that share one profiler across threads (through a stored ``dp_context``)
must serialize whole runs per model family, as the plan service does
(DESIGN.md, "Who reaches a shared context").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.graph.ir import TaskGraph, ValueKind
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.profiler.cost_model import CostModel, task_row, value_record
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
    """Profiling oracle over one task graph on one cluster."""

    def __init__(
        self,
        graph: TaskGraph,
        cluster: ClusterSpec,
        precision: Precision = Precision.FP32,
        optimizer: OptimizerKind = OptimizerKind.ADAM,
        mode: str = "training",
    ) -> None:
        self.graph = graph
        self.cluster = cluster
        self.precision = precision
        self.mode = mode
        self.cost_model = CostModel(cluster.device, precision)
        self.memory_model = MemoryModel(precision, optimizer, mode)
        self._build_table(graph)

        self._time_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.profile_calls = 0
        self.table_calls = 0
        self.table_hits = 0

    def _build_table(self, graph: TaskGraph) -> None:
        """One pass over the values, then one over the tasks."""
        tasks = graph.tasks
        self._names: List[str] = list(tasks)
        index = self._index = {t: i for i, t in enumerate(self._names)}

        value_index: Dict[str, int] = {}
        records = []
        is_float, const, producer = [], [], []
        consumer_ptr, consumers = [0], []
        # a value depends on the model input: seeded at the graph
        # inputs, propagated to the outputs of non-constant tasks
        depends = []
        for i, (vname, value) in enumerate(graph.values.items()):
            value_index[vname] = i
            records.append(value_record(value))
            is_float.append(value.dtype.is_float)
            kind = value.kind
            const.append(kind is ValueKind.PARAM or kind is ValueKind.CONST)
            depends.append(kind is ValueKind.INPUT)
            producer.append(
                -1 if value.producer is None else index[value.producer]
            )
            consumers.extend(dict.fromkeys(index[c] for c in value.consumers))
            consumer_ptr.append(len(consumers))

        rows = []
        kv = []
        non_constant = []
        in_ptr, ins_all, out_ptr, outs_all = [0], [], [0], []
        param_of: Dict[int, int] = {}
        self._task_param_ids: List[Tuple[int, ...]] = []
        self._param_sizes: List[int] = []
        for task in tasks.values():
            ins = [value_index[v] for v in task.inputs]
            outs = [value_index[v] for v in task.outputs]
            in_recs = [records[v] for v in ins]
            rows.append(task_row(graph, task, in_recs,
                                 [records[v] for v in outs]))
            kv.append(self._kv_bytes(task.op_type, ins, in_recs, const))
            flag = any(depends[v] for v in ins)
            non_constant.append(flag)
            if flag:
                for v in outs:
                    depends[v] = True
            # parameters read, for unique-parameter accounting (a
            # tied/shared weight is stored once per stage, not once per
            # consuming task)
            pids = []
            for v, rec in zip(ins, in_recs):
                if rec[3]:
                    pid = param_of.get(v)
                    if pid is None:
                        pid = param_of[v] = len(self._param_sizes)
                        self._param_sizes.append(rec[1])
                    pids.append(pid)
            self._task_param_ids.append(tuple(pids))
            ins_all.extend(ins)
            in_ptr.append(len(ins_all))
            outs_all.extend(outs)
            out_ptr.append(len(outs_all))

        (self.fwd_flops, self.bwd_flops, self.act_bytes, self.param_bytes,
         self.saved_bytes, param_count, is_matmul, is_free) = (
            np.array(rows, dtype=float).reshape(-1, 8).T.copy()
        )
        self.param_count = param_count.astype(np.int64)
        self.is_matmul = is_matmul != 0
        self.is_free = is_free != 0
        self.kv_saved_bytes = np.array(kv, dtype=float)
        self.non_constant = np.array(non_constant, dtype=bool)
        self._param_sizes_arr = np.asarray(self._param_sizes, dtype=np.int64)
        self.task_in_ptr = np.array(in_ptr, dtype=np.int64)
        self.task_in = np.array(ins_all, dtype=np.int64)
        self.task_out_ptr = np.array(out_ptr, dtype=np.int64)
        self.task_out = np.array(outs_all, dtype=np.int64)

        nv = len(records)
        self.value_bytes = np.array(
            [r[0] for r in records], dtype=np.int64
        )
        self.value_batched = np.array([r[2] for r in records], dtype=bool)
        self.value_float = np.array(is_float, dtype=bool)
        self.value_const = np.array(const, dtype=bool)
        self.value_output = np.zeros(nv, dtype=bool)
        self.value_output[
            [value_index[v] for v in graph.output_names]
        ] = True
        self.value_producer = np.array(producer, dtype=np.int64)
        self.value_consumer_ptr = np.array(consumer_ptr, dtype=np.int64)
        self.value_consumers = np.array(consumers, dtype=np.int64)

    @staticmethod
    def _kv_bytes(op_type: str, ins, in_recs, const) -> float:
        """Per-sample attention K/V bytes persisted by a task while a
        microbatch stays in flight during inference.

        Structural rule: a ``matmul`` whose two operands are both batched
        activations is an attention contraction (``q @ k^T`` or
        ``probs @ v``); its second operand is the cached K (or V) tensor.
        Weight matmuls never qualify -- a PARAM/CONST operand (or any
        value derived only from them, e.g. a transposed embedding table)
        is not batched, so ``lm_head``-style projections are excluded.
        """
        if op_type != "matmul" or len(ins) != 2:
            return 0.0
        for v, rec in zip(ins, in_recs):
            if const[v] or not rec[2]:
                return 0.0
        return float(in_recs[1][0])

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
    # delta-replan support
    # ------------------------------------------------------------------
    #: device fields the per-task cost tables were extracted from; a
    #: rebind target must agree on all of them (capacity fields --
    #: ``memory_bytes``, ``memory_reserve_fraction`` -- may differ: they
    #: never enter a time table or a profile result)
    _PERF_FIELDS = (
        "peak_flops_fp32",
        "peak_flops_fp16",
        "mem_bandwidth",
        "matmul_efficiency",
        "kernel_overhead",
    )

    def rebind_cluster(self, cluster: ClusterSpec) -> "GraphProfiler":
        """Retarget the profiler at a new cluster, keeping every memo.

        Used by delta replanning: the per-task cost arrays and time
        tables depend on the device's *performance* model only, so a
        cluster that merely changed shape, interconnect or memory
        capacity can reuse them all.  ``comm_time`` prices through
        ``self.cluster``, so it immediately sees the new topology.

        Raises:
            ValueError: if the new device's performance fields differ
                (the memoized tables would be silently wrong).
        """
        old, new = self.cluster.device, cluster.device
        for fname in self._PERF_FIELDS:
            if getattr(old, fname) != getattr(new, fname):
                raise ValueError(
                    f"cannot rebind profiler: device.{fname} changed "
                    f"({getattr(old, fname)!r} -> {getattr(new, fname)!r})"
                )
        self.cluster = cluster
        return self

    # ------------------------------------------------------------------
    # vectorized time tables
    # ------------------------------------------------------------------
    def _times_at(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-task (t_f, t_b) arrays at one batch size (cached)."""
        self.table_calls += 1
        table = self._time_tables.get(batch_size)
        if table is not None:
            self.table_hits += 1
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

    def comm_time(self, nbytes: float, same_node: bool = True) -> float:
        """Stage-to-stage transfer time (footnote 3: intra-node bandwidth).

        Delegates to the cluster's configured communication model
        (:mod:`repro.comm`): the flat model reproduces the paper's
        closed form, the topology model prices the transfer over the
        actual NVLink/NIC route."""
        if nbytes <= 0:
            return 0.0
        return self.cluster.p2p_time(nbytes, same_node=same_node)

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

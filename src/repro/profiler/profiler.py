"""Graph profiler: vectorized per-task times + the Algorithm-1 oracle.

``GraphProfiler`` plays the role of the paper's ``profile(U, batch)``
procedure.  Per-task cost coefficients are extracted once into NumPy
arrays (one slot per task, in the graph's topological insertion order) and
every batch size seen gets a vectorized time table, so profiling any
subcomponent is a fancy-indexed sum -- fast enough for the DP's thousands
of candidate stages.  Results are memoized per ``(key, batch, ...)``
exactly where RaNNC caches device profiles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.ir import TaskGraph, ValueKind
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.profiler.cost_model import CostModel
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

        names = list(graph.tasks)
        self._index: Dict[str, int] = {t: i for i, t in enumerate(names)}
        self._names = names
        n = len(names)
        self.fwd_flops = np.zeros(n)
        self.bwd_flops = np.zeros(n)
        self.act_bytes = np.zeros(n)
        self.param_bytes = np.zeros(n)
        self.saved_bytes = np.zeros(n)
        self.kv_saved_bytes = np.zeros(n)
        self.param_count = np.zeros(n, dtype=np.int64)
        self.is_matmul = np.zeros(n, dtype=bool)
        self.is_free = np.zeros(n, dtype=bool)
        for i, tname in enumerate(names):
            task = graph.tasks[tname]
            cost = self.cost_model.task_cost(graph, task)
            self.fwd_flops[i] = cost.fwd_flops
            self.bwd_flops[i] = cost.bwd_flops
            self.act_bytes[i] = cost.act_bytes
            self.param_bytes[i] = cost.param_bytes
            self.saved_bytes[i] = cost.saved_bytes
            self.kv_saved_bytes[i] = self._kv_bytes(graph, task)
            self.param_count[i] = cost.param_count
            self.is_matmul[i] = cost.is_matmul
            self.is_free[i] = cost.is_free

        # param values consumed per task, for unique-parameter accounting
        # (a tied/shared weight must be stored once per stage, not once per
        # consuming task)
        param_ids: Dict[str, int] = {}
        self._task_param_ids: List[Tuple[int, ...]] = []
        self._param_sizes: List[int] = []
        for tname in names:
            ids = []
            for vname in graph.tasks[tname].inputs:
                value = graph.values[vname]
                if value.kind is ValueKind.PARAM:
                    pid = param_ids.get(vname)
                    if pid is None:
                        pid = len(self._param_sizes)
                        param_ids[vname] = pid
                        self._param_sizes.append(value.numel(1))
                    ids.append(pid)
            self._task_param_ids.append(tuple(ids))
        self._param_sizes_arr = np.asarray(self._param_sizes, dtype=np.int64)

        # guards the memo tables and hit counters; runs that share this
        # profiler through a stored dp_context are already serialized
        # per model family (DESIGN.md, "Who reaches a shared context")
        self._lock = threading.RLock()
        self._time_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._cache: Dict[Hashable, ProfileResult] = {}
        self.profile_calls = 0
        self.cache_hits = 0
        self.table_calls = 0
        self.table_hits = 0

    @staticmethod
    def _kv_bytes(graph: TaskGraph, task) -> float:
        """Per-sample attention K/V bytes persisted by ``task`` while a
        microbatch stays in flight during inference.

        Structural rule: a ``matmul`` whose two operands are both batched
        activations is an attention contraction (``q @ k^T`` or
        ``probs @ v``); its second operand is the cached K (or V) tensor.
        Weight matmuls never qualify -- a PARAM/CONST operand (or any
        value derived only from them, e.g. a transposed embedding table)
        is not batched, so ``lm_head``-style projections are excluded.
        """
        if task.op_type != "matmul" or len(task.inputs) != 2:
            return 0.0
        operands = [graph.values[v] for v in task.inputs]
        for value in operands:
            if value.kind in (ValueKind.PARAM, ValueKind.CONST):
                return 0.0
            if not value.batched:
                return 0.0
        return float(operands[1].nbytes(1))

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
        with self._lock:
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
        key: Optional[Hashable] = None,
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
            key: optional hashable identity of ``U`` for memoization.
        """
        batch_size = max(1, int(batch_size))
        cache_key = None
        with self._lock:
            if key is not None:
                cache_key = (
                    key, batch_size, microbatches_in_flight, checkpointing
                )
                hit = self._cache.get(cache_key)
                if hit is not None:
                    self.cache_hits += 1
                    return hit
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

        in_bytes, out_bytes = self.boundary_bytes(task_names, batch_size)
        memory = self.memory_model.total_bytes(
            param_count=params,
            saved_act_bytes_micro=saved,
            boundary_in_bytes_micro=in_bytes,
            microbatches_in_flight=microbatches_in_flight,
            checkpointing=checkpointing,
            kv_bytes_micro=kv,
        )
        result = ProfileResult(
            time_fwd=t_f,
            time_bwd=t_b,
            memory=memory,
            param_count=params,
            in_bytes=in_bytes,
            out_bytes=out_bytes,
        )
        if cache_key is not None:
            with self._lock:
                self._cache[cache_key] = result
        return result

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
        """Precision-scaled activation bytes crossing the boundary of U."""
        in_values, out_values = self.graph.boundary_values(task_names)
        factor = self.precision.activation_bytes_factor
        in_bytes = 0.0
        for vname in in_values:
            value = self.graph.values[vname]
            if value.kind in (ValueKind.PARAM, ValueKind.CONST):
                continue
            scale = factor if value.dtype.value.startswith("float") else 1.0
            in_bytes += value.nbytes(batch_size) * scale
        out_bytes = 0.0
        for vname in out_values:
            value = self.graph.values[vname]
            scale = factor if value.dtype.value.startswith("float") else 1.0
            out_bytes += value.nbytes(batch_size) * scale
        return in_bytes, out_bytes

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
        """Fraction of profiling lookups (subcomponent memo + per-batch
        time tables) answered from a cache."""
        hits = self.cache_hits + self.table_hits
        total = self.profile_calls + self.cache_hits + self.table_calls
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "profile_calls": self.profile_calls,
            "cache_hits": self.cache_hits,
            "cached_entries": len(self._cache),
            "table_calls": self.table_calls,
            "table_hits": self.table_hits,
            "memo_hit_rate": self.memo_hit_rate,
        }

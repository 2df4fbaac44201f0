"""Stage-level partitioning: Algorithm 1 (``form_stage_dp``).

The DP searches, for a fixed number of stages ``S``, total devices ``D``,
replica factor ``R`` and microbatch count ``MB``, over

* stage boundaries ``b_0 = 0 < b_1 < ... < b_S = |B|`` in the
  topologically-sorted block list, and
* cumulative device counts ``d_0 = 0 < d_1 < ... < d_S = D`` (stage ``i``
  runs on ``d_i - d_{i-1}`` devices, i.e. that many intra-stage replicas),

minimizing ``V = max_i t_f(stage_i) + max_i t_b(stage_i)`` where each
stage is profiled at per-replica microbatch ``BS / R / MB / (d_i -
d_{i-1})``, subject to the device-memory bound, with the paper's
``d_min`` pruning rule.  ``S`` only bounds the reachable cells of the
table ``V[s, b, d]``, so one table answers a whole range of stage counts
(``form_stage_dp(ctx, range(...), ...)``); Algorithm 2 makes one such
sweep per node level and microbatch count.

Deviation noted from the pseudocode: we initialize ``V[0, b, d] = 0`` only
at ``(b, d) = (0, 0)`` (the pseudocode's blanket ``V[0, b, d] = 0`` would
let solutions silently skip a prefix of blocks / devices, contradicting
the recurrence for ``E_S`` in the text).

All candidate-stage profiles for one DP call are precomputed into
banded ``(plane, lo, span)`` arrays (:class:`BandedProfile`).  The bands
are built without any per-entry Python work: a stage profile depends on
the replica count only through the per-replica microbatch ``bs = BS //
(R * MB * r)``, so one plane of broadcast prefix-sum differences per
distinct ``bs`` covers the whole replica axis.  Range boundary bytes come
from an incremental per-``lo`` sweep (extend ``hi`` one block at a time)
and unique-parameter sizes from a 2-D difference-array rectangle sum,
both exactly reproducing the per-entry results -- the per-entry builder
is kept as ``profile_tensors_reference`` and property-tested against the
bands.  The DP reduction itself is evaluated for a whole ``(b, d)`` grid
per stage, every replica plane of a ``d'`` column in one pass, with the
``d_min`` pruning rule replayed over the precomputed failure masks so the
visited-state count and all write decisions match the cell-by-cell loop
bit for bit.  The pure-Python transcription stays in
``reference_form_stage_dp`` as the oracle.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.ir import TaskGraph, ValueKind
from repro.obs.metrics import MetricsRegistry, point_name
from repro.obs.tracer import Span, Tracer
from repro.partitioner.blocks import Block
from repro.profiler.profiler import GraphProfiler, ProfileResult

INFEASIBLE = None

#: element budget of one chunk of stacked ``(b', b)`` stage slabs: a
#: ``d'`` column reduces ``max(1, PLANE_CHUNK_CELLS // nb**2)`` replica
#: planes per pass (``nb`` the stage's block span), which bounds the
#: per-column temporaries at a few MiB on bands hundreds of blocks wide
PLANE_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class StageProfile:
    """Profile of one candidate stage (blocks ``(lo, hi]``, ``r`` replicas)."""

    time_fwd: float
    time_bwd: float
    memory: float
    microbatch_size: int
    in_bytes: float
    out_bytes: float
    param_count: int

    def to_profile_result(self) -> ProfileResult:
        """The stage profile as a :class:`ProfileResult` (the plan-level
        type); keeps the two dataclasses from drifting apart."""
        return ProfileResult(
            time_fwd=self.time_fwd,
            time_bwd=self.time_bwd,
            memory=self.memory,
            param_count=self.param_count,
            in_bytes=self.in_bytes,
            out_bytes=self.out_bytes,
        )


def scale_stage_profile(prof: StageProfile, factor: float) -> StageProfile:
    """A stage profile with its times scaled by a device-class factor
    (heterogeneous clusters: the stage runs at its slowest device's
    pace; memory and traffic are byte counts and do not scale)."""
    if factor == 1.0:
        return prof
    return StageProfile(
        time_fwd=prof.time_fwd * factor,
        time_bwd=prof.time_bwd * factor,
        memory=prof.memory,
        microbatch_size=prof.microbatch_size,
        in_bytes=prof.in_bytes,
        out_bytes=prof.out_bytes,
        param_count=prof.param_count,
    )


@dataclass
class DPSolution:
    """Result of one ``form_stage_dp`` call."""

    boundaries: List[int]        # b_1 .. b_S (b_S = |B|)
    device_counts: List[int]     # d_i - d_{i-1} per stage (within a pipeline)
    num_microbatches: int
    num_stages: int
    replica_factor: int
    objective: float             # V[S, |B|, D]
    max_tf: float
    max_tb: float
    stage_profiles: List[StageProfile]
    _iteration_time: Optional[float] = field(
        default=None, repr=False, compare=False
    )

    def estimated_iteration_time(self) -> float:
        """Synchronous-pipeline iteration estimate used to rank solutions
        (event-driven simulation of the flush schedule over the profiled
        per-stage times).  Memoized: ``form_stage`` calls this once per
        ``min()`` comparison, and the inputs are frozen at construction."""
        if self._iteration_time is None:
            from repro.pipeline.simulator import simulate_sync_pipeline

            tf = [p.time_fwd for p in self.stage_profiles]
            tb = [p.time_bwd for p in self.stage_profiles]
            self._iteration_time = simulate_sync_pipeline(
                tf, tb, self.num_microbatches
            )
        return self._iteration_time


@dataclass
class BandedProfile:
    """Banded candidate-stage profiles for one ``(D, R, MB,
    checkpointing)`` key.

    A stage profile depends on the replica count ``r`` only through the
    per-replica microbatch ``bs = BS // (R * MB * r)``, so the replica
    axis collapses to one plane per *distinct* ``bs`` -- and within a DP
    sweep whose smallest stage count is ``S`` every reachable stage spans
    at most ``k - S + 1`` blocks, so each plane needs only that diagonal
    band.  Entry ``[p, lo, j]`` profiles blocks ``(lo, lo + 1 + j]`` at
    microbatch ``bs_list[p]``; entries past the block count hold +inf.
    Peak memory is
    ``O(P * k * band)`` instead of the dense ``O(k^2 * D)``.
    """

    span: int                 # widest stored stage span (band width)
    bs_list: List[int]        # distinct per-replica microbatch sizes
    plane_of_r: np.ndarray    # (D+1,) plane index per r; -1 = bs < 1
    tf: np.ndarray            # (P, k, span) forward time
    tb: np.ndarray            # (P, k, span) backward time
    mem: np.ndarray           # (P, k, span) memory bytes

    def nbytes(self) -> int:
        return self.tf.nbytes + self.tb.nbytes + self.mem.nbytes


class DPContext:
    """Precomputed range profiles over one fixed block list.

    Shared across every ``form_stage_dp`` call of an Algorithm-2 search so
    block-range aggregates (task times, activation sizes, boundary bytes,
    unique parameter counts) are computed once.

    Concurrency contract:

    * **Intra-run** (reads + memoization): all mutable caches and
      counters are guarded by an RLock -- the Algorithm-2 sweep may issue
      DP calls from a thread pool, and both the cached bands and the
      ``dp_calls`` / ``states_evaluated`` statistics must come out
      identical to a serial sweep.
    * **Cross-run** (rebinding): :meth:`rebind` and
      :meth:`set_memory_budget` mutate the shared payload *in place*
      when a ``dp_context`` artifact is reused from an
      :class:`~repro.planner.store.ArtifactStore`
      (``materialize_for_reuse``).  They are single-writer operations:
      they must not race with another run's DP calls on the same
      payload.  The RLock does not serialize whole runs -- callers that
      can share a payload (same model family, e.g. the plan service in
      :mod:`repro.service.engine`) must hold their own per-model mutex
      around the entire pipeline execution.
    """

    def __init__(
        self,
        graph: TaskGraph,
        blocks: Sequence[Block],
        profiler: GraphProfiler,
        batch_size: int,
        metrics: Optional[MetricsRegistry] = None,
        memory_budget: Optional[float] = None,
    ) -> None:
        self.graph = graph
        self.blocks = list(blocks)
        self.profiler = profiler
        self.batch_size = batch_size
        #: optional metrics sink (``profiler.band_*`` counters); safe
        #: to attach after construction too
        self.metrics = metrics
        self.cluster = profiler.cluster
        #: optional per-device memory cap below the hardware capacity
        #: (``PlannerConfig.memory_budget``); bounds the DP's feasibility
        #: check without touching the profiles themselves
        self.memory_budget = memory_budget
        k = len(self.blocks)
        self.k = k

        self._block_idx = [
            profiler.indices_of(b.tasks) for b in self.blocks
        ]
        # prefix over blocks of batch-1 saved-activation bytes
        saved = np.array(
            [float(profiler.saved_bytes[idx].sum()) for idx in self._block_idx]
        )
        self._saved_prefix = np.concatenate([[0.0], np.cumsum(saved)])
        # prefix over blocks of batch-1 attention K/V bytes (inference
        # memory accounting; the training memory model ignores it)
        kv = np.array(
            [float(profiler.kv_saved_bytes[idx].sum()) for idx in self._block_idx]
        )
        self._kv_prefix = np.concatenate([[0.0], np.cumsum(kv)])
        #: forward-only profile semantics (no recompute, no gradient
        #: return traffic on the backward edge)
        self._inference = profiler.mode == "inference"

        self._lock = threading.RLock()
        self._time_prefix: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._range_meta: Dict[Tuple[int, int], Tuple[int, float, float]] = {}
        self._range_mats: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self._band_cache: Dict[
            Tuple[int, int, int, bool], BandedProfile
        ] = {}
        self._hetero_cache: Dict[
            Tuple[int, int], Tuple[np.ndarray, np.ndarray]
        ] = {}
        self.dp_calls = 0
        self.states_evaluated = 0

    def __init_subclass__(cls, **kwargs) -> None:
        # the DP builds its candidate bands plane by plane (one
        # _profile_planes call per per-replica microbatch), so a custom
        # per-entry profile is only honoured with its plane form alongside
        super().__init_subclass__(**kwargs)
        if "stage_profile" in vars(cls) and "_profile_planes" not in vars(cls):
            raise TypeError(
                f"{cls.__name__} overrides stage_profile without "
                f"_profile_planes; the DP builds its candidates from "
                f"_profile_planes, so override both together"
            )

    # ------------------------------------------------------------------
    @property
    def usable_memory(self) -> float:
        """Per-device memory the DP may fill: hardware capacity, further
        capped by :attr:`memory_budget` when one is set."""
        capacity = self.cluster.device.usable_memory
        if self.memory_budget is not None:
            capacity = min(capacity, self.memory_budget)
        return capacity

    def set_memory_budget(self, budget: Optional[float]) -> None:
        """Change the memory cap.  No cache depends on it: every sweep
        applies the cap afresh to the cached profile bands."""
        with self._lock:
            self.memory_budget = budget

    def rebind(
        self,
        cluster: "ClusterSpec",
        metrics: Optional[MetricsRegistry] = None,
        memory_budget: Optional[float] = None,
    ) -> "DPContext":
        """Retarget a reused context at a new planning run.

        The expensive caches (range matrices, per-batch time prefixes,
        profile bands) depend only on the graph, the block list, the
        batch size, the device's *performance* model and the same-node
        p2p affine -- exactly the facets the artifact store keys the
        ``dp_context`` artifact on -- so a delta replan that changes the
        cluster shape, the capacity or the memory budget keeps them all
        (each sweep applies :attr:`usable_memory` afresh).  Only the
        per-slot heterogeneous tables follow the cluster; the per-run
        counters are reset so the new run's diagnostics start from zero.
        """
        self.profiler.rebind_cluster(cluster)
        with self._lock:
            if cluster != self.cluster:
                self._hetero_cache.clear()
            self.cluster = cluster
            self.metrics = metrics
            self.memory_budget = memory_budget
            self.dp_calls = 0
            self.states_evaluated = 0
        return self

    # ------------------------------------------------------------------
    # cache snapshot (artifact-store disk codec)
    # ------------------------------------------------------------------
    def export_cache_state(self) -> Dict[str, np.ndarray]:
        """The reusable numeric caches as named arrays (for ``npz``
        serialization by the artifact store's disk backend).

        Covers the saved-activation prefix, the range matrices and the
        per-batch time prefixes; the profile bands are derived from
        these by pure broadcasting and are cheaper to rebuild than to
        store."""
        with self._lock:
            arrays: Dict[str, np.ndarray] = {
                "saved_prefix": self._saved_prefix,
                "kv_prefix": self._kv_prefix,
            }
            if self._range_mats is not None:
                in1, out1, params = self._range_mats
                arrays["range_in1"] = in1
                arrays["range_out1"] = out1
                arrays["range_params"] = params
            for bs, (tf, tb) in self._time_prefix.items():
                arrays[f"time_tf_{bs}"] = tf
                arrays[f"time_tb_{bs}"] = tb
            return arrays

    def import_cache_state(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore the caches exported by :meth:`export_cache_state`."""
        with self._lock:
            if "saved_prefix" in arrays:
                self._saved_prefix = np.asarray(arrays["saved_prefix"])
            if "kv_prefix" in arrays:
                self._kv_prefix = np.asarray(arrays["kv_prefix"])
            if "range_in1" in arrays:
                self._range_mats = (
                    np.asarray(arrays["range_in1"]),
                    np.asarray(arrays["range_out1"]),
                    np.asarray(arrays["range_params"]),
                )
            for name, arr in arrays.items():
                if name.startswith("time_tf_"):
                    bs = int(name[len("time_tf_"):])
                    self._time_prefix[bs] = (
                        np.asarray(arr),
                        np.asarray(arrays[f"time_tb_{bs}"]),
                    )

    # ------------------------------------------------------------------
    def _count_dp_call(self) -> None:
        with self._lock:
            self.dp_calls += 1

    def _count_states(self, n: int) -> None:
        with self._lock:
            self.states_evaluated += n

    # ------------------------------------------------------------------
    def _time_prefix_at(self, bs: int) -> Tuple[np.ndarray, np.ndarray]:
        """Prefix sums over blocks of per-block (t_f, t_b) at batch bs."""
        with self._lock:
            cached = self._time_prefix.get(bs)
            if cached is not None:
                return cached
            tf_all, tb_all = self.profiler._times_at(bs)
            tf = np.array([float(tf_all[idx].sum()) for idx in self._block_idx])
            tb = np.array([float(tb_all[idx].sum()) for idx in self._block_idx])
            result = (
                np.concatenate([[0.0], np.cumsum(tf)]),
                np.concatenate([[0.0], np.cumsum(tb)]),
            )
            self._time_prefix[bs] = result
            return result

    # ------------------------------------------------------------------
    def _range_matrices(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(IN1, OUT1, PARAMS)`` dense ``(k+1, k+1)`` range matrices.

        ``IN1[lo, hi]`` / ``OUT1[lo, hi]`` are the precision-scaled
        boundary bytes of blocks ``(lo, hi]`` at batch size 1, and
        ``PARAMS[lo, hi]`` the unique-parameter size of the range.  Both
        byte matrices are built by extending ``hi`` one block at a time
        (instead of re-walking ``graph.boundary_values`` per range) with
        the running sums accumulated in exactly the discovery order the
        per-range walk uses, so every entry is bit-identical to
        ``_range_meta_reference``.  PARAMS uses a 2-D difference array:
        a parameter occurring in block ``j`` with previous occurrence in
        block ``q`` contributes its size to every range with
        ``q < lo <= j < hi``, a rectangle, and the double cumulative sum
        of the per-occurrence corner updates yields all ranges at once.
        """
        with self._lock:
            if self._range_mats is not None:
                return self._range_mats
            k = self.k
            graph = self.graph
            profiler = self.profiler
            values = graph.values
            factor = profiler.precision.activation_bytes_factor
            is_output = set(graph.output_names)

            task_block: Dict[str, int] = {}
            for j, blk in enumerate(self.blocks):
                for t in blk.tasks:
                    task_block[t] = j

            # unique-parameter sizes via the rectangle difference array
            sizes = profiler._param_sizes_arr
            diff = np.zeros((k + 2, k + 2), dtype=np.int64)
            last_occ: Dict[int, int] = {}
            for j, blk in enumerate(self.blocks):
                seen_here: set = set()
                for t in blk.tasks:
                    for pid in profiler._task_param_ids[profiler._index[t]]:
                        if pid in seen_here:
                            continue
                        seen_here.add(pid)
                        q = last_occ.get(pid, -1)
                        sz = int(sizes[pid])
                        diff[q + 1, j + 1] += sz
                        diff[j + 1, j + 1] -= sz
                        diff[q + 1, k + 1] -= sz
                        diff[j + 1, k + 1] += sz
                        last_occ[pid] = j
            PARAMS = diff.cumsum(axis=0).cumsum(axis=1)[: k + 1, : k + 1]

            def scaled_bytes1(vname: str) -> float:
                value = values[vname]
                scale = (
                    factor if value.dtype.value.startswith("float") else 1.0
                )
                return value.nbytes(1) * scale

            # per-block event lists, in task order, reused by every lo
            block_inputs: List[List[Tuple[str, int, float]]] = []
            block_outputs: List[List[Tuple[str, float, int, bool]]] = []
            for j, blk in enumerate(self.blocks):
                inp: List[Tuple[str, int, float]] = []
                outp: List[Tuple[str, float, int, bool]] = []
                for t in blk.tasks:
                    task = graph.tasks[t]
                    for vname in task.inputs:
                        value = values[vname]
                        producer = value.producer
                        pb = task_block[producer] if producer else -1
                        if value.kind in (ValueKind.PARAM, ValueKind.CONST):
                            nbytes1 = 0.0  # listed at the cut, never summed
                        else:
                            nbytes1 = scaled_bytes1(vname)
                        inp.append((vname, pb, nbytes1))
                    for vname in task.outputs:
                        ext0 = sum(
                            1 for c in values[vname].consumers
                            if task_block[c] > j
                        )
                        outp.append(
                            (vname, scaled_bytes1(vname), ext0,
                             vname in is_output)
                        )
                block_inputs.append(inp)
                block_outputs.append(outp)
            # values each block absorbs from earlier blocks of the range
            consumed: List[List[Tuple[str, int]]] = [[] for _ in range(k)]
            for vname, value in values.items():
                if value.producer is None:
                    continue
                pb = task_block[value.producer]
                per: Dict[int, int] = {}
                for c in value.consumers:
                    jb = task_block[c]
                    if jb > pb:
                        per[jb] = per.get(jb, 0) + 1
                for jb, cnt in per.items():
                    consumed[jb].append((vname, cnt))

            IN1 = np.zeros((k + 1, k + 1))
            OUT1 = np.zeros((k + 1, k + 1))
            for lo in range(k):
                seen_in: set = set()
                in_run = 0.0
                out_map: Dict[str, float] = {}
                rem: Dict[str, int] = {}
                for j in range(lo, k):
                    for vname, pb, nbytes1 in block_inputs[j]:
                        if pb < lo and vname not in seen_in:
                            seen_in.add(vname)
                            in_run += nbytes1
                    if j > lo:
                        for vname, cnt in consumed[j]:
                            r = rem.get(vname)
                            if r is None:
                                continue  # produced before lo
                            r -= cnt
                            rem[vname] = r
                            if (
                                r == 0
                                and vname in out_map
                                and vname not in is_output
                            ):
                                del out_map[vname]
                    for vname, nbytes1, ext0, is_out in block_outputs[j]:
                        if ext0 > 0 or is_out:
                            out_map[vname] = nbytes1
                        rem[vname] = ext0
                    total_out = 0.0
                    for nbytes1 in out_map.values():
                        total_out += nbytes1
                    IN1[lo, j + 1] = in_run
                    OUT1[lo, j + 1] = total_out

            self._range_mats = (IN1, OUT1, PARAMS)
            return self._range_mats

    def range_meta(self, lo: int, hi: int) -> Tuple[int, float, float]:
        """(unique params, in_bytes@bs1, out_bytes@bs1) of blocks (lo, hi]."""
        key = (lo, hi)
        cached = self._range_meta.get(key)
        if cached is not None:
            return cached
        IN1, OUT1, PARAMS = self._range_matrices()
        result = (int(PARAMS[lo, hi]), float(IN1[lo, hi]), float(OUT1[lo, hi]))
        self._range_meta[key] = result
        return result

    def _range_meta_reference(self, lo: int, hi: int) -> Tuple[int, float, float]:
        """Per-range recomputation of :meth:`range_meta` (the pre-sweep
        implementation); kept as the oracle for the matrix builder."""
        tasks: List[str] = []
        for j in range(lo, hi):
            tasks.extend(self.blocks[j].tasks)
        idx = np.concatenate([self._block_idx[j] for j in range(lo, hi)])
        params = self.profiler.unique_param_count(idx)
        in_bytes, out_bytes = self.profiler.boundary_bytes(tasks, 1)
        return (params, in_bytes, out_bytes)

    def range_tasks(self, lo: int, hi: int) -> Tuple[str, ...]:
        tasks: List[str] = []
        seen = set()
        for j in range(lo, hi):
            for t in self.blocks[j].tasks:
                if t not in seen:
                    seen.add(t)
                    tasks.append(t)
        return tuple(tasks)

    # ------------------------------------------------------------------
    def stage_profile(
        self, lo: int, hi: int, replicas: int, R: int, MB: int, checkpointing: bool
    ) -> Optional[StageProfile]:
        """Profile blocks ``(lo, hi]`` on ``replicas`` devices; ``None`` if
        the per-replica microbatch collapses below one sample.

        With a single stage (``checkpointing=False``), microbatches are
        plain gradient accumulation: backward runs right after each
        forward, so only ONE microbatch's activations are ever live.  In a
        flush-synchronous pipeline every stage stashes all ``MB``
        microbatch inputs."""
        bs = self.batch_size // (R * MB * replicas)
        if bs < 1:
            return None
        tf_prefix, tb_prefix = self._time_prefix_at(bs)
        t_f = float(tf_prefix[hi] - tf_prefix[lo])
        t_b = float(tb_prefix[hi] - tb_prefix[lo])
        if checkpointing and not self._inference:
            t_b += t_f
        params, in1, out1 = self.range_meta(lo, hi)
        in_bytes = in1 * bs
        out_bytes = out1 * bs
        # execution time includes sending outputs forward / input grads back
        # (inference never returns input gradients: t_b stays exactly 0)
        t_f += self.cluster.p2p_time(out_bytes) if out_bytes else 0.0
        if not self._inference:
            t_b += self.cluster.p2p_time(in_bytes) if in_bytes else 0.0
        act_factor = self.profiler.precision.activation_bytes_factor
        saved = float(
            self._saved_prefix[hi] - self._saved_prefix[lo]
        ) * bs * act_factor
        kv = float(
            self._kv_prefix[hi] - self._kv_prefix[lo]
        ) * bs * act_factor
        memory = self.profiler.memory_model.total_bytes(
            param_count=params,
            saved_act_bytes_micro=saved,
            boundary_in_bytes_micro=in_bytes,
            microbatches_in_flight=MB if checkpointing else 1,
            checkpointing=checkpointing,
            kv_bytes_micro=kv,
        )
        return StageProfile(
            time_fwd=t_f,
            time_bwd=t_b,
            memory=memory,
            microbatch_size=bs,
            in_bytes=in_bytes,
            out_bytes=out_bytes,
            param_count=params,
        )

    # ------------------------------------------------------------------
    def _profile_planes(
        self, bs: int, MB: int, checkpointing: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(k+1, k+1)`` t_f / t_b / memory planes at one per-replica
        microbatch size: the whole-plane form of :meth:`stage_profile`.

        Operation order mirrors ``stage_profile`` exactly (prefix
        difference, checkpointing recompute, then the same-node p2p
        affine term ``latency + bytes / bandwidth`` of
        ``ClusterSpec.p2p_time`` gated on non-zero traffic) so each entry
        is the identical float64 arithmetic, just elementwise.  The
        ``(latency, bandwidth)`` pair comes from the cluster's configured
        communication model (``p2p_affine``), which keeps the plane and
        the scalar path exact under both the flat and topology models.
        """
        IN1, OUT1, PARAMS = self._range_matrices()
        tf_prefix, tb_prefix = self._time_prefix_at(bs)
        tf_plane = tf_prefix[None, :] - tf_prefix[:, None]
        tb_plane = tb_prefix[None, :] - tb_prefix[:, None]
        if checkpointing and not self._inference:
            tb_plane = tb_plane + tf_plane
        in_b = IN1 * bs
        out_b = OUT1 * bs
        lat, bw = self.cluster.comm.p2p_affine(same_node=True)
        tf_plane = tf_plane + np.where(out_b != 0.0, lat + out_b / bw, 0.0)
        if not self._inference:
            tb_plane = tb_plane + np.where(
                in_b != 0.0, lat + in_b / bw, 0.0
            )
        act_factor = self.profiler.precision.activation_bytes_factor
        saved = (
            self._saved_prefix[None, :] - self._saved_prefix[:, None]
        ) * bs * act_factor
        kv = (
            self._kv_prefix[None, :] - self._kv_prefix[:, None]
        ) * bs * act_factor
        mem_plane = self.profiler.memory_model.total_bytes(
            param_count=PARAMS,
            saved_act_bytes_micro=saved,
            boundary_in_bytes_micro=in_b,
            microbatches_in_flight=MB if checkpointing else 1,
            checkpointing=checkpointing,
            kv_bytes_micro=kv,
        )
        return tf_plane, tb_plane, mem_plane

    def hetero_tables(self, D: int, R: int) -> Tuple[np.ndarray, np.ndarray]:
        """Position-dependent capacity/speed tables for a heterogeneous
        cluster: ``(MINMEM, SLOW)``, both ``(D+1, D+1)``.

        A stage at cumulative-device boundary ``(d', d)`` occupies slot
        range ``[d', d)`` of every one of the ``R`` contiguous replica
        bands (the contract of ``allocate_devices``), i.e. global ranks
        ``r*D + d' .. r*D + d - 1``.  ``MINMEM[d', d]`` is the smallest
        usable memory over those ranks (the stage must fit its tightest
        device) and ``SLOW[d', d]`` the largest reference-relative time
        factor (the stage runs at its slowest device's pace).  ``MINMEM``
        is further capped by :attr:`memory_budget` when one is set.
        Cached per ``(D, R)``; requires ``D * R <= cluster.total_devices``.
        """
        key = (D, R)
        with self._lock:
            cached = self._hetero_cache.get(key)
            if cached is None:
                mems = np.asarray(self.cluster.rank_memories())
                facs = np.asarray(
                    self.cluster.rank_time_factors(self.profiler.precision)
                )
                if D * R > mems.size:
                    raise ValueError(
                        f"D*R = {D * R} exceeds the cluster's "
                        f"{mems.size} devices"
                    )
                # collapse the replica axis first: slot j of a band maps
                # to rank r*D + j, and a stage's constraint is the worst
                # over every replica band it appears in
                slot_mem = mems[: D * R].reshape(R, D).min(axis=0)
                slot_fac = facs[: D * R].reshape(R, D).max(axis=0)
                MINMEM = np.full((D + 1, D + 1), np.inf)
                SLOW = np.ones((D + 1, D + 1))
                for dp in range(D):
                    MINMEM[dp, dp + 1:] = np.minimum.accumulate(slot_mem[dp:])
                    SLOW[dp, dp + 1:] = np.maximum.accumulate(slot_fac[dp:])
                cached = self._hetero_cache[key] = (MINMEM, SLOW)
            MINMEM, SLOW = cached
            if self.memory_budget is not None:
                MINMEM = np.minimum(MINMEM, self.memory_budget)
            return MINMEM, SLOW

    # ------------------------------------------------------------------
    # banded construction (O(band * D) peak memory)
    # ------------------------------------------------------------------
    def profile_bands(
        self, D: int, R: int, MB: int, checkpointing: bool, span: int
    ) -> BandedProfile:
        """Banded profiles covering stage spans up to ``span`` blocks.

        Cached per ``(D, R, MB, checkpointing)`` and grown on demand: a
        request wider than the cached band rebuilds it (Algorithm 2
        makes one sweep per key, so it builds each band exactly once).
        """
        span = int(min(max(span, 1), self.k))
        key = (D, R, MB, checkpointing)
        with self._lock:
            cached = self._band_cache.get(key)
            if cached is not None and cached.span >= span:
                if self.metrics is not None:
                    self.metrics.counter("profiler.band_cache_hits").inc()
                return cached
            if self.metrics is not None:
                self.metrics.counter("profiler.band_builds").inc()
            band = self._build_bands(D, R, MB, checkpointing, span)
            self._band_cache[key] = band
            return band

    def _build_bands(
        self, D: int, R: int, MB: int, checkpointing: bool, span: int
    ) -> BandedProfile:
        k = self.k
        bs_list: List[int] = []
        plane_index: Dict[int, int] = {}
        plane_of_r = np.full(D + 1, -1, dtype=np.int64)
        for r in range(1, D + 1):
            bs = self.batch_size // (R * MB * r)
            if bs < 1:
                continue  # microbatch collapsed: stays -1
            p = plane_index.get(bs)
            if p is None:
                p = len(bs_list)
                plane_index[bs] = p
                bs_list.append(bs)
            plane_of_r[r] = p
        P = len(bs_list)
        tf = np.full((P, k, span), np.inf)
        tb = np.full((P, k, span), np.inf)
        mem = np.full((P, k, span), np.inf)
        direct = (
            type(self)._profile_planes is DPContext._profile_planes
        )
        for p, bs in enumerate(bs_list):
            if direct:
                tf[p], tb[p], mem[p] = self._band_plane(
                    bs, MB, checkpointing, span
                )
            else:
                # subclass planes: build dense once, slice the band out
                # (transiently O(k^2) but still deduplicated over r)
                planes = self._profile_planes(bs, MB, checkpointing)
                tf[p] = _band_from_plane(planes[0], span)
                tb[p] = _band_from_plane(planes[1], span)
                mem[p] = _band_from_plane(planes[2], span)
        return BandedProfile(
            span=span, bs_list=bs_list, plane_of_r=plane_of_r,
            tf=tf, tb=tb, mem=mem,
        )

    def _band_plane(
        self, bs: int, MB: int, checkpointing: bool, span: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The diagonal band of :meth:`_profile_planes`, gathered without
        materializing the dense plane.  Entry ``[lo, j]`` profiles blocks
        ``(lo, lo + 1 + j]``; the arithmetic (prefix difference,
        checkpointing recompute, p2p affine term, memory model) runs in
        the exact order of :meth:`_profile_planes` so every in-range entry
        is the identical float64 result."""
        k = self.k
        IN1, OUT1, PARAMS = self._range_matrices()
        tf_prefix, tb_prefix = self._time_prefix_at(bs)
        lo = np.arange(k)[:, None]
        hi = lo + 1 + np.arange(span)[None, :]
        valid = hi <= k
        hic = np.minimum(hi, k)
        tf_band = tf_prefix[hic] - tf_prefix[lo]
        tb_band = tb_prefix[hic] - tb_prefix[lo]
        if checkpointing and not self._inference:
            tb_band = tb_band + tf_band
        in_b = IN1[lo, hic] * bs
        out_b = OUT1[lo, hic] * bs
        lat, bw = self.cluster.comm.p2p_affine(same_node=True)
        tf_band = tf_band + np.where(out_b != 0.0, lat + out_b / bw, 0.0)
        if not self._inference:
            tb_band = tb_band + np.where(
                in_b != 0.0, lat + in_b / bw, 0.0
            )
        act_factor = self.profiler.precision.activation_bytes_factor
        saved = (
            self._saved_prefix[hic] - self._saved_prefix[lo]
        ) * bs * act_factor
        kv = (
            self._kv_prefix[hic] - self._kv_prefix[lo]
        ) * bs * act_factor
        mem_band = self.profiler.memory_model.total_bytes(
            param_count=PARAMS[lo, hic],
            saved_act_bytes_micro=saved,
            boundary_in_bytes_micro=in_b,
            microbatches_in_flight=MB if checkpointing else 1,
            checkpointing=checkpointing,
            kv_bytes_micro=kv,
        )
        return (
            np.where(valid, tf_band, np.inf),
            np.where(valid, tb_band, np.inf),
            np.where(valid, mem_band, np.inf),
        )

    def profile_tensors_reference(
        self, D: int, R: int, MB: int, checkpointing: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-entry O(k^2 * D) tensor builder: one ``stage_profile`` call
        per ``(lo, hi, r)``.  The test oracle for the banded builder
        (:meth:`profile_bands`)."""
        k = self.k
        TF = np.full((k + 1, k + 1, D + 1), np.inf)
        TB = np.full((k + 1, k + 1, D + 1), np.inf)
        MEM = np.full((k + 1, k + 1, D + 1), np.inf)
        for lo in range(k):
            for hi in range(lo + 1, k + 1):
                for r in range(1, D + 1):
                    prof = self.stage_profile(lo, hi, r, R, MB, checkpointing)
                    if prof is None:
                        continue
                    TF[lo, hi, r] = prof.time_fwd
                    TB[lo, hi, r] = prof.time_bwd
                    MEM[lo, hi, r] = prof.memory
        return TF, TB, MEM


def _band_from_plane(plane: np.ndarray, span: int) -> np.ndarray:
    """Gather the diagonal band (``hi = lo + 1 + j``) out of a dense
    ``(k+1, k+1)`` range plane; out-of-range entries become +inf."""
    k = plane.shape[0] - 1
    lo = np.arange(k)[:, None]
    hi = lo + 1 + np.arange(span)[None, :]
    valid = hi <= k
    return np.where(valid, plane[lo, np.minimum(hi, k)], np.inf)


def _shear(a: np.ndarray, s: int, nb: int) -> np.ndarray:
    """Zero-copy ``(P, nb, nb)`` view of stacked band planes ``a`` (shape
    ``(P, k, width)``) in stage-``s`` slab coordinates: ``view[p, i, j] =
    a[p, s - 1 + i, j - i]``, i.e. row ``b' = s - 1 + i``, column ``b = s
    + j``.  Out-of-band cells (``j < i``) read the tail of the previous
    row, which is the caller's INF/False padding when ``width >= span +
    nb`` and otherwise harmless finite values that the padded forward
    times already make infeasible.  Every read stays inside ``a``."""
    p0, r0, c0 = a.strides
    return np.lib.stride_tricks.as_strided(
        a[:, s - 1:], (a.shape[0], nb, nb), (p0, r0 - c0, c0)
    )


def _padded_tf(
    bands: BandedProfile,
    P: int,
    nb: int,
    M: Optional[float],
    want_over: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The forward times of the first ``P`` planes (those the sweep can
    read), stacked and padded on the right with ``nb`` INF columns
    (``nb`` the widest stage slab of the sweep), so every stage's
    :func:`_shear` puts INF in the out-of-band cells.  Entries over the
    uniform memory cap ``M`` are poisoned to INF as well (``M is None``:
    heterogeneous, capped per column instead).  Also returns the padded
    over-memory mask when ``want_over`` and any entry is over (the
    ``d_min`` replay's memory failures), else ``None``."""
    _, k, span = bands.tf.shape
    tfp = np.full((P, k, span + nb), np.inf)
    body = tfp[:, :, :span]
    body[...] = bands.tf[:P]
    ovp = None
    if M is not None:
        over = bands.mem[:P] > M
        np.copyto(body, np.inf, where=over)
        if want_over and over.any():
            ovp = np.zeros((P, k, span + nb), dtype=bool)
            ovp[:, :, :span] = over
    return tfp, ovp


def _band_stage(
    bands: BandedProfile,
    tfp: np.ndarray,
    ovp: Optional[np.ndarray],
    hetero: Optional[Tuple[np.ndarray, np.ndarray]],
    prev_ok: np.ndarray,
    ptf: np.ndarray,
    ptb: np.ndarray,
    s: int,
    b_hi: int,
    d_hi: int,
    best: np.ndarray,
    best_tf: np.ndarray,
    best_tb: np.ndarray,
    best_bp: np.ndarray,
    best_dp: np.ndarray,
    memf: np.ndarray,
    bsf: np.ndarray,
) -> None:
    """Reduce every ``(b', d') -> (b, d)`` transition of stage ``s``.

    The stage slab lives in band coordinates -- ``(b', b)`` restricted to
    the reachable rows/cols, a ``nb = b_hi - s + 1`` square -- and is a
    :func:`_shear` view of the stacked planes, one ``(nb, nb)`` slab per
    distinct per-replica microbatch.  Each feasible ``d'`` column reduces
    all of its planes at once (in chunks of :data:`PLANE_CHUNK_CELLS`):
    the candidate ``max(prev_tf, TF) + max(prev_tb, TB)`` over ``b'``,
    first minimum wins.  ``plane_of_r`` then maps each plane's minimum
    onto its ``d = d' + r`` columns; the replica counts whose microbatch
    collapsed are a suffix of ``r`` and only record a bs failure.  A
    running lexicographic ``(value, b', d')`` minimum across columns
    equals the per-cell flat argmin over ``(b', d')`` in row-major order.

    Infeasibility needs no mask passes: out-of-band cells and stages over
    the memory cap hold INF in the padded forward times, so the candidate
    is INF exactly where a transition is invalid (a previous-stage state
    that is infeasible carries INF in ``prev_tf``).  On a heterogeneous
    cluster (``hetero = (MINMEM, SLOW)``) each replica count is its own
    slab: the plane of ``r`` scaled by ``SLOW[d', d' + r]`` and poisoned
    where its memory exceeds ``MINMEM[d', d' + r]``.
    """
    INF = np.inf
    bsl = slice(s, b_hi + 1)
    psl = slice(s - 1, b_hi)
    nb = b_hi - s + 1        # cols b = s .. b_hi
    plane_of_r = bands.plane_of_r
    # replica counts with a plane: the microbatch collapses for a suffix
    n_ok = int((plane_of_r[1:] >= 0).sum())
    Ptf = _shear(tfp, s, nb)
    Ptb = _shear(bands.tb, s, nb)
    Pover = None
    if ovp is not None and ovp[:, psl].any():
        Pover = _shear(ovp, s, nb)
    if hetero is not None:
        MINMEM, SLOW = hetero
        Pmem = _shear(bands.mem, s, nb)
        units = min(d_hi - s + 1, n_ok)   # one slab per replica count
    else:
        units = tfp.shape[0]              # one slab per plane
    chunk = min(max(1, PLANE_CHUNK_CELLS // (nb * nb)), max(units, 1))
    cand_tf = np.empty((chunk, nb, nb))
    cand_tb = np.empty((chunk, nb, nb))
    v = np.empty((chunk, nb, nb))
    # flat offset of (unit, 0, b) in a chunk buffer
    base = np.arange(chunk)[:, None] * (nb * nb) + np.arange(nb)[None, :]
    vmin = np.empty((units, nb))
    vtf = np.empty((units, nb))
    vtb = np.empty((units, nb))
    vbp = np.empty((units, nb), dtype=np.intp)
    vover = np.zeros((units, nb), dtype=bool)
    col_ok = prev_ok.any(axis=0)
    for dp_ in range(s - 1, d_hi):
        if not col_ok[dp_]:
            continue
        nd = d_hi - dp_
        nv = min(nd, n_ok)
        pok = prev_ok[psl, dp_]
        if nv < nd:
            # microbatch collapsed: every valid transition (some b' <= b
            # with a feasible previous state) records a bs failure
            bsf[bsl, dp_ + nv + 1:d_hi + 1] |= np.logical_or.accumulate(
                pok
            )[:, None]
        if nv == 0:
            continue
        pcol_tf = np.where(pok, ptf[psl, dp_], INF)[:, None]
        pcol_tb = ptb[psl, dp_][:, None]
        if hetero is not None:
            n_units = nv
            unit_of_d = slice(0, nv)
        else:
            unit_of_d = plane_of_r[1:nv + 1]
            n_units = int(unit_of_d[-1]) + 1
        for c0 in range(0, n_units, chunk):
            c1 = min(n_units, c0 + chunk)
            c = c1 - c0
            if hetero is not None:
                planes = plane_of_r[c0 + 1:c1 + 1]
                dsl = slice(dp_ + c0 + 1, dp_ + c1 + 1)
                slow = SLOW[dp_, dsl][:, None, None]
                stf = Ptf[planes] * slow
                np.copyto(
                    stf, INF,
                    where=Pmem[planes] > MINMEM[dp_, dsl][:, None, None],
                )
                stb = Ptb[planes] * slow
            else:
                stf = Ptf[c0:c1]
                stb = Ptb[c0:c1]
            if Pover is not None:
                np.any(Pover[c0:c1] & pok[:, None], axis=1, out=vover[c0:c1])
            ctf = np.maximum(pcol_tf, stf, out=cand_tf[:c])
            ctb = np.maximum(pcol_tb, stb, out=cand_tb[:c])
            cv = np.add(ctf, ctb, out=v[:c])
            bp = np.argmin(cv, axis=1, out=vbp[c0:c1])  # smallest b' wins
            flat = bp * nb + base[:c]
            np.take(cv, flat, out=vmin[c0:c1], mode="clip")
            np.take(ctf, flat, out=vtf[c0:c1], mode="clip")
            np.take(ctb, flat, out=vtb[c0:c1], mode="clip")
        g = slice(dp_ + 1, dp_ + nv + 1)
        if Pover is not None:
            memf[bsl, g] |= vover[unit_of_d].T
        if not np.isfinite(vmin[:n_units]).any():
            continue
        vd = vmin[unit_of_d].T                       # (b, d)
        bpg = vbp[unit_of_d].T + (s - 1)
        cur = best[bsl, g]
        cur_bp = best_bp[bsl, g]
        # strict improvement, or an equal value from a smaller b' (equal
        # (value, b') keeps the earlier -- smaller -- d')
        upd = (vd < cur) | ((vd == cur) & (bpg < cur_bp))
        if upd.any():
            best[bsl, g] = np.where(upd, vd, cur)
            best_tf[bsl, g] = np.where(
                upd, vtf[unit_of_d].T, best_tf[bsl, g]
            )
            best_tb[bsl, g] = np.where(
                upd, vtb[unit_of_d].T, best_tb[bsl, g]
            )
            best_bp[bsl, g] = np.where(upd, bpg, cur_bp)
            best_dp[bsl, g] = np.where(upd, dp_, best_dp[bsl, g])


def form_stage_dp(
    ctx: DPContext,
    S: Union[int, range],
    D: int,
    BS: int,
    R: int,
    MB: int,
    dmin_pruning: bool = True,
    *,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    parent_id: Optional[int] = None,
) -> Union[Optional[DPSolution], Dict[int, Optional[DPSolution]]]:
    """Algorithm 1: DP over stage boundaries and device allocations.

    Args:
        ctx: precomputed block-range profiles (carries ``BS``).
        S: number of stages, or a contiguous ``range`` of stage counts
            to answer from one DP sweep.
        D: number of devices available to one pipeline.
        BS: global batch size (must equal ``ctx.batch_size``).
        R: replica factor (whole-pipeline copies).
        MB: number of microbatches.
        dmin_pruning: the paper's d_min search-space reduction; disabling
            it is the ablation of DESIGN.md choice #1.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; when given,
            the whole call is wrapped in a ``dp.form_stage_dp`` span
            carrying ``(S, D, R, MB)`` (``S`` the largest stage count,
            ``S_min`` the smallest), the visited-state count and the
            feasible stage counts.  ``parent_id`` links the span to the
            coordinating Algorithm-2 span when this call runs on a pool
            thread.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            records ``dp.calls``, ``dp.states_evaluated`` (total and per
            ``(D, MB)`` point) and the ``dp.states_per_call`` histogram.

    Returns:
        The best :class:`DPSolution`, or ``None`` (INFEASIBLE); for a
        ``range`` of stage counts, ``{S: solution or None}`` over it.

    **One sweep, every stage count.**  The table ``V[s, b, d]`` does not
    depend on the target stage count: ``S`` only bounds which cells can
    still reach ``(S, |B|, D)`` (``b <= |B| - (S - s)`` and ``d <= D -
    (S - s)``, since every later stage needs a block and a device), and
    every cell reads only cells with smaller ``b`` and ``d``.  So one
    table filled up to the largest ``S`` of a range, each stage ``s``
    over the bounds of the smallest ``S >= s`` in it, holds ``V[S, |B|,
    D]`` for every ``S`` at once: an Algorithm-2 node level costs one
    call per ``(D, R, MB)`` instead of one per ``(S, MB)``.  ``S = 1``
    is the exception: a lone stage runs without activation
    checkpointing, so its profiles differ and it gets a one-stage table
    of its own.  One call is one DP call in the counters, whatever the
    range.  The ``d_min`` replay scans each stage over the sweep's
    bounds, which for a larger ``S`` are wider than its own DP's; the
    extra cells can only prune memory dead ends, which DESIGN.md D1b
    argues are lossless, and the equivalence tests hold every ``S`` of
    a sweep to the per-stage-count reference.

    The transition for every ``(b, d)`` cell of one stage is evaluated
    as a tensor reduction over the banded profiles: the loop runs over
    the few feasible ``d'`` columns, and each column reduces the
    ``(b', b)`` slabs of all its replica planes in one pass (see
    :func:`_band_stage`); a running lexicographic ``(value, b', d')``
    minimum reproduces the per-cell flat argmin tie-break exactly.  On a
    heterogeneous cluster each replica count's slab is scaled by
    ``SLOW[d', d]`` and checked against ``MINMEM[d', d]`` (see
    :meth:`DPContext.hetero_tables`).  The sweep then *replays* the
    original cell ordering (b ascending, d descending) over the
    precomputed memory/bs failure masks to apply the ``d_min`` rule, so
    visited-state counts, pruning decisions and tie-breaks (first
    minimum in ``(b', d')`` row-major order) are those of the per-cell
    loop.
    """
    if BS != ctx.batch_size:
        raise ValueError("batch size mismatch with DPContext")
    stage_counts = S if isinstance(S, range) else range(S, S + 1)
    if stage_counts.step != 1:
        raise ValueError("stage counts must be a contiguous range")
    with ExitStack() as stack:
        sp: Optional[Span] = None
        if tracer is not None and tracer.enabled:
            sp = stack.enter_context(
                tracer.span(
                    "dp.form_stage_dp",
                    category="partitioner.dp",
                    parent_id=parent_id,
                    S=stage_counts[-1] if stage_counts else None,
                    S_min=stage_counts[0] if stage_counts else None,
                    D=D, R=R, MB=MB,
                )
            )
        results = _form_stage_dp_body(
            ctx, stage_counts, D, R, MB, dmin_pruning, sp, metrics
        )
    return results if isinstance(S, range) else results[S]


def _form_stage_dp_body(
    ctx: DPContext,
    stage_counts: range,
    D: int,
    R: int,
    MB: int,
    dmin_pruning: bool,
    sp: Optional[Span],
    metrics: Optional[MetricsRegistry],
) -> Dict[int, Optional[DPSolution]]:
    results: Dict[int, Optional[DPSolution]] = dict.fromkeys(
        stage_counts, INFEASIBLE
    )
    # a stage needs at least one block and one device
    lo = max(stage_counts.start, 1)
    hi = min(stage_counts.stop - 1, ctx.k, D)
    if lo > hi:
        if sp is not None:
            sp.set(feasible=False, reason="stage count out of range")
        return results
    ctx._count_dp_call()
    states = 0
    if lo == 1:
        states += _sweep_table(
            ctx, 1, 1, D, R, MB, False, dmin_pruning, results
        )
        lo = 2
    if lo <= hi:
        states += _sweep_table(
            ctx, lo, hi, D, R, MB, True, dmin_pruning, results
        )
    ctx._count_states(states)
    feasible = [s for s, sol in results.items() if sol is not None]
    if metrics is not None:
        metrics.counter("dp.calls").inc()
        metrics.counter("dp.states_evaluated").inc(states)
        metrics.counter(
            point_name("dp.states_evaluated", D=D, MB=MB)
        ).inc(states)
        metrics.histogram("dp.states_per_call").observe(states)
        if not feasible:
            metrics.counter("dp.infeasible").inc()
    if sp is not None:
        sp.set(
            states_evaluated=states,
            feasible=bool(feasible),
            feasible_stages=feasible,
        )
    return results


def _sweep_table(
    ctx: DPContext,
    s_lo: int,
    s_hi: int,
    D: int,
    R: int,
    MB: int,
    checkpointing: bool,
    dmin_pruning: bool,
    results: Dict[int, Optional[DPSolution]],
) -> int:
    """Fill one Algorithm-1 table up to ``s_hi`` stages, store the
    solution of every ``S`` in ``[s_lo, s_hi]`` into ``results`` and
    return the visited-state count."""
    k = ctx.k
    hetero = None
    if ctx.cluster.is_heterogeneous:
        # the memory cap and stage speed depend on WHICH cumulative-device
        # slots [d', d) a stage lands on (applied per d' column).  The
        # d_min rule is off: feasibility is no longer monotone in d once
        # a class boundary sits inside the slot range.
        hetero = ctx.hetero_tables(D, R)
        dmin_pruning = False
    # every stage that can still reach (S, k, D) for some S >= s_lo spans
    # at most k - s_lo + 1 blocks, so the band covers the whole search
    # space; that is also the widest stage slab of the sweep (nb never
    # grows along it), so one padding serves every stage
    nb_max = k - s_lo + 1
    bands = ctx.profile_bands(D, R, MB, checkpointing, nb_max)
    # likewise a stage spans at most D - s_lo + 1 devices: the planes of
    # larger replica counts (a suffix, as bs falls with r) are never read
    n_planes = int(bands.plane_of_r[1:D - s_lo + 2].max(initial=-1)) + 1
    tfp, ovp = _padded_tf(
        bands, n_planes, nb_max,
        None if hetero is not None else ctx.usable_memory,
        dmin_pruning,
    )

    INF = np.inf
    shape = (s_hi + 1, k + 1, D + 1)
    V = np.full(shape, INF)
    tf = np.zeros(shape)
    tb = np.zeros(shape)
    parent_b = np.full(shape, -1, dtype=np.int64)
    parent_d = np.full(shape, -1, dtype=np.int64)
    # deviation from the pseudocode's blanket V[0, b, d] = 0 (see module
    # docstring): only the empty prefix is a valid 0-stage state.
    V[0, 0, 0] = 0.0

    states = 0

    for s in range(1, s_hi + 1):
        # d_min resets at each stage s: memory infeasibility is
        # monotone in d and in b for FIXED s, but a deeper prefix (larger
        # s) has smaller stages and may be feasible where a shallower one
        # was not (deviation D1b in DESIGN.md; the pseudocode keeps d_min
        # global, which can prune true optima)
        d_min = 1
        # the bounds of the smallest stage count S >= s of the sweep:
        # its S - s later stages each need a block and a device
        slack = max(s_lo - s, 0)
        b_hi = k - slack
        d_hi = D - slack
        prev_ok = np.isfinite(V[s - 1])  # (b', d')
        best = np.full((k + 1, D + 1), INF)
        best_tf = np.zeros((k + 1, D + 1))
        best_tb = np.zeros((k + 1, D + 1))
        best_bp = np.full((k + 1, D + 1), -1, dtype=np.int64)
        best_dp = np.full((k + 1, D + 1), -1, dtype=np.int64)
        memf = np.zeros((k + 1, D + 1), dtype=bool)
        bsf = np.zeros((k + 1, D + 1), dtype=bool)
        keep = np.zeros((k + 1, D + 1), dtype=bool)

        _band_stage(
            bands, tfp, ovp, hetero, prev_ok, tf[s - 1], tb[s - 1],
            s, b_hi, d_hi,
            best, best_tf, best_tb, best_bp, best_dp, memf, bsf,
        )

        # replay the (b asc, d desc) cell order over the failure masks to
        # apply d_min pruning with the exact per-cell semantics
        fin_rows = np.isfinite(best).tolist()
        memf_rows = memf.tolist()
        bsf_rows = bsf.tolist()
        for b in range(s, b_hi + 1):
            d_lo = max(d_min, s)
            if d_lo > d_hi:
                continue
            row_fin = fin_rows[b]
            row_memf = memf_rows[b]
            row_bsf = bsf_rows[b]
            stop = d_lo
            for d in range(d_hi, d_lo - 1, -1):
                states += 1
                if (
                    dmin_pruning
                    and not row_fin[d]
                    and row_memf[d]
                    and not row_bsf[d]
                ):
                    # "No solution with d" due to MEMORY: fewer total
                    # devices only raises per-device pressure, so prune
                    # the remaining (descending) d range.  A microbatch-
                    # collapse failure (bs < 1) is NOT monotone in d --
                    # it occurs at HIGH replica counts -- so it must not
                    # escalate d_min.
                    stop = d
                    d_min = d + 1
                    break
            keep[b, stop:d_hi + 1] = True

        written = keep & np.isfinite(best)
        V[s] = np.where(written, best, INF)
        tf[s] = np.where(written, best_tf, 0.0)
        tb[s] = np.where(written, best_tb, 0.0)
        parent_b[s] = np.where(written, best_bp, -1)
        parent_d[s] = np.where(written, best_dp, -1)

    for S in range(s_lo, s_hi + 1):
        if not np.isfinite(V[S, k, D]):
            continue
        # reconstruct boundaries / device counts
        boundaries: List[int] = []
        device_counts: List[int] = []
        b, d = k, D
        for s in range(S, 0, -1):
            pb, pd = int(parent_b[s, b, d]), int(parent_d[s, b, d])
            boundaries.append(b)
            device_counts.append(d - pd)
            b, d = pb, pd
        assert (b, d) == (0, 0), "DP backtrack did not land on the origin"
        boundaries.reverse()
        device_counts.reverse()

        profiles: List[StageProfile] = []
        lo = 0
        dlo = 0
        for hi, devs in zip(boundaries, device_counts):
            prof = ctx.stage_profile(lo, hi, devs, R, MB, checkpointing)
            assert prof is not None
            if hetero is not None:
                prof = scale_stage_profile(
                    prof, float(hetero[1][dlo, dlo + devs])
                )
            profiles.append(prof)
            lo = hi
            dlo += devs

        results[S] = DPSolution(
            boundaries=boundaries,
            device_counts=device_counts,
            num_microbatches=MB,
            num_stages=S,
            replica_factor=R,
            objective=float(V[S, k, D]),
            max_tf=float(tf[S, k, D]),
            max_tb=float(tb[S, k, D]),
            stage_profiles=profiles,
        )
    return states


def reference_form_stage_dp(
    ctx: DPContext,
    S: int,
    D: int,
    BS: int,
    R: int,
    MB: int,
) -> Optional[DPSolution]:
    """Line-by-line transcription of Algorithm 1 with pure-Python loops.

    Kept as the test oracle: :func:`form_stage_dp` is held to it, field for field, on randomized
    small instances.  On a heterogeneous cluster each stage at
    cumulative-device boundary ``(d', d)`` is capped by ``MINMEM[d', d]``
    and its times are scaled by ``SLOW[d', d]`` (see
    :meth:`DPContext.hetero_tables`), with no ``d_min`` pruning.
    """
    if BS != ctx.batch_size:
        raise ValueError("batch size mismatch with DPContext")
    k = ctx.k
    if S < 1 or S > k or S > D:
        return INFEASIBLE
    checkpointing = S > 1
    M = ctx.usable_memory
    hetero = ctx.cluster.is_heterogeneous
    if hetero:
        MINMEM, SLOW = ctx.hetero_tables(D, R)
    INF = float("inf")

    V = {(0, 0, 0): 0.0}
    tf: Dict[Tuple[int, int, int], float] = {(0, 0, 0): 0.0}
    tb: Dict[Tuple[int, int, int], float] = {(0, 0, 0): 0.0}
    parent: Dict[Tuple[int, int, int], Tuple[int, int]] = {}

    for s in range(1, S + 1):
        d_min = 1  # reset per stage count (see form_stage_dp)
        for b in range(s, k - (S - s) + 1):
            for d in range(D - (S - s), max(d_min, s) - 1, -1):
                saw_mem_fail = False
                saw_bs_fail = False
                for bp in range(s - 1, b):
                    for dp in range(s - 1, d):
                        prev = V.get((s - 1, bp, dp), INF)
                        if prev == INF:
                            continue  # previous stage infeasible
                        prof = ctx.stage_profile(
                            bp, b, d - dp, R, MB, checkpointing
                        )
                        if prof is None:
                            saw_bs_fail = True
                            continue  # microbatch collapsed below 1
                        cap = M
                        if hetero:
                            # the slots [dp, d) set the stage's cap/pace
                            cap = MINMEM[dp, d]
                            prof = scale_stage_profile(
                                prof, float(SLOW[dp, d])
                            )
                        if prof.memory > cap:
                            saw_mem_fail = True
                            continue  # does not fit device memory
                        cand_tf = max(tf[(s - 1, bp, dp)], prof.time_fwd)
                        cand_tb = max(tb[(s - 1, bp, dp)], prof.time_bwd)
                        v = cand_tf + cand_tb
                        if v < V.get((s, b, d), INF):
                            V[(s, b, d)] = v
                            tf[(s, b, d)] = cand_tf
                            tb[(s, b, d)] = cand_tb
                            parent[(s, b, d)] = (bp, dp)
                if (
                    not hetero
                    and V.get((s, b, d), INF) == INF
                    and saw_mem_fail
                    and not saw_bs_fail
                ):
                    # memory-driven dead end: monotone in d, prune
                    d_min = d + 1
                    break

    if V.get((S, k, D), INF) == INF:
        return INFEASIBLE

    boundaries: List[int] = []
    device_counts: List[int] = []
    b, d = k, D
    for s in range(S, 0, -1):
        bp, dp = parent[(s, b, d)]
        boundaries.append(b)
        device_counts.append(d - dp)
        b, d = bp, dp
    boundaries.reverse()
    device_counts.reverse()

    profiles = []
    lo = 0
    dlo = 0
    for hi, devs in zip(boundaries, device_counts):
        prof = ctx.stage_profile(lo, hi, devs, R, MB, checkpointing)
        assert prof is not None
        if hetero:
            prof = scale_stage_profile(prof, float(SLOW[dlo, dlo + devs]))
        profiles.append(prof)
        lo = hi
        dlo += devs

    return DPSolution(
        boundaries=boundaries,
        device_counts=device_counts,
        num_microbatches=MB,
        num_stages=S,
        replica_factor=R,
        objective=V[(S, k, D)],
        max_tf=tf[(S, k, D)],
        max_tb=tb[(S, k, D)],
        stage_profiles=profiles,
    )

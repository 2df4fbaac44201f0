"""Stage-level partitioning: Algorithm 1 (``form_stage_dp``).

The DP searches, for a fixed number of stages ``S``, total devices ``D``,
replica factor ``R`` and microbatch count ``MB``, over

* stage boundaries ``b_0 = 0 < b_1 < ... < b_S = |B|`` in the
  topologically-sorted block list, and
* cumulative device counts ``d_0 = 0 < d_1 < ... < d_S = D`` (stage ``i``
  runs on ``d_i - d_{i-1}`` devices, i.e. that many intra-stage replicas),

minimizing ``V = max_i t_f(stage_i) + max_i t_b(stage_i)`` where each
stage is profiled at per-replica microbatch ``BS / R / MB / (d_i -
d_{i-1})``, subject to the device-memory bound.  ``S`` only bounds the
reachable cells of the table ``V[s, b, d]``, so one table answers a
whole range of stage counts (``form_stage_dp(run, range(...), ...)``);
Algorithm 2 makes one such sweep per node level and microbatch count.

Deviation noted from the pseudocode: we initialize ``V[0, b, d] = 0`` only
at ``(b, d) = (0, 0)`` (the pseudocode's blanket ``V[0, b, d] = 0`` would
let solutions silently skip a prefix of blocks / devices, contradicting
the recurrence for ``E_S`` in the text).

Every stage is priced by one kernel, :meth:`DPContext._range_costs`,
which reads block ranges ``(lo, hi]`` off prefix sums and range matrices
and takes ints or whole index grids alike: all candidate-stage profiles
of one DP call are one call over banded ``(hi, span)`` grids
(:class:`BandedProfile`), and a fixed layout -- a backtracked answer,
the one-stage answer, a repaired plan -- is priced one call per stage
at scalar indices by :meth:`DPRun.price_layout`, the one place that
turns activation checkpointing on (iff the layout has more than one
stage), caps a stage by its device slots and paces it by the slowest.
A stage profile depends on the replica count only through the
per-replica microbatch ``bs = BS // (R * MB * r)``, so one band plane
per distinct ``bs`` covers the whole replica axis.  A band is only as
wide as a stage that fits in device memory can be: a stage's memory is
at least its parameter state plus its saved activations at the smallest
microbatch, a floor that only grows with the span, so every wider stage
is over the cap on every plane.  Range
boundary bytes and unique-parameter sizes come from 2-D difference-array
rectangle sums.  The DP reduction itself is evaluated for a whole ``(b,
d)`` grid per stage, every replica plane of a ``d'`` column in one pass
over ``b' in [b - w, b - 1]`` (``w`` the widest span that fits), and
only on the rows that can reach an answer (:func:`_live_rows`).  The
paper's ``d_min`` rule, which trims the cells a one-by-one loop visits,
saves this evaluation nothing and is not applied: every finite cell is
written.  The per-entry profile transcription, the per-range metadata
recomputation and the pure-Python Algorithm 1 (with its ``d_min`` loop)
that the test suite holds all of this to live with the tests
(``tests/partitioner/oracles.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.graph.ir import TaskGraph
from repro.obs.metrics import MetricsRegistry, point_name
from repro.obs.tracer import Span, Tracer
from repro.partitioner.blocks import Block
from repro.partitioner.plan import StageSpec
from repro.profiler.profiler import (
    GraphProfiler,
    ProfileResult,
    csr_rows,
    distinct,
)

INFEASIBLE = None

#: element budget of one chunk of stacked ``(b, b')`` stage slabs: a
#: ``d'`` column reduces ``max(1, PLANE_CHUNK_CELLS // (nb * w))``
#: replica planes per pass (``nb`` the stage's block span, ``w`` its slab
#: width), which bounds the per-column temporaries at a few MiB on bands
#: hundreds of blocks wide
PLANE_CHUNK_CELLS = 1 << 18

#: capacities whose fit tables a context keeps, newest first: a run reads
#: two, the device capacity its bands are sized for and its sweeps' cap
FIT_TABLES_KEPT = 4
#: stored sweeps a context keeps per sweep key, newest first
SWEEPS_KEPT = 8
#: the parent ``b'`` of a table cell no transition reached: below every
#: candidate ``b'``, so an infeasible candidate never ties with it
NO_PARENT = np.iinfo(np.int64).min


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


@dataclass(frozen=True)
class LayoutFailure:
    """The first stage :meth:`DPRun.price_layout` rejects, with its
    memory and its slots' cap (``memory`` is ``None``: the per-replica
    microbatch collapsed below one sample)."""

    stage: int
    memory: Optional[float] = None
    cap: float = 0.0


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


class StoredSweep(NamedTuple):
    """One finished homogeneous sweep (:meth:`DPContext.store_sweep`)."""

    bound: float                     # inf: unbounded
    mask: np.ndarray                 # np.packbits(band.mem > cap)
    answers: Dict[int, DPSolution]   # the feasible answers, per S
    #: every answer's peak stage memory, in ``answers`` order: the fit
    #: test of the level's stored incumbent (DESIGN.md D2f)
    peaks: Tuple[float, ...]

    def nbytes(self) -> int:
        # an answer holds 7 numbers (its peak included), and per stage a
        # boundary, a device count and 7 profile fields
        return self.mask.nbytes + sum(
            8 * (7 + 9 * sol.num_stages) for sol in self.answers.values()
        )


def sweep_key(
    D: int, R: int, s_lo: int, s_hi: int, MB: int, shape: tuple
) -> Tuple[Tuple[int, int, int, int], Tuple[int, tuple]]:
    """The sweep memo's key of a homogeneous sweep: its node level's
    table (``D``, ``R`` and the stage counts ``s_lo..s_hi`` it fills),
    under which the memo holds all of the level's sweeps, then its
    microbatch count and band shape."""
    return (D, R, s_lo, s_hi), (MB, shape)


class SweepRecord(NamedTuple):
    """One Algorithm-1 sweep of a run (:func:`form_stage_dp`)."""

    D: int
    R: int
    MB: int
    stages: range              # the stage counts it answers
    bound: Optional[float]     # None: unbounded (DESIGN.md D2c)
    outcome: str               # "filled", "reused" (D2d) or "skipped" (D2e)
    states: int                # table cells inside its bounds
    cells: int                 # candidate cells float-reduced
    width: int                 # its slab width
    answers_bounded: int       # answers found above the bound (D2c)
    feasible: Tuple[int, ...]  # the stage counts with an answer


class LevelRecord(NamedTuple):
    """One Algorithm-2 node level of a run (``search.form_stage``)."""

    pruned_mb: Tuple[int, ...]  # microbatch counts not swept (D2b)
    seeded: bool                # a stored incumbent bounded it (D2f)
    fell_back: bool             # it reran unseeded (D2f)
    candidates: int             # the answers it ranked


#: every search total (:meth:`DPRun.totals`) and the metric it is
#: published as: ``dp.band_width_max`` a gauge, every other a counter
TOTAL_METRICS = {
    "dp_calls": "dp.calls",
    "states_evaluated": "dp.states_evaluated",
    "cells_reduced": "dp.cells_reduced",
    "band_width_max": "dp.band_width_max",
    "answers_bounded": "search.answers_bounded",
    "sweeps_reused": "search.sweeps_reused",
    "sweeps_skipped": "search.sweeps_skipped",
    "candidates_tried": "search.candidates_tried",
    "sweeps_pruned": "search.sweeps_pruned",
    "levels_seeded": "search.levels_seeded",
    "seed_fallbacks": "search.seed_fallbacks",
    "band_builds": "profiler.band_builds",
    "band_cache_hits": "profiler.band_cache_hits",
}


def sweep_totals(sweeps: Sequence[SweepRecord]) -> Dict[str, int]:
    """The totals of :data:`TOTAL_METRICS` that sweep records sum to."""
    return {
        "dp_calls": len(sweeps),
        "states_evaluated": sum(s.states for s in sweeps),
        "cells_reduced": sum(s.cells for s in sweeps),
        "band_width_max": max((s.width for s in sweeps), default=0),
        "answers_bounded": sum(s.answers_bounded for s in sweeps),
        "sweeps_reused": sum(s.outcome == "reused" for s in sweeps),
        "sweeps_skipped": sum(s.outcome == "skipped" for s in sweeps),
    }


@dataclass
class BandedProfile:
    """Banded candidate-stage profiles for one ``(D, R, MB)`` key.

    A stage profile depends on the replica count ``r`` only through the
    per-replica microbatch ``bs = BS // (R * MB * r)``, so the replica
    axis collapses to one plane per *distinct* ``bs``.  Within a DP
    sweep whose smallest stage count is ``S`` every reachable stage spans
    at most ``k - S + 1`` blocks, and no stage wider than ``fit_width``
    fits ``capacity`` on any plane, so each plane needs only a diagonal
    band of the narrower width.  Entry ``[p, hi, j]`` profiles blocks
    ``(hi - 1 - j, hi]`` at microbatch ``bs_list[p]`` (hi-major, so the
    stage slabs of a sweep are plain slices); entries reaching below
    block 0 hold +inf.  Peak memory is ``O(P * k * band)`` instead of the
    dense ``O(k^2 * D)``.
    """

    span: int                 # widest stored stage span (band width)
    bs_list: List[int]        # distinct per-replica microbatch sizes
    plane_of_r: np.ndarray    # (D+1,) plane index per r; -1 = bs < 1
    tf: np.ndarray            # (P, k+1, span) forward time
    tb: np.ndarray            # (P, k+1, span) backward time
    mem: np.ndarray           # (P, k+1, span) memory bytes
    #: per-device memory the band was sized for, and the widest span
    #: that fits it on some plane: every wider stage is over ``capacity``
    capacity: float
    fit_width: int

    def nbytes(self) -> int:
        return self.tf.nbytes + self.tb.nbytes + self.mem.nbytes


class DPContext:
    """Algorithm 1's memo over one fixed block list.

    Shared across every ``form_stage_dp`` call of an Algorithm-2 search so
    block-range aggregates (task times, activation sizes, boundary bytes,
    unique parameter counts) are computed once.  Everything it holds is
    a pure function of the graph, the block list, the batch size, the
    profiler's device performance model and the same-node p2p affine
    (taken from the profiler at construction) -- exactly the facets the
    artifact store keys the ``dp_context`` artifact on -- so one context
    serves every run that reaches it through a store, whatever its
    cluster shape, capacity or memory budget.  A run's own state (its
    cluster, budget and search records) lives in a :class:`DPRun`
    each caller builds.

    The caches (range matrices, per-batch time prefixes, fit tables,
    profile bands and the sweep memo) fill on demand, and every fill is
    idempotent: two runs that build the same entry at once build the
    same values and the last write wins (a band sized for a larger
    capacity may replace a narrower one; DESIGN.md D1c).  So concurrent
    runs may share one context without a lock.  The fit tables keep the
    :data:`FIT_TABLES_KEPT` most recent capacities, and the sweep memo
    the :data:`SWEEPS_KEPT` most recent sweeps per :func:`sweep_key`
    (DESIGN.md D2d), each replaced by one store of a new tuple.
    """

    def __init__(
        self,
        graph: TaskGraph,
        blocks: Sequence[Block],
        profiler: GraphProfiler,
        batch_size: int,
    ) -> None:
        self.graph = graph
        self.blocks = list(blocks)
        self.profiler = profiler
        self.batch_size = batch_size
        #: ``(latency, bandwidth)`` stage boundaries are priced at
        #: (footnote 3: same-node transfers)
        self._p2p = profiler.p2p_local
        k = len(self.blocks)
        self.k = k

        self._block_idx = [
            profiler.indices_of(b.tasks) for b in self.blocks
        ]
        #: every (block, task) membership: the task ids block by block,
        #: and the block of each
        self._member_task = (
            np.concatenate(self._block_idx) if k else np.zeros(0, np.int64)
        )
        self._member_block = np.repeat(
            np.arange(k), [len(idx) for idx in self._block_idx]
        )
        # prefixes over blocks of batch-1 saved-activation bytes and of
        # attention K/V bytes (inference memory accounting; the training
        # memory model ignores it); integer sums, exact in any order
        saved, kv = (
            np.bincount(self._member_block, weights=col[self._member_task],
                        minlength=k)
            for col in (profiler.saved_bytes, profiler.kv_saved_bytes)
        )
        self._saved_prefix = np.concatenate([[0.0], np.cumsum(saved)])
        self._kv_prefix = np.concatenate([[0.0], np.cumsum(kv)])
        #: forward-only profile semantics (no recompute, no gradient
        #: return traffic on the backward edge)
        self._inference = profiler.mode == "inference"

        self._time_prefix: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._range_mats: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None
        #: ``(capacity, _fit_width's per-span thresholds)`` of the most
        #: recent capacities, newest first
        self._fit_tables: Tuple[Tuple[float, List[int]], ...] = ()
        self._band_cache: Dict[Tuple[int, int, int], BandedProfile] = {}
        #: the most recent stored sweeps, newest first, per
        #: :func:`sweep_key` (a level's, then a sweep's within it)
        self._sweep_memo: Dict[tuple, Dict[tuple, tuple]] = {}

    # ------------------------------------------------------------------
    # The two readers below may run while another run inserts into the
    # caches: each copies the dict's values (one C-level step) before
    # it iterates.
    @property
    def band_bytes(self) -> int:
        """Bytes held by the cached profile bands."""
        return sum(b.nbytes() for b in list(self._band_cache.values()))

    def nbytes(self) -> int:
        """Bytes of every array the context holds: the block membership
        and the saved/KV prefixes, the range matrices, the per-batch
        time prefixes, the fit tables, the profile bands and the sweep
        memo (the artifact store weighs its memory tier with it).  A fit
        table or a stored answer counts 8 bytes per number it holds."""
        arrays = [self._member_task, self._member_block,
                  self._saved_prefix, self._kv_prefix, *self._block_idx]
        arrays.extend(self._range_mats or ())
        for pair in list(self._time_prefix.values()):
            arrays.extend(pair)
        fit_bytes = sum(8 * len(table) for _, table in self._fit_tables)
        return (
            sum(a.nbytes for a in arrays) + fit_bytes + self.band_bytes
            + sum(stored.nbytes() for level in list(self._sweep_memo.values())
                  for kept in list(level.values()) for stored in kept)
        )

    # ------------------------------------------------------------------
    def recall_sweep(
        self,
        key: tuple,
        bound: float,
        mask: np.ndarray,
        fits: Optional[np.ndarray],
    ) -> Optional[StoredSweep]:
        """The stored sweep under ``key`` (a :func:`sweep_key`) that
        answers a homogeneous sweep
        at ``bound`` with packed memory mask ``mask``, if one does
        (DESIGN.md D2d): its bound is at least ``bound``, and its mask
        equals ``mask`` on the entries of ``fits``, the packed ``t_f +
        t_b <= bound`` (``None`` for an unbounded sweep: everywhere).
        Its answers at or below ``bound`` are then the sweep's."""
        level, sweep = key
        for stored in self._sweep_memo.get(level, {}).get(sweep, ()):
            if stored.bound < bound:
                continue
            diff = stored.mask ^ mask
            if fits is not None:
                diff &= fits
            if not diff.any():
                return stored
        return None

    def store_sweep(
        self,
        key: tuple,
        bound: float,
        mask: np.ndarray,
        answers: Dict[int, DPSolution],
    ) -> None:
        """Keep a finished sweep for :meth:`recall_sweep`: its bound, its
        packed memory mask and its feasible answers, with their peak
        stage memory (:meth:`DPRun.stored_incumbent`)."""
        peaks = tuple(
            max(p.memory for p in sol.stage_profiles)
            for sol in answers.values()
        )
        level, sweep = key
        sweeps = self._sweep_memo.setdefault(level, {})
        kept = sweeps.get(sweep, ())
        sweeps[sweep] = (
            StoredSweep(bound, mask, answers, peaks), *kept[:SWEEPS_KEPT - 1]
        )

    # ------------------------------------------------------------------
    def _time_prefix_at(self, bs: int) -> Tuple[np.ndarray, np.ndarray]:
        """Prefix sums over blocks of per-block (t_f, t_b) at batch bs."""
        cached = self._time_prefix.get(bs)
        if cached is None:
            self.fill_time_prefixes((bs,))
            cached = self._time_prefix[bs]
        return cached

    def fill_time_prefixes(self, batch_sizes) -> None:
        """Build the time prefixes of every batch size not cached yet in
        one pass over the blocks: one ``take`` per block from a
        C-contiguous ``(2 * n_bs, n_tasks)`` table of per-task times.
        Each row of a block's take is contiguous, so its sum is the same
        pairwise sum as a 1-D sum over the block's tasks, bit for bit."""
        missing = [
            bs for bs in dict.fromkeys(batch_sizes)
            if bs not in self._time_prefix
        ]
        if not missing:
            return
        table = np.array(
            [row for bs in missing for row in self.profiler._times_at(bs)]
        )
        sums = np.zeros((len(table), self.k))
        for j, idx in enumerate(self._block_idx):
            sums[:, j] = np.take(table, idx, axis=1).sum(axis=1)
        for i, bs in enumerate(missing):
            self._time_prefix[bs] = tuple(
                np.concatenate([[0.0], np.cumsum(row)])
                for row in sums[2 * i:2 * i + 2]
            )

    def replica_microbatch(self, R: int, MB: int, r: int) -> int:
        """The per-replica microbatch ``BS // (R * MB * r)`` of a stage
        on ``r`` replicas, in a pipeline replicated ``R`` times and fed
        ``MB`` microbatches: ``0`` once the microbatch collapses below
        one sample.  At ``r = 1`` it is also the most replicas a stage
        may have before that happens."""
        return self.batch_size // (R * MB * r)

    def plane_batch_sizes(
        self, D: int, R: int, MB: int
    ) -> Tuple[List[int], np.ndarray]:
        """The distinct per-replica microbatches
        (:meth:`replica_microbatch`) over ``r = 1 .. D`` (one band plane
        each, in ``r`` order) and the plane of every ``r`` (``-1`` where
        the microbatch collapses below one sample)."""
        bs_list: List[int] = []
        plane_index: Dict[int, int] = {}
        plane_of_r = np.full(D + 1, -1, dtype=np.int64)
        for r in range(1, D + 1):
            bs = self.replica_microbatch(R, MB, r)
            if bs < 1:
                continue  # microbatch collapsed: stays -1
            p = plane_index.get(bs)
            if p is None:
                p = len(bs_list)
                plane_index[bs] = p
                bs_list.append(bs)
            plane_of_r[r] = p
        return bs_list, plane_of_r

    # ------------------------------------------------------------------
    def _range_matrices(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(IN1, OUT1, PARAMS)`` dense ``(k+1, k+1)`` range matrices.

        ``IN1[lo, hi]`` / ``OUT1[lo, hi]`` are the precision-scaled
        boundary bytes of blocks ``(lo, hi]`` at batch size 1, and
        ``PARAMS[lo, hi]`` the unique-parameter size of the range.  Each
        contribution covers a rectangle of ``(lo, hi)`` ranges, so all
        three are 2-D difference arrays (see :func:`_rectangle_sums`):

        * PARAMS: a parameter occurring in block ``j`` with previous
          occurrence in block ``q`` counts for ``q < lo <= j < hi``;
        * OUT1: a value produced in block ``p`` leaves every range with
          ``lo <= p < hi <= e``, ``e`` its last consumer's block (``k``
          for a graph output, which leaves every range holding it);
        * IN1: an activation produced in block ``p`` (``-1``: a graph
          input) and consumed in blocks ``c_1 < ... < c_m`` after ``p``
          enters a range whose first consumer block is ``c_i``, one
          rectangle per gap: ``c_{i-1} < lo <= c_i < hi`` (``c_0 = p``).

        The rectangles of every ``(block, task)`` membership come at once
        from the profiler's graph table (task inputs, outputs and
        parameter ids; value producers, readers and bytes).  Every byte
        summand is an integer byte count times 1.0 or 0.5, so the float
        sums are exact in any order and every entry is bit-identical to a
        per-range recomputation (the test suite's
        ``range_meta_reference``).
        """
        if self._range_mats is not None:
            return self._range_mats
        k = self.k
        p = self.profiler
        members, member_block = self._member_task, self._member_block
        # a task cloned into several blocks counts in the last of them
        task_block = np.full(len(p.non_constant), -1, dtype=np.int64)
        np.maximum.at(task_block, members, member_block)
        scaled = p.scaled_value_bytes(1)

        # PARAMS: one rectangle per (block, parameter), sorted by
        # parameter then block, reaching back past the previous block
        # that holds the same parameter
        pids = p._task_param_ids
        member_list = members.tolist()
        pid = np.fromiter(
            (q for t in member_list for q in pids[t]), dtype=np.int64
        )
        pid_block = np.repeat(
            member_block, [len(pids[t]) for t in member_list]
        )
        key = distinct(pid * (k + 1) + pid_block)
        pid, j = key // (k + 1), key % (k + 1)
        prev = np.full(len(key), -1, dtype=np.int64)
        same = pid[1:] == pid[:-1]
        prev[1:][same] = j[:-1][same]
        param_rects = (prev + 1, j, j + 1, np.full_like(j, k),
                       p._param_sizes_arr[pid])

        # OUT1: every output of every member task leaves the ranges
        # ending between its block and its last consumer's block
        out_v, which = csr_rows(p.task_out_ptr, p.task_out, members)
        j = member_block[which]
        last_reader = np.full(len(scaled), -1, dtype=np.int64)
        counts = np.diff(p.value_consumer_ptr)
        np.maximum.at(
            last_reader,
            np.repeat(np.arange(len(counts)), counts),
            task_block[p.value_consumers],
        )
        last = np.where(p.value_output[out_v], k, last_reader[out_v])
        keep = last > j
        out_rects = (np.zeros(int(keep.sum()), dtype=np.int64), j[keep],
                     j[keep] + 1, last[keep], scaled[out_v[keep]])

        # IN1: per non-constant value, its distinct consumer blocks after
        # its producer's block, one rectangle per gap
        in_v, which = csr_rows(p.task_in_ptr, p.task_in, members)
        keep = ~p.value_const[in_v]
        key = distinct(in_v[keep] * (k + 1) + member_block[which[keep]])
        v, c = key // (k + 1), key % (k + 1)
        producer = p.value_producer[v]
        start = np.where(producer >= 0, task_block[producer], -1)
        keep = c > start
        v, c, start = v[keep], c[keep], start[keep]
        prev = start.copy()
        same = v[1:] == v[:-1]
        prev[1:][same] = c[:-1][same]
        in_rects = (prev + 1, c, c + 1, np.full_like(c, k), scaled[v])

        IN1 = _rectangle_sums(k, in_rects, np.float64)
        OUT1 = _rectangle_sums(k, out_rects, np.float64)
        PARAMS = _rectangle_sums(k, param_rects, np.int64)
        self._range_mats = (IN1, OUT1, PARAMS)
        return self._range_mats

    def stage_specs(
        self,
        boundaries: Sequence[int],
        device_counts: Sequence[int],
        profiles: Sequence[StageProfile],
    ) -> List[StageSpec]:
        """The plan stages of a priced layout (see
        :meth:`DPRun.price_layout`)."""
        return [
            StageSpec(
                index=i,
                block_range=(lo, hi),
                tasks=self.range_tasks(lo, hi),
                devices_per_pipeline=devs,
                microbatch_size=prof.microbatch_size,
                profile=prof.to_profile_result(),
            )
            for i, (lo, hi, devs, prof) in enumerate(
                zip([0, *boundaries], boundaries, device_counts, profiles)
            )
        ]

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
        the per-replica microbatch collapses below one sample."""
        bs = self.replica_microbatch(R, MB, replicas)
        if bs < 1:
            return None
        t_f, t_b, memory, in_bytes, out_bytes, params = self._range_costs(
            lo, hi, bs, MB, checkpointing
        )
        return StageProfile(
            time_fwd=float(t_f),
            time_bwd=float(t_b),
            memory=float(memory),
            microbatch_size=bs,
            in_bytes=float(in_bytes),
            out_bytes=float(out_bytes),
            param_count=int(params),
        )

    def _range_costs(self, lo, hi, bs: int, MB: int, checkpointing: bool):
        """``(t_f, t_b, memory, in_bytes, out_bytes, params)`` of blocks
        ``(lo, hi]`` at per-replica microbatch ``bs``: the one stage-cost
        kernel of Algorithm 1.

        ``lo`` / ``hi`` are ints or broadcastable index arrays, so the
        same float64 operations price one backtracked stage and a whole
        profile band: prefix differences, the checkpointing recompute,
        then the same-node p2p affine term ``latency + bytes /
        bandwidth`` of ``ClusterSpec.p2p_time`` gated on non-zero
        traffic, and the memory model's total.

        With a single stage (``checkpointing=False``), microbatches are
        plain gradient accumulation: backward runs right after each
        forward, so only ONE microbatch's activations are ever live.  In a
        flush-synchronous pipeline every stage stashes all ``MB``
        microbatch inputs.  A subclass reprices stages by overriding this
        method alone.

        Precondition, for this method and every override: at every
        ``(lo, hi]``, ``bs >= 1``, ``MB`` and ``checkpointing``, the
        memory is at least the floor of :meth:`_fit_width`,
        ``static_bytes(PARAMS[lo, hi]) + saved(lo, hi) * bs *
        act_factor``.  The band width (DESIGN.md D1c) and the sweep
        prune (D2b) are lossless only under it.
        """
        IN1, OUT1, PARAMS = self._range_matrices()
        tf_prefix, tb_prefix = self._time_prefix_at(bs)
        t_f = tf_prefix[hi] - tf_prefix[lo]
        t_b = tb_prefix[hi] - tb_prefix[lo]
        if checkpointing and not self._inference:
            t_b = t_b + t_f
        in_b = IN1[lo, hi] * bs
        out_b = OUT1[lo, hi] * bs
        # execution time includes sending outputs forward / input grads
        # back (inference never returns input gradients)
        lat, bw = self._p2p
        t_f = t_f + np.where(out_b != 0.0, lat + out_b / bw, 0.0)
        if not self._inference:
            t_b = t_b + np.where(in_b != 0.0, lat + in_b / bw, 0.0)
        act_factor = self.profiler.precision.activation_bytes_factor
        saved = (
            self._saved_prefix[hi] - self._saved_prefix[lo]
        ) * bs * act_factor
        kv = (self._kv_prefix[hi] - self._kv_prefix[lo]) * bs * act_factor
        params = PARAMS[lo, hi]
        memory = self.profiler.memory_model.total_bytes(
            param_count=params,
            saved_act_bytes_micro=saved,
            boundary_in_bytes_micro=in_b,
            microbatches_in_flight=MB if checkpointing else 1,
            checkpointing=checkpointing,
            kv_bytes_micro=kv,
        )
        return t_f, t_b, memory, in_b, out_b, params

    # ------------------------------------------------------------------
    # banded construction (O(band * D) peak memory)
    # ------------------------------------------------------------------
    def _build_bands(
        self, D: int, R: int, MB: int, span: int, capacity: float
    ) -> BandedProfile:
        k = self.k
        bs_list, plane_of_r = self.plane_batch_sizes(D, R, MB)
        P = len(bs_list)
        # every plane is at least the memory floor at the smallest
        # microbatch, so the floor's fit bounds the band before it is built
        fit = self._fit_width(bs_list[-1], capacity) if P else 0
        width = max(1, min(span, fit))
        # entry [hi, j] prices blocks (hi - 1 - j, hi]; +inf below block 0
        hi = np.arange(k + 1)[:, None]
        lo = hi - 1 - np.arange(width)[None, :]
        below = lo < 0
        lo = np.maximum(lo, 0)
        tf = np.empty((P, k + 1, width))
        tb = np.empty((P, k + 1, width))
        mem = np.empty((P, k + 1, width))
        for p, bs in enumerate(bs_list):
            costs = self._range_costs(lo, hi, bs, MB, True)
            for out, cost in zip((tf, tb, mem), costs):
                out[p] = np.where(below, np.inf, cost)
        return BandedProfile(
            span=width, bs_list=bs_list, plane_of_r=plane_of_r,
            tf=tf, tb=tb, mem=mem, capacity=capacity, fit_width=fit,
        )

    def _fit_width(self, bs: int, capacity: float) -> int:
        """Widest block span whose memory floor at per-replica microbatch
        ``bs`` (``1 <= bs <= BS``) fits ``capacity`` (0: no single block
        does).

        The floor is the parameter state plus the saved activations of
        one microbatch, ``static_bytes(PARAMS) + saved * bs * factor``,
        with the same float64 operations as the memory model: every
        training (checkpointing or not) and inference profile adds only
        non-negative terms to it, and a microbatch of at least ``bs``
        only grows it, so a stage whose floor is over ``capacity`` is
        over it on every plane of a band whose smallest microbatch is
        ``bs``.  A :meth:`_range_costs` override must keep its memory at
        or above this floor; the coarsening ablation's summed estimate
        does (``static_bytes`` is linear, so the per-atom static bytes
        sum to at least those of the unique parameters, and it adds only
        non-negative activation and boundary bytes).

        The floor only grows with ``bs``, so ``fit(bs) <= fit(1)``, and
        a stage's floor is at most that of any range holding it.  Per
        capacity, ``fit(1)`` is read once off the dense ``(k+1, k+1)``
        floor plane, and each stage of the band of spans up to ``fit(1)``
        gets the largest ``bs <= BS`` at which it fits
        (:func:`_fit_thresholds`); the per-span maxima answer every
        ``bs`` of that capacity by bisection."""
        tables = self._fit_tables
        table = next((t for cap, t in tables if cap == capacity), None)
        if table is None:
            table = self._fit_table(capacity)
            self._fit_tables = (
                (capacity, table), *tables[:FIT_TABLES_KEPT - 1]
            )
        return bisect_right(table, -bs)

    def _fit_table(self, capacity: float) -> List[int]:
        """``-t[j]`` for spans ``j + 1 <= fit(1)``, ascending: ``t[j]`` is
        the largest ``bs <= BS`` at which some stage of at least ``j +
        1`` blocks fits ``capacity``, so ``fit(bs)`` is the number of
        ``t[j] >= bs``."""
        act_factor = self.profiler.precision.activation_bytes_factor
        static_bytes = self.profiler.memory_model.static_bytes
        _, _, PARAMS = self._range_matrices()
        saved = self._saved_prefix
        idx = np.arange(self.k + 1)
        floor = static_bytes(PARAMS) + (
            saved[None, :] - saved[:, None]
        ) * 1 * act_factor
        # fit(1): the widest span hi - lo whose floor fits
        width = int(np.where(floor <= capacity, idx - idx[:, None], 0).max())
        # band entry [hi, j] is the stage (hi - 1 - j, hi]; one reaching
        # below block 0 gets an infinite floor, so it never fits
        hi = idx[:, None]
        lo = hi - 1 - idx[None, :width]
        below = lo < 0
        lo[below] = 0
        static = static_bytes(PARAMS[lo, hi])
        static[below] = np.inf
        best = _fit_thresholds(
            static, saved[hi] - saved[lo], act_factor, capacity,
            self.batch_size,
        ).max(axis=0, initial=0)
        # a stage wider than j + 1 holds one of j + 1 blocks that fits
        # wherever it does; the suffix maximum keeps t non-increasing
        # whatever the rounding
        best = np.maximum.accumulate(best[::-1])[::-1]
        return (-best).astype(np.int64).tolist()


class DPRun:
    """One run's use of a shared :class:`DPContext`.

    Holds what depends on the run rather than on the memo's address: the
    run's cluster and memory budget (the caps a sweep applies to the
    cached bands, and the heterogeneous slot tables) and the search's
    accounting: a :class:`SweepRecord` per sweep, a :class:`LevelRecord`
    per node level and its band builds and cache hits, from which every
    total is derived (:meth:`totals`; each reads as an attribute,
    ``run.dp_calls``).  Each caller builds its own, so concurrent runs
    over one context share nothing mutable but the memo's idempotent
    fills.
    """

    def __init__(
        self,
        memo: DPContext,
        cluster: "ClusterSpec",
        memory_budget: Optional[float] = None,
    ) -> None:
        self.memo = memo
        self.cluster = cluster
        #: optional per-device memory cap below the hardware capacity
        #: (``PlannerConfig.memory_budget``); bounds the DP's feasibility
        #: check without touching the profiles themselves
        self.memory_budget = memory_budget
        self._slot_tables: Dict[
            Tuple[int, int], Tuple[np.ndarray, np.ndarray]
        ] = {}
        self.sweeps: List[SweepRecord] = []
        self.levels: List[LevelRecord] = []
        #: :meth:`profile_bands` calls that built a band, and cache hits
        self.band_builds = self.band_cache_hits = 0

    def totals(self) -> Dict[str, int]:
        """The search totals, keyed as :data:`TOTAL_METRICS`."""
        return {
            **sweep_totals(self.sweeps),
            "candidates_tried": sum(lv.candidates for lv in self.levels),
            "sweeps_pruned": sum(len(lv.pruned_mb) for lv in self.levels),
            "levels_seeded": sum(lv.seeded for lv in self.levels),
            "seed_fallbacks": sum(lv.fell_back for lv in self.levels),
            "band_builds": self.band_builds,
            "band_cache_hits": self.band_cache_hits,
        }

    def __getattr__(self, name: str) -> int:
        # only reached for a name the run does not hold: a total
        if name in TOTAL_METRICS:
            return self.totals()[name]
        raise AttributeError(name)

    #: each sweep's bound, in order (``None``: unbounded)
    sweep_bounds = property(lambda self: [s.bound for s in self.sweeps])

    def publish(self, metrics: MetricsRegistry) -> None:
        """Record the :meth:`totals` in ``metrics``, each sweep's states
        at its ``(D, MB)`` point and in ``dp.states_per_call`` (and in
        ``dp.infeasible`` when it has no answer), and the cached bands'
        bytes if the run built one."""
        for name, value in self.totals().items():
            if name == "band_width_max":
                metrics.gauge(TOTAL_METRICS[name]).set(value)
            else:
                metrics.counter(TOTAL_METRICS[name]).inc(value)
        for sweep in self.sweeps:
            metrics.counter(
                point_name("dp.states_evaluated", D=sweep.D, MB=sweep.MB)
            ).inc(sweep.states)
            metrics.histogram("dp.states_per_call").observe(sweep.states)
            if not sweep.feasible:
                metrics.counter("dp.infeasible").inc()
        if self.band_builds:
            metrics.gauge("profiler.band_bytes").set(self.memo.band_bytes)

    @property
    def usable_memory(self) -> float:
        """Per-device memory the DP may fill: hardware capacity, further
        capped by :attr:`memory_budget` when one is set."""
        capacity = self.cluster.device.usable_memory
        if self.memory_budget is not None:
            capacity = min(capacity, self.memory_budget)
        return capacity

    @property
    def capacity(self) -> float:
        """Largest per-device memory any stage may fill, whatever the
        budget: the device capacity (the largest device class's on a
        heterogeneous cluster).  Bands are sized for it, so one context
        serves every budget below it from cache."""
        return float(max(self.cluster.rank_memories()))

    def hetero_tables(self, D: int, R: int) -> Tuple[np.ndarray, np.ndarray]:
        """The :func:`slot_tables` of the run's cluster, precision and
        :attr:`memory_budget`, cached per ``(D, R)``."""
        key = (D, R)
        if key not in self._slot_tables:
            self._slot_tables[key] = slot_tables(
                self.cluster, self.memo.profiler.precision, D, R,
                self.memory_budget,
            )
        return self._slot_tables[key]

    def stored_incumbent(
        self,
        stage_counts: range,
        D: int,
        R: int,
        microbatch_counts: Sequence[int],
    ) -> float:
        """The best flush makespan among the memo's stored answers for a
        node level that still fit :attr:`usable_memory` (``inf``: none
        does, or the cluster is heterogeneous: its stages are capped and
        paced per slot, so a stored homogeneous answer is not priced as
        its layout would be).

        Only the sweeps of the level's table (``(D, R)``, its stage
        counts from two up) at one of ``microbatch_counts`` count, the
        level's swept ones: a stage profile does not depend on the cap,
        so a stored answer whose peak stage memory fits is a layout the
        level may take (DESIGN.md D2f).  The search ranked every stored
        answer, so its makespan is memoized: the scan prices nothing."""
        if self.cluster.is_heterogeneous:
            return math.inf
        # the level of the table :func:`_form_stage_dp_body` fills
        level, _ = sweep_key(D, R, max(stage_counts.start, 2),
                             min(stage_counts.stop - 1, self.memo.k, D), 0, ())
        wanted = set(microbatch_counts)
        cap = self.usable_memory
        best = math.inf
        stored_sweeps = self.memo._sweep_memo.get(level, {})
        for (MB, _), kept in list(stored_sweeps.items()):
            if MB not in wanted:
                continue
            for stored in kept:
                for peak, sol in zip(stored.peaks, stored.answers.values()):
                    if peak <= cap:
                        best = min(best, sol.estimated_iteration_time())
        return best

    def price_layout(
        self,
        boundaries: Sequence[int],
        device_counts: Sequence[int],
        R: int,
        MB: int,
        slots: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[Optional[DPSolution], Optional[LayoutFailure]]:
        """Price a fixed layout: stage ``i`` holds blocks ending at
        ``boundaries[i]`` on ``device_counts[i]`` devices of each of
        ``R`` pipelines, at ``MB`` microbatches.  Checkpointing is on iff
        there is more than one stage.  A stage on the slots ``[d', d)``
        must fit their cap and runs at their slowest device's pace, read
        off ``slots = (MINMEM, SLOW)`` (:func:`slot_tables`; without it,
        :attr:`usable_memory` and the reference pace).

        Returns ``(solution, None)`` -- its objective ``max t_f + max
        t_b`` is the same float as Algorithm 1's running maxima give --
        or ``(None, failure)`` for the first stage that fails."""
        checkpointing = len(boundaries) > 1
        profiles: List[StageProfile] = []
        lo = dlo = 0
        for i, (hi, devs) in enumerate(zip(boundaries, device_counts)):
            prof = self.memo.stage_profile(lo, hi, devs, R, MB, checkpointing)
            if prof is None:
                return None, LayoutFailure(i)
            if slots is None:
                cap, factor = self.usable_memory, 1.0
            else:
                cap = slots[0][dlo, dlo + devs]
                factor = float(slots[1][dlo, dlo + devs])
            if prof.memory > cap:
                return None, LayoutFailure(i, prof.memory, cap)
            profiles.append(scale_stage_profile(prof, factor))
            lo = hi
            dlo += devs
        max_tf = max(p.time_fwd for p in profiles)
        max_tb = max(p.time_bwd for p in profiles)
        return DPSolution(
            boundaries=list(boundaries),
            device_counts=list(device_counts),
            num_microbatches=MB,
            num_stages=len(boundaries),
            replica_factor=R,
            objective=max_tf + max_tb,
            max_tf=max_tf,
            max_tb=max_tb,
            stage_profiles=profiles,
        ), None

    def profile_bands(
        self, D: int, R: int, MB: int, span: int
    ) -> BandedProfile:
        """The memo's banded profiles covering stage spans up to ``span``
        blocks, or up to the widest span that fits :attr:`capacity` when
        that is narrower (every wider stage is over the device on every
        plane).

        Bands price multi-stage layouts, so checkpointing is on.
        Cached per ``(D, R, MB)`` and grown on demand: a
        request the cached band does not cover -- wider than it, unless
        the band already holds every span that fits its capacity and the
        capacity is no larger than that -- rebuilds it (Algorithm 2 makes
        one sweep per key, so a run builds each band at most once).  The
        memory budget plays no part, so one band serves every budget.
        """
        memo = self.memo
        span = int(min(max(span, 1), memo.k))
        key = (D, R, MB)
        capacity = self.capacity
        cached = memo._band_cache.get(key)
        if cached is not None and (
            cached.span >= span
            or (
                capacity <= cached.capacity
                and cached.span >= cached.fit_width
            )
        ):
            self.band_cache_hits += 1
            return cached
        band = memo._build_bands(D, R, MB, span, capacity)
        memo._band_cache[key] = band
        self.band_builds += 1
        return band


def slot_tables(
    cluster: "ClusterSpec",
    precision: "Precision",
    D: int,
    R: int,
    memory_budget: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Position-dependent capacity/speed tables: ``(MINMEM, SLOW)``,
    both ``(D+1, D+1)``.

    A stage at cumulative-device boundary ``(d', d)`` occupies slot
    range ``[d', d)`` of every one of the ``R`` contiguous replica bands
    (the contract of ``allocate_devices``), i.e. global ranks ``r*D +
    d' .. r*D + d - 1``.  ``MINMEM[d', d]`` is the smallest usable
    memory over those ranks (the stage must fit its tightest device),
    further capped by ``memory_budget`` when one is set, and ``SLOW[d',
    d]`` the largest reference-relative time factor at ``precision``
    (the stage runs at its slowest device's pace).  Requires ``D * R <=
    cluster.total_devices``.
    """
    mems = np.asarray(cluster.rank_memories())
    facs = np.asarray(cluster.rank_time_factors(precision))
    if D * R > mems.size:
        raise ValueError(
            f"D*R = {D * R} exceeds the cluster's {mems.size} devices"
        )
    # collapse the replica axis first: slot j of a band maps to rank
    # r*D + j, and a stage's constraint is the worst over every replica
    # band it appears in
    slot_mem = mems[: D * R].reshape(R, D).min(axis=0)
    slot_fac = facs[: D * R].reshape(R, D).max(axis=0)
    MINMEM = np.full((D + 1, D + 1), np.inf)
    SLOW = np.ones((D + 1, D + 1))
    for dp in range(D):
        MINMEM[dp, dp + 1:] = np.minimum.accumulate(slot_mem[dp:])
        SLOW[dp, dp + 1:] = np.maximum.accumulate(slot_fac[dp:])
    if memory_budget is not None:
        MINMEM = np.minimum(MINMEM, memory_budget)
    return MINMEM, SLOW


def _rectangle_sums(k: int, rects: Tuple[np.ndarray, ...], dtype) -> np.ndarray:
    """``(k+1, k+1)`` matrix holding, at ``[lo, hi]``, the sum of ``w``
    over every rectangle of the column arrays ``(lo0, lo1, hi0, hi1, w)``
    with ``lo0 <= lo <= lo1`` and ``hi0 <= hi <= hi1``: four corner
    updates per rectangle and a double cumulative sum."""
    lo0, lo1, hi0, hi1, w = rects
    w = w.astype(dtype)
    diff = np.zeros((k + 2, k + 2), dtype=dtype)
    np.add.at(diff, (lo0, hi0), w)
    np.add.at(diff, (lo0, hi1 + 1), -w)
    np.add.at(diff, (lo1 + 1, hi0), -w)
    np.add.at(diff, (lo1 + 1, hi1 + 1), w)
    return diff.cumsum(axis=0).cumsum(axis=1)[: k + 1, : k + 1]


def _fit_thresholds(
    static: np.ndarray,
    saved: np.ndarray,
    act_factor: float,
    capacity: float,
    bs_max: int,
) -> np.ndarray:
    """Per stage, the largest ``bs`` in ``[0, bs_max]`` whose floor
    ``static + saved * bs * act_factor`` (the float64 operations of
    :meth:`DPContext._fit_width`) fits ``capacity``.  The floor does not
    fall as ``bs`` grows, so a division estimates the answer and single
    steps correct it until the floor fits at it and not one above."""
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.floor((capacity - static) / (saved * act_factor))
    # a stage with no saved bytes fits at every bs or at none: +inf,
    # -inf, or nan for a floor exactly at the capacity
    est = np.maximum(np.fmin(est, bs_max), 0)
    while True:
        up = static + saved * (est + 1) * act_factor <= capacity
        up &= est < bs_max
        down = static + saved * est * act_factor > capacity
        down &= est > 0
        if not (up.any() or down.any()):
            return est
        est += up
        est -= down


def _slab_width(over: np.ndarray, nb_max: int) -> int:
    """Widest span, at most ``nb_max``, at which some stage of the
    ``(P, k+1, span)`` band is not ``over`` the memory cap: every wider
    stage is over it on every plane, so a sweep's slabs stop there."""
    fits = np.flatnonzero(~over.all(axis=(0, 1)))
    return max(1, min(nb_max, int(fits[-1]) + 1 if fits.size else 0))


def _live_rows(
    prev_ok: np.ndarray, ws: int, back: int
) -> Tuple[List[int], List[int]]:
    """Per ``d'`` column, the slab rows ``[lo, hi)`` the reduction runs on.

    ``prev_ok`` holds the previous stage's feasibility at ``b' = s - 1 ..
    b_hi - 1``, so slab row ``i`` (``b = s + i``) reads its rows ``i - ws
    + 1 .. i``.  Forward bound: a row can have a candidate only between
    the first feasible ``b'`` of the column and ``ws`` past its last.
    Backward bound: slab rows below ``back`` cannot reach block ``k`` in
    the stages left.  One ``argmax`` per end for the whole stage."""
    n = prev_ok.shape[0]
    first = prev_ok.argmax(axis=0).tolist()
    last = (n - 1 - prev_ok[::-1].argmax(axis=0)).tolist()
    hi = [min(j + ws, n) for j in last]
    lo = [min(max(i, back), h) for i, h in zip(first, hi)]
    return lo, hi


def _windows(pad: np.ndarray, ws: int) -> np.ndarray:
    """Read-only ``[row, i, t] = pad[row, i + t]``: the sliding windows
    of ``sliding_window_view(pad, ws, axis=1)``, without its argument
    checks (a sweep takes two per stage)."""
    rows, n = pad.shape
    s0, s1 = pad.strides
    return as_strided(
        pad, (rows, n - ws + 1, ws), (s0, s1, s1), writeable=False
    )


def _band_stage(
    tfp: np.ndarray,
    tbv: np.ndarray,
    memv: np.ndarray,
    plane_of_r: np.ndarray,
    hetero: Optional[Tuple[np.ndarray, np.ndarray]],
    prev_ok: np.ndarray,
    ptf: np.ndarray,
    ptb: np.ndarray,
    s: int,
    b_hi: int,
    d_hi: int,
    b_back: int,
    best: np.ndarray,
    best_tf: np.ndarray,
    best_tb: np.ndarray,
    best_bp: np.ndarray,
    best_dp: np.ndarray,
) -> int:
    """Reduce the ``(b', d') -> (b, d)`` transitions of stage ``s`` and
    return the candidate cells float-reduced.

    ``tfp`` / ``tbv`` / ``memv`` are the sweep's ``(P, k+1, w)`` band
    views (``w`` the widest span that fits; ``tfp`` with over-memory
    entries poisoned to INF on a homogeneous cluster).  The stage
    slab of each plane is the plain slice of columns ``b = s ..
    b_hi`` and spans reversed, so slab cell ``[i, t]`` is the stage
    ``(b', b]`` with ``b = s + i`` and ``b' = b - ws + t`` (``ws = min(w,
    nb)``, ``nb = b_hi - s + 1``): ``b'`` ascends along the reduced axis.
    Each feasible ``d'`` column reduces all of its planes at once (in
    chunks of :data:`PLANE_CHUNK_CELLS`): the candidate ``max(prev_tf,
    TF) + max(prev_tb, TB)`` over ``b'``, first minimum wins, with the
    previous stage read through a sliding window over its ``d'`` column.
    ``plane_of_r`` then maps each plane's minimum onto its ``d = d' + r``
    columns; the replica counts whose microbatch collapsed are a suffix
    of ``r`` and have no candidate.  A running lexicographic
    ``(value, b', d')`` minimum across columns equals the per-cell flat
    argmin over ``(b', d')`` in row-major order.

    The reduction runs only on the rows :func:`_live_rows` marks as able
    to matter: rows with a feasible ``b'`` in their window (forward
    bound) at ``b >= b_back`` (backward bound: no stage is wider than
    ``w``, so a lower row cannot reach block ``k`` in the stages left).
    A row above the backward bound reads only rows above the previous
    stage's, so values, parents and tie-breaks are those of the full
    reduction.

    Infeasibility needs no mask passes: the window reads INF below block
    0 and where the previous state is infeasible, and stages over the
    memory cap hold INF in ``tfp``, so the candidate is INF exactly where
    a transition is invalid.  A stage wider than ``ws`` is over the cap
    on every plane, so it can never win.  On a heterogeneous cluster
    (``hetero = (MINMEM, SLOW)``) each replica count is its own slab: the
    plane of ``r`` scaled by ``SLOW[d', d' + r]`` and poisoned where its
    memory exceeds ``MINMEM[d', d' + r]``.
    """
    INF = np.inf
    bsl = slice(s, b_hi + 1)
    nb = b_hi - s + 1        # cols b = s .. b_hi
    ws = min(tfp.shape[2], nb)
    jsl = slice(ws - 1, None, -1)   # span ws .. 1, i.e. b' ascending
    # replica counts with a plane: the microbatch collapses for a suffix
    n_ok = int((plane_of_r[1:] >= 0).sum())
    Ptf = tfp[:, bsl, jsl]
    Ptb = tbv[:, bsl, jsl]
    lo_of, hi_of = _live_rows(prev_ok[s - 1:b_hi], ws, b_back - s)
    if hetero is not None:
        MINMEM, SLOW = hetero
        Pmem = memv[:, bsl, jsl]
        units = min(d_hi - s + 1, n_ok)   # one slab per replica count
    else:
        units = tfp.shape[0]              # one slab per plane
    chunk = min(max(1, PLANE_CHUNK_CELLS // (nb * ws)), max(units, 1))
    # a column fills the first ``hi - lo`` rows of each buffer
    cand_tf = np.empty((chunk, nb, ws))
    cand_tb = np.empty((chunk, nb, ws))
    v = np.empty((chunk, nb, ws))
    # flat offset of (unit, i, 0) in a chunk buffer
    base = (np.arange(chunk)[:, None] * nb + np.arange(nb)[None, :]) * ws
    vmin = np.empty((units, nb))
    vtf = np.empty((units, nb))
    vtb = np.empty((units, nb))
    vbp = np.empty((units, nb), dtype=np.intp)
    # previous stage per d' row, padded with ws infeasible rows below
    # b' = 0: window [d', b, t] holds b' = b - ws + t
    n_rows, n_cols = prev_ok.shape
    pad_tf = np.full((n_cols, ws + n_rows), INF)
    pad_tf[:, ws:] = np.where(prev_ok, ptf, INF).T
    pad_tb = np.zeros(pad_tf.shape)
    pad_tb[:, ws:] = ptb.T
    win_tf = _windows(pad_tf, ws)
    win_tb = _windows(pad_tb, ws)
    bp_off = np.arange(s - ws, b_hi + 1 - ws)[:, None]
    cells = 0
    # a column whose feasible states all lie at b' >= b_hi has no
    # transition into the stage
    col_ok = prev_ok[s - 1:b_hi].any(axis=0)
    for dp_ in range(s - 1, d_hi):
        lo, hi = lo_of[dp_], hi_of[dp_]
        nf = hi - lo
        # no replica count with a plane, or no row that can matter
        nv = min(d_hi - dp_, n_ok)
        if not col_ok[dp_] or nv == 0 or nf == 0:
            continue
        wtf = win_tf[dp_, s + lo:s + hi]
        wtb = win_tb[dp_, s + lo:s + hi]
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
                stf = Ptf[planes, lo:hi] * slow
                np.copyto(
                    stf, INF,
                    where=Pmem[planes, lo:hi]
                    > MINMEM[dp_, dsl][:, None, None],
                )
                stb = Ptb[planes, lo:hi] * slow
            else:
                stf = Ptf[c0:c1, lo:hi]
                stb = Ptb[c0:c1, lo:hi]
            ctf = np.maximum(wtf, stf, out=cand_tf[:c, :nf])
            ctb = np.maximum(wtb, stb, out=cand_tb[:c, :nf])
            cv = np.add(ctf, ctb, out=v[:c, :nf])
            # smallest b' wins
            bp = np.argmin(cv, axis=2, out=vbp[c0:c1, :nf])
            flat = bp + base[:c, :nf]   # into the whole buffers
            np.take(v, flat, out=vmin[c0:c1, :nf], mode="clip")
            np.take(cand_tf, flat, out=vtf[c0:c1, :nf], mode="clip")
            np.take(cand_tb, flat, out=vtb[c0:c1, :nf], mode="clip")
            cells += c * nf * ws
        if not np.isfinite(vmin[:n_units, :nf]).any():
            continue
        rows = slice(s + lo, s + hi)
        g = slice(dp_ + 1, dp_ + nv + 1)
        vd = vmin[unit_of_d, :nf].T                # (b, d)
        bpg = vbp[unit_of_d, :nf].T + bp_off[lo:hi]
        cur = best[rows, g]
        cur_bp = best_bp[rows, g]
        # strict improvement, or an equal value from a smaller b' (equal
        # (value, b') keeps the earlier -- smaller -- d'); a cell no
        # transition reached holds NO_PARENT, so INF never ties into it
        upd = (vd < cur) | ((vd == cur) & (bpg < cur_bp))
        if upd.any():
            best[rows, g] = np.where(upd, vd, cur)
            best_tf[rows, g] = np.where(
                upd, vtf[unit_of_d, :nf].T, best_tf[rows, g]
            )
            best_tb[rows, g] = np.where(
                upd, vtb[unit_of_d, :nf].T, best_tb[rows, g]
            )
            best_bp[rows, g] = np.where(upd, bpg, cur_bp)
            best_dp[rows, g] = np.where(upd, dp_, best_dp[rows, g])
    return cells


def form_stage_dp(
    run: DPRun,
    stage_counts: range,
    D: int,
    R: int,
    MB: int,
    *,
    bound: float = math.inf,
    tracer: Optional[Tracer] = None,
) -> Dict[int, Optional[DPSolution]]:
    """Algorithm 1: DP over stage boundaries and device allocations.

    Args:
        run: the run's use of the memo over the block list (its
            :class:`DPContext` carries the global batch size); a sweep
            adds its :class:`SweepRecord` to the run's.
        stage_counts: the contiguous ``range`` of stage counts to answer
            from one DP sweep (``range(S, S + 1)`` for one).
        D: number of devices available to one pipeline.
        R: replica factor (whole-pipeline copies).
        MB: number of microbatches.
        bound: the largest objective an answer may have (``inf``: no
            bound).  Answers over it are ``None``, and so is every table
            cell over it, so the sweep never backtracks, prices or
            returns one; every answer at or below it is exactly the
            unbounded sweep's (DESIGN.md D2c).
        tracer: optional :class:`~repro.obs.tracer.Tracer`; when given,
            the whole call is wrapped in a ``dp.form_stage_dp`` span
            carrying the sweep's record (docs/OBSERVABILITY.md names
            its attributes).

    Returns:
        ``{S: solution or None}`` over ``stage_counts``: the best
        :class:`DPSolution` per stage count, or ``None`` (INFEASIBLE).

    **One sweep, every stage count.**  The table ``V[s, b, d]`` does not
    depend on the target stage count: ``S`` only bounds which cells can
    still reach ``(S, |B|, D)`` (``b <= |B| - (S - s)`` and ``d <= D -
    (S - s)``, since every later stage needs a block and a device), and
    every cell reads only cells with smaller ``b`` and ``d``.  So one
    table filled up to the largest ``S`` of a range, each stage ``s``
    over the bounds of the smallest ``S >= s`` in it, holds ``V[S, |B|,
    D]`` for every ``S`` at once: an Algorithm-2 node level costs one
    call per ``(D, R, MB)`` instead of one per ``(S, MB)``.  ``S = 1``
    needs no table: a lone stage has one layout, blocks ``(0, |B|]`` on
    all ``D`` devices, run without activation checkpointing, so
    :meth:`DPRun.price_layout` prices it as it stands (one state)
    and the table starts at ``S = 2``.  One call is one sweep record,
    whatever the range, and its state count is the number of table
    cells inside the sweep's bounds (plus one for ``S = 1``), also when
    a sweep the context stored answers it (DESIGN.md D2d).  A range
    with no stage count a sweep can fill records nothing.

    The transition for every ``(b, d)`` cell of one stage is evaluated
    as a tensor reduction over the banded profiles: the loop runs over
    the few feasible ``d'`` columns, and each column reduces the
    ``(b, b')`` slabs of all its replica planes in one pass, ``b'`` only
    over ``[b - w, b - 1]`` with ``w`` the widest span that fits in
    memory (see :func:`_band_stage`; wider stages are INF on every plane
    and never win), and only on the rows that can reach an answer
    (DESIGN.md D1d); a running lexicographic ``(value, b', d')`` minimum
    reproduces the per-cell flat argmin tie-break exactly.  On a
    heterogeneous cluster each replica count's slab is scaled by
    ``SLOW[d', d]`` and checked against ``MINMEM[d', d]`` (see
    :meth:`DPRun.hetero_tables`).  The paper's ``d_min`` rule is
    not applied: it only spares a per-cell loop the cells left of a
    memory dead end, which DESIGN.md D1b argues no answer passes
    through, and the equivalence tests hold every answer to the pruned
    loop of the test suite's reference.
    """
    if stage_counts.step != 1:
        raise ValueError("stage counts must be a contiguous range")
    with ExitStack() as stack:
        sp: Optional[Span] = None
        if tracer is not None and tracer.enabled:
            sp = stack.enter_context(
                tracer.span(
                    "dp.form_stage_dp",
                    category="partitioner.dp",
                    S=stage_counts[-1] if stage_counts else None,
                    S_min=stage_counts[0] if stage_counts else None,
                    D=D, R=R, MB=MB,
                    bound=bound if math.isfinite(bound) else None,
                )
            )
        return _form_stage_dp_body(run, stage_counts, D, R, MB, bound, sp)


def _form_stage_dp_body(
    run: DPRun,
    stage_counts: range,
    D: int,
    R: int,
    MB: int,
    bound: float,
    sp: Optional[Span],
) -> Dict[int, Optional[DPSolution]]:
    results: Dict[int, Optional[DPSolution]] = dict.fromkeys(
        stage_counts, INFEASIBLE
    )
    # a stage needs at least one block and one device
    lo = max(stage_counts.start, 1)
    k = run.memo.k
    hi = min(stage_counts.stop - 1, k, D)
    if lo > hi:
        if sp is not None:
            sp.set(feasible=False, reason="stage count out of range")
        return results
    # on a heterogeneous cluster the memory cap and stage speed depend on
    # WHICH cumulative-device slots [d', d) a stage lands on
    slots = run.hetero_tables(D, R) if run.cluster.is_heterogeneous else None
    states = cells = width = bounded = 0
    outcome = "filled"
    if lo == 1:
        # a lone stage has one layout, blocks (0, k] on all D devices:
        # one state, priced without checkpointing
        results[1], _ = run.price_layout([k], [D], R, MB, slots)
        if results[1] is not None and results[1].objective > bound:
            results[1] = INFEASIBLE
            bounded = 1
        states = 1
        lo = 2
    if lo <= hi:
        t_states, cells, width, t_bounded, outcome = _sweep_table(
            run, lo, hi, D, R, MB, slots, bound, results
        )
        states += t_states
        bounded += t_bounded
    feasible = [s for s, sol in results.items() if sol is not None]
    run.sweeps.append(SweepRecord(
        D, R, MB, stage_counts, bound if math.isfinite(bound) else None,
        outcome, states, cells, width, bounded, tuple(feasible),
    ))
    if sp is not None:
        sp.set(
            states_evaluated=states,
            cells_reduced=cells,
            band_width=width,
            answers_bounded=bounded,
            reused=outcome == "reused",
            skipped=outcome == "skipped",
            feasible=bool(feasible),
            feasible_stages=feasible,
        )
    return results


def _sweep_table(
    run: DPRun,
    s_lo: int,
    s_hi: int,
    D: int,
    R: int,
    MB: int,
    slots: Optional[Tuple[np.ndarray, np.ndarray]],
    bound: float,
    results: Dict[int, Optional[DPSolution]],
) -> Tuple[int, int, int, int, str]:
    """Fill one Algorithm-1 table up to ``s_hi`` stages (``s_lo >= 2``),
    store the solution of every ``S`` in ``[s_lo, s_hi]`` into
    ``results`` and return the state count (the table cells inside the
    sweep's bounds), the candidate cells float-reduced, the slab width,
    the answer cells found above ``bound`` and how the sweep was
    answered: ``"filled"`` (its table), ``"reused"`` (a stored sweep) or
    ``"skipped"`` (no layout fits).  ``slots``: see
    :meth:`DPRun.price_layout`.

    Each stage float-reduces only the rows that can still reach block
    ``k`` in the ``s_hi - s`` stages left, each at most the slab width
    wide (:func:`_band_stage`), and every finite cell is written, so
    ``V[S, k, D]`` holds exactly the answers, each priced from its
    backtracked layout (:meth:`DPRun.price_layout`).

    A finite ``bound`` treats every value over it as infeasible
    (DESIGN.md D2c): a candidate is at least its stage's ``TF + TB``
    and at least its previous cell, so on a homogeneous cluster the
    band entries over it are poisoned like those over the memory cap
    (narrowing the slab), and after each stage every cell over it is
    cleared.  Every cell at or below it keeps its value and parent.

    On a homogeneous cluster the sweep reads the cap only through the
    mask ``over`` of band entries over it, so a stored sweep of the same
    key whose mask agrees on the entries at or below ``bound``, at a
    bound no lower, answers it: its answers at or below ``bound``, with
    the state count of the table and no cell reduced (DESIGN.md D2d).
    The answers it drops count as found above the bound.  On a miss, a
    sweep in which no layout of the entries off ``over`` can cover the
    blocks on ``D`` devices (:func:`_has_layout`) has no answer: it fills
    no table, and is stored with none (DESIGN.md D2e).
    """
    k = run.memo.k
    # every stage that can still reach (S, k, D) for some S >= s_lo spans
    # at most k - s_lo + 1 blocks (nb never grows along the sweep)
    nb_max = k - s_lo + 1
    bands = run.profile_bands(D, R, MB, nb_max)
    # likewise a stage spans at most D - s_lo + 1 devices: the planes of
    # larger replica counts (a suffix, as bs falls with r) are never read
    n_planes = int(bands.plane_of_r[1:D - s_lo + 2].max(initial=-1)) + 1
    cap = _sweep_cap(run, slots)
    over = bands.mem[:n_planes] > cap
    has_bound = math.isfinite(bound)
    states = _table_states(k, D, s_lo, s_hi)
    if slots is None:
        # the sweep reads the cap only through ``over`` (DESIGN.md D2d)
        memo_key = sweep_key(D, R, s_lo, s_hi, MB, over.shape)
        mask = np.packbits(over)
        fits = None
        if has_bound:
            # every candidate through a stage over the bound is over it
            # too (on a heterogeneous cluster the times scale per slot,
            # so only the cells are cleared)
            above = bands.tf[:n_planes] + bands.tb[:n_planes] > bound
            fits = np.packbits(~above)
            over |= above
    # every stage wider than the band is over the cap too: the band was
    # sized for a capacity of at least ``cap``
    width = _slab_width(over, nb_max)
    if slots is None:
        stored = run.memo.recall_sweep(memo_key, bound, mask, fits)
        if stored is not None:
            dropped = 0
            for S, sol in stored.answers.items():
                if sol.objective <= bound:
                    results[S] = sol
                else:
                    dropped += 1
            return states, 0, width, dropped, "reused"
        # no layout fits the entries off ``over``: the table would end
        # with no answer (DESIGN.md D2e)
        if not _has_layout(over[:, :, :width], bands.plane_of_r, D,
                           s_lo, s_hi):
            run.memo.store_sweep(memo_key, bound, mask, {})
            return states, 0, width, 0, "skipped"
    tbv = bands.tb[:n_planes, :, :width]
    memv = bands.mem[:n_planes, :, :width]
    tfp = bands.tf[:n_planes, :, :width]
    if slots is None:
        tfp = np.where(over[:, :, :width], np.inf, tfp)
    # (on a heterogeneous cluster the cap applies per (d', d) column)

    shape = (s_hi + 1, k + 1, D + 1)
    V = np.full(shape, np.inf)
    tf = np.zeros(shape)
    tb = np.zeros(shape)
    parent_b = np.full(shape, NO_PARENT, dtype=np.int64)
    parent_d = np.full(shape, -1, dtype=np.int64)
    # deviation from the pseudocode's blanket V[0, b, d] = 0 (see module
    # docstring): only the empty prefix is a valid 0-stage state.
    V[0, 0, 0] = 0.0

    cells = answers_bounded = 0
    for s in range(1, s_hi + 1):
        # the bounds :func:`_table_states` counts
        slack = max(s_lo - s, 0)
        b_hi = k - slack
        d_hi = D - slack
        # no stage is wider than the slab, so a row below b_back cannot
        # reach block k in the s_hi - s stages left
        cells += _band_stage(
            tfp, tbv, memv, bands.plane_of_r, slots,
            np.isfinite(V[s - 1]), tf[s - 1], tb[s - 1], s, b_hi, d_hi,
            k - (s_hi - s) * width,
            V[s], tf[s], tb[s], parent_b[s], parent_d[s],
        )
        if has_bound:
            above = V[s] > bound
            if s >= s_lo and above[k, D] and V[s, k, D] < np.inf:
                answers_bounded += 1
            V[s][above] = np.inf

    for S in range(s_lo, s_hi + 1):
        if V[S, k, D] == np.inf:
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
        results[S], failure = run.price_layout(
            boundaries, device_counts, R, MB, slots
        )
        assert failure is None, "the DP kept a layout that does not fit"
    if slots is None:
        run.memo.store_sweep(memo_key, bound, mask, {
            S: results[S] for S in range(s_lo, s_hi + 1)
            if results[S] is not None
        })
    return states, cells, width, answers_bounded, "filled"


def _table_states(k: int, D: int, s_lo: int, s_hi: int) -> int:
    """The table cells inside a sweep's bounds: stage ``s`` fills ``b =
    s .. k - slack`` and ``d = s .. D - slack``, the bounds of the
    smallest stage count ``S >= s`` of the sweep, whose ``slack = S - s``
    later stages each need a block and a device."""
    return sum(
        (k - max(s_lo - s, 0) - s + 1) * (D - max(s_lo - s, 0) - s + 1)
        for s in range(1, s_hi + 1)
    )


def _sweep_cap(
    run: DPRun, slots: Optional[Tuple[np.ndarray, np.ndarray]]
) -> float:
    """The memory cap a sweep's bands are held to: :attr:`DPRun.
    usable_memory`, or on a heterogeneous cluster the largest per-slot
    cap (budget included), which bounds every slot's."""
    if slots is None:
        return run.usable_memory
    return float(slots[0][np.isfinite(slots[0])].max())


def covering_sweeps(
    run: DPRun,
    stage_counts: range,
    D: int,
    R: int,
    microbatch_counts: Sequence[int],
) -> List[int]:
    """The microbatch counts ``MB`` whose sweep ``form_stage_dp(run,
    stage_counts, D, R, MB)`` can have an answer, in order; the
    sweep of any other has none (DESIGN.md D2b).

    A feasible stage on ``r`` replicas spans at most ``fit(r)`` blocks,
    the :meth:`DPContext._fit_width` of its per-replica microbatch
    (:meth:`DPContext.replica_microbatch`) under the sweep's cap
    (:func:`_sweep_cap`),
    and an answer with ``S`` stages gives them spans summing to ``k`` on
    replica counts summing to ``D``.  So unless some split of ``D``
    devices into ``S`` stages, ``S`` in range, has ``sum fit(r_i) >=
    k``, the sweep has no answer (:func:`_can_cover` decides each
    sweep on its fits).
    """
    ctx = run.memo
    k = ctx.k
    s_lo = max(stage_counts.start, 1)
    s_hi = min(stage_counts.stop - 1, k, D)
    if s_lo > s_hi:
        return []
    slots = run.hetero_tables(D, R) if run.cluster.is_heterogeneous else None
    cap = _sweep_cap(run, slots)

    def fits(MB: int) -> List[int]:
        # a stage of an S >= s_lo layout spans at most D - s_lo + 1
        # devices, and one of more than the one-replica microbatch
        # gets no sample
        top = min(D - s_lo + 1, ctx.replica_microbatch(R, MB, 1))
        return [
            min(ctx._fit_width(ctx.replica_microbatch(R, MB, r), cap), k)
            for r in range(1, top + 1)
        ]

    return [
        MB for MB in microbatch_counts
        if _can_cover(fits(MB), k, D, s_lo, s_hi)
    ]


def _can_cover(fits: List[int], k: int, D: int, s_lo: int, s_hi: int) -> bool:
    """Whether some split of ``D`` devices into ``S`` stages, ``s_lo <= S
    <= s_hi``, with ``fits[r - 1]`` blocks at most on a stage of ``r``
    devices (``r <= len(fits)``, no stage on ``0``-fit replicas), covers
    ``k`` blocks.

    ``fits`` does not fall with ``r`` (a smaller per-replica microbatch
    has a smaller floor), so the last fit on every stage rejects, and an
    even split accepts, before a max-plus DP over (stages, devices)
    decides the rest."""
    r_top = len(fits)
    if s_hi * r_top < D or s_hi * fits[-1] < k:
        return False
    for S in (max(s_lo, -(-D // r_top)), s_hi):
        # S stages split as evenly as they can be: rem of them on q + 1
        # devices (q + 1 <= r_top when rem > 0, as S * r_top >= D)
        q, rem = divmod(D, S)
        if fits[q - 1] >= 1 and (S - rem) * fits[q - 1] + (
            rem and rem * fits[q]
        ) >= k:
            return True
    # cover[d]: the most blocks s stages on d devices can cover (-inf:
    # none can)
    gain = np.array([f or -np.inf for f in fits])
    src = np.arange(D + 1)[:, None] - np.arange(1, r_top + 1)[None, :]
    gain = np.where(src >= 0, gain[None, :], -np.inf)
    src = np.maximum(src, 0)
    cover = np.full(D + 1, -np.inf)
    cover[0] = 0.0
    for s in range(1, s_hi + 1):
        cover = (cover[src] + gain).max(axis=1)
        if s >= s_lo and cover[D] >= k:
            return True
    return False


def _has_layout(
    over: np.ndarray,
    plane_of_r: np.ndarray,
    D: int,
    s_lo: int,
    s_hi: int,
) -> bool:
    """Whether some layout of ``S`` stages, ``s_lo <= S <= s_hi``, on
    ``D`` devices uses only band entries off ``over`` (a homogeneous
    sweep's ``(P, k+1, w)`` mask of entries over its cap or bound): a
    sweep without one has no answer (DESIGN.md D2e).

    A stage of such a layout sits on ``r <= r_top`` replicas, the most
    of at most ``D - s_lo + 1`` that still get a plane, and at least
    ``r_min``, the fewest whose plane holds its entry off ``over``.  So
    unless some ``S`` in range has ``md_S[k] <= D <= S * r_top``, with
    ``md_S[b]`` the fewest devices ``S`` such stages covering blocks
    ``(0, b]`` take, no split of ``D`` devices fits.  Each stage of the
    min-plus recursion is one gather, one add and one min."""
    P, n, w = over.shape
    r_top = int((plane_of_r[1:D - s_lo + 2] >= 0).sum())
    if s_hi * r_top < D:
        return False
    # planes come in ``r`` order, so a plane's fewest replicas is where
    # it first appears
    first_r = np.searchsorted(plane_of_r[1:r_top + 1], np.arange(P)) + 1
    off = ~over
    r_min = np.where(
        off.any(axis=0), first_r[off.argmax(axis=0)], np.inf
    )
    # entry [b, j] holds blocks (b - 1 - j, b]; those reaching below
    # block 0 are over on every plane
    src = np.maximum(np.arange(n)[:, None] - 1 - np.arange(w)[None, :], 0)
    md = np.full(n, np.inf)
    md[0] = 0.0
    for S in range(1, s_hi + 1):
        md = (md[src] + r_min).min(axis=1)
        if S >= s_lo and md[-1] <= D <= S * r_top:
            return True
    return False

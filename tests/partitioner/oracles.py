"""Test oracles for Algorithm 1 and its stage-cost kernel.

Straightforward per-entry transcriptions that the vectorized code in
:mod:`repro.partitioner.stage_dp` is held to, bit for bit:

* :func:`time_prefix_reference` sums each block's task times with one
  1-D sum per block, the oracle for the batched time prefixes;
* :func:`range_meta_reference` recomputes a block range's unique
  parameters and boundary bytes from the profiler, the oracle for the
  difference-array range matrices;
* :func:`stage_profile_reference` prices one stage with Python floats
  and the run's ``ClusterSpec.p2p_time``, independently of the
  ``_range_costs`` kernel, and :func:`profile_tensors_reference` lays it
  out over every ``(lo, hi, r)``;
* :func:`memory_floor_reference` lays the memory floor of every
  ``(lo, hi]`` out as one dense plane, and :func:`fit_width_reference`
  reads the widest fitting span off it, the oracle for the cached,
  band-restricted ``DPContext._fit_width``;
* :func:`reference_form_stage_dp` is Algorithm 1 as pure-Python loops,
  with the paper's ``d_min`` rule (:func:`reference_dp_visits` also
  counts the cells the loop visits).

The oracles that price a stage against a cluster or a memory cap take a
:class:`DPRun` (the run's cluster and budget over its memo); the others
read the memo, a :class:`DPContext`, alone.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.partitioner.stage_dp import (
    INFEASIBLE,
    DPContext,
    DPRun,
    DPSolution,
    StageProfile,
    scale_stage_profile,
)


def time_prefix_reference(
    ctx: DPContext, bs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block recomputation of ``DPContext._time_prefix_at``: prefix
    sums over blocks of the per-block ``(t_f, t_b)`` at batch ``bs``."""
    tf_all, tb_all = ctx.profiler._times_at(bs)
    tf = np.array([float(tf_all[idx].sum()) for idx in ctx._block_idx])
    tb = np.array([float(tb_all[idx].sum()) for idx in ctx._block_idx])
    return (
        np.concatenate([[0.0], np.cumsum(tf)]),
        np.concatenate([[0.0], np.cumsum(tb)]),
    )


def range_meta(ctx: DPContext, lo: int, hi: int) -> Tuple[int, float, float]:
    """(unique params, in_bytes@bs1, out_bytes@bs1) of blocks (lo, hi],
    read off the context's range matrices."""
    IN1, OUT1, PARAMS = ctx._range_matrices()
    return int(PARAMS[lo, hi]), float(IN1[lo, hi]), float(OUT1[lo, hi])


def range_meta_reference(
    ctx: DPContext, lo: int, hi: int
) -> Tuple[int, float, float]:
    """Per-range recomputation of :func:`range_meta` from the profiler."""
    tasks: List[str] = []
    for j in range(lo, hi):
        tasks.extend(ctx.blocks[j].tasks)
    idx = np.concatenate([ctx._block_idx[j] for j in range(lo, hi)])
    params = ctx.profiler.unique_param_count(idx)
    in_bytes, out_bytes = ctx.profiler.boundary_bytes(tasks, 1)
    return (params, in_bytes, out_bytes)


def stage_profile_reference(
    run: DPRun,
    lo: int,
    hi: int,
    replicas: int,
    R: int,
    MB: int,
    checkpointing: bool,
) -> Optional[StageProfile]:
    """Scalar transcription of ``DPContext.stage_profile``: blocks
    ``(lo, hi]`` on ``replicas`` devices, ``None`` if the per-replica
    microbatch collapses below one sample."""
    ctx = run.memo
    bs = ctx.batch_size // (R * MB * replicas)
    if bs < 1:
        return None
    tf_prefix, tb_prefix = ctx._time_prefix_at(bs)
    t_f = float(tf_prefix[hi] - tf_prefix[lo])
    t_b = float(tb_prefix[hi] - tb_prefix[lo])
    inference = ctx.profiler.mode == "inference"
    if checkpointing and not inference:
        t_b += t_f
    params, in1, out1 = range_meta(ctx, lo, hi)
    in_bytes = in1 * bs
    out_bytes = out1 * bs
    t_f += run.cluster.p2p_time(out_bytes) if out_bytes else 0.0
    if not inference:
        t_b += run.cluster.p2p_time(in_bytes) if in_bytes else 0.0
    act_factor = ctx.profiler.precision.activation_bytes_factor
    saved = float(
        ctx._saved_prefix[hi] - ctx._saved_prefix[lo]
    ) * bs * act_factor
    kv = float(ctx._kv_prefix[hi] - ctx._kv_prefix[lo]) * bs * act_factor
    memory = ctx.profiler.memory_model.total_bytes(
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


def profile_tensors_reference(
    run: DPRun,
    D: int,
    R: int,
    MB: int,
    checkpointing: bool,
    stage_profile=stage_profile_reference,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense ``(k+1, k+1, D+1)`` t_f / t_b / memory tensors, one
    ``stage_profile(run, lo, hi, r, R, MB, checkpointing)`` call per
    ``(lo, hi, r)``; +inf where there is no stage."""
    k = run.memo.k
    TF = np.full((k + 1, k + 1, D + 1), np.inf)
    TB = np.full((k + 1, k + 1, D + 1), np.inf)
    MEM = np.full((k + 1, k + 1, D + 1), np.inf)
    for lo in range(k):
        for hi in range(lo + 1, k + 1):
            for r in range(1, D + 1):
                prof = stage_profile(run, lo, hi, r, R, MB, checkpointing)
                if prof is None:
                    continue
                TF[lo, hi, r] = prof.time_fwd
                TB[lo, hi, r] = prof.time_bwd
                MEM[lo, hi, r] = prof.memory
    return TF, TB, MEM


def summed_stage_profile_reference(
    run, lo, hi, replicas, R, MB, checkpointing
) -> Optional[StageProfile]:
    """Scalar transcription of the coarsening ablation's summed-atomic
    estimate (``SummedAtomicContext``): per-atom compute plus a transfer
    per atomic boundary, and summed per-atom static, activation and
    stash bytes."""
    ctx = run.memo
    bs = ctx.batch_size // (R * MB * replicas)
    if bs < 1:
        return None
    tf_prefix, tb_prefix = ctx._time_prefix_at(bs)
    t_f = float(tf_prefix[hi] - tf_prefix[lo])
    t_b = float(tb_prefix[hi] - tb_prefix[lo])
    if checkpointing:
        t_b += t_f
    in_bytes = float(ctx._in1_prefix[hi] - ctx._in1_prefix[lo]) * bs
    out_bytes = float(ctx._out1_prefix[hi] - ctx._out1_prefix[lo]) * bs
    n_atoms = hi - lo
    lat = run.cluster.comm_latency
    bw = run.cluster.intra_node_bandwidth
    t_f += n_atoms * lat + out_bytes / bw
    t_b += n_atoms * lat + in_bytes / bw
    act_factor = ctx.profiler.precision.activation_bytes_factor
    saved = float(
        ctx._saved_prefix[hi] - ctx._saved_prefix[lo]
    ) * bs * act_factor
    memory = float(
        ctx._static_prefix[hi] - ctx._static_prefix[lo]
    ) + saved + in_bytes
    return StageProfile(
        time_fwd=t_f,
        time_bwd=t_b,
        memory=memory,
        microbatch_size=bs,
        in_bytes=in_bytes,
        out_bytes=out_bytes,
        param_count=int(ctx._param_prefix[hi] - ctx._param_prefix[lo]),
    )


def memory_floor_reference(ctx: DPContext, bs: int) -> np.ndarray:
    """Dense ``(k+1, k+1)`` plane of the memory floor at per-replica
    microbatch ``bs``: at ``[lo, hi]``, ``static_bytes(PARAMS[lo, hi]) +
    saved(lo, hi) * bs * act_factor`` (meaningful for ``lo < hi``)."""
    _, _, PARAMS = ctx._range_matrices()
    static = ctx.profiler.memory_model.static_bytes(PARAMS)
    saved = ctx._saved_prefix[None, :] - ctx._saved_prefix[:, None]
    act_factor = ctx.profiler.precision.activation_bytes_factor
    return static + saved * bs * act_factor


def fit_width_reference(ctx: DPContext, bs: int, capacity: float) -> int:
    """Widest span ``hi - lo`` whose floor at ``bs`` fits ``capacity``,
    read off the whole dense floor plane (0: no single block fits)."""
    idx = np.arange(ctx.k + 1)
    spans = idx[None, :] - idx[:, None]
    floor = memory_floor_reference(ctx, bs)
    return int(np.where(floor <= capacity, spans, 0).max())


def reference_form_stage_dp(
    run: DPRun,
    S: int,
    D: int,
    BS: int,
    R: int,
    MB: int,
) -> Optional[DPSolution]:
    """Line-by-line transcription of Algorithm 1 with pure-Python loops.

    :func:`form_stage_dp` is held to it, field for field, on randomized
    small instances.  Stages are priced by the memo's ``stage_profile``,
    so a context subclass is searched under its own pricing, and capped
    by the run's ``usable_memory``.  On a heterogeneous cluster each
    stage at cumulative-device boundary ``(d', d)`` is capped by
    ``MINMEM[d', d]`` and its times are scaled by ``SLOW[d', d]`` (see
    ``DPRun.hetero_tables``), with no ``d_min`` pruning.
    """
    return reference_dp_visits(run, S, D, BS, R, MB)[0]


def reference_dp_visits(
    run: DPRun,
    S: int,
    D: int,
    BS: int,
    R: int,
    MB: int,
) -> Tuple[Optional[DPSolution], int]:
    """:func:`reference_form_stage_dp` and the number of ``(s, b, d)``
    cells its loop visits: after a memory dead end at column ``d``, the
    ``d_min`` rule skips the cells left of it in its row and those at or
    left of it in every later row of the stage."""
    ctx = run.memo
    if BS != ctx.batch_size:
        raise ValueError("batch size mismatch with DPContext")
    k = ctx.k
    if S < 1 or S > k or S > D:
        return INFEASIBLE, 0
    checkpointing = S > 1
    M = run.usable_memory
    hetero = run.cluster.is_heterogeneous
    if hetero:
        MINMEM, SLOW = run.hetero_tables(D, R)
    INF = float("inf")

    V = {(0, 0, 0): 0.0}
    tf: Dict[Tuple[int, int, int], float] = {(0, 0, 0): 0.0}
    tb: Dict[Tuple[int, int, int], float] = {(0, 0, 0): 0.0}
    parent: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
    visited = 0

    for s in range(1, S + 1):
        d_min = 1  # reset per stage (DESIGN.md D1b)
        for b in range(s, k - (S - s) + 1):
            for d in range(D - (S - s), max(d_min, s) - 1, -1):
                visited += 1
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
        return INFEASIBLE, visited

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
    ), visited

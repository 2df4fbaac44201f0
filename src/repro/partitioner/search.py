"""Algorithm 2 (``form_stage``): the outer search loop.

Iterates over the number of compute nodes ``n`` (doubling from 1, skipping
spans that do not divide the node count), derives the devices available to
one pipeline ``D = D_node x n`` and the pipeline replica factor ``R = N /
n``, then tries stage counts ``S`` in the range ``(D_node x (n-1), D_node
x n]`` and microbatch counts ``MB`` doubling from 1.  The first stage
count that yields any feasible DP solution wins; among its microbatch
variants the one with the best estimated iteration time is returned.

One Algorithm-1 sweep answers every stage count of a level at once
(``form_stage_dp`` over a ``range`` of stage counts), so a level costs
one DP call per microbatch count.  Those sweeps are independent problems
over a shared :class:`DPContext`, so they run on one thread pool of
``min(#sweeps, os.cpu_count())`` workers (serially when that is 1): the
context's caches and counters are lock-guarded and NumPy releases the
GIL inside the reductions.  The winner is selected from the results in
the serial sweep's candidate order, so the returned plan and all
statistics are identical to a sequential search.

Aligning ``D`` to whole nodes keeps each pipeline inside as few nodes as
possible, which is why stage-to-stage transfers are costed at intra-node
bandwidth (footnote 3 of the paper).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.partitioner.stage_dp import DPContext, DPSolution, form_stage_dp

#: one sweep's answers: ``{stage count: solution or None}``
Sweep = Dict[int, Optional[DPSolution]]


@dataclass
class SearchResult:
    """Outcome of Algorithm 2."""

    solution: DPSolution
    num_pipeline_nodes: int   # n: nodes spanned by one pipeline
    devices_per_pipeline: int  # D
    replica_factor: int        # R
    candidates_tried: int
    dp_calls: int
    #: the largest sweep pool a level ran on (1: every level serial);
    #: a diagnostic of the run that produced the result, not persisted
    sweep_workers: int = field(default=1, compare=False)

    @property
    def num_stages(self) -> int:
        return self.solution.num_stages


def _solve_level(
    ctx: DPContext,
    stage_counts: range,
    microbatch_counts: List[int],
    D: int,
    batch_size: int,
    R: int,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    parent_id: Optional[int] = None,
) -> Tuple[Dict[int, Sweep], int]:
    """One ``form_stage_dp`` sweep over ``stage_counts`` per microbatch
    count of a node level, keyed by microbatch count, plus the number of
    pool workers that ran them.

    The sweeps run on ``min(#sweeps, os.cpu_count())`` threads, or
    serially when that is 1.  When a tracer is given, every sweep
    carries its own ``dp.form_stage_dp`` span; ``parent_id`` links spans
    recorded on pool threads back to the node-level span of the
    coordinating thread.
    """
    workers = min(len(microbatch_counts), os.cpu_count() or 1)
    # ``form_stage_dp`` is looked up as a module global at call time, so
    # a wrapper installed on ``search.form_stage_dp`` sees every sweep
    kwargs = dict(tracer=tracer, metrics=metrics, parent_id=parent_id)
    if workers <= 1:
        return {
            MB: form_stage_dp(
                ctx, stage_counts, D, batch_size, R, MB, **kwargs
            )
            for MB in microbatch_counts
        }, 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            MB: pool.submit(
                form_stage_dp, ctx, stage_counts, D, batch_size, R, MB,
                **kwargs,
            )
            for MB in microbatch_counts
        }
        return {MB: fut.result() for MB, fut in futures.items()}, workers


def form_stage(
    ctx: DPContext,
    num_nodes: int,
    devices_per_node: int,
    batch_size: int,
    max_microbatches: Optional[int] = None,
    search_all_stage_counts: bool = True,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Optional[SearchResult]:
    """Algorithm 2: search over (n, S, MB) for the best feasible plan.

    Args:
        ctx: DP context over the block list (fixes the model + profiler).
        num_nodes: total compute nodes N.
        devices_per_node: devices per node (D_node).
        batch_size: global batch size BS.
        max_microbatches: optional cap on MB (None: up to BS / R).
        search_all_stage_counts: the pseudocode returns at the FIRST stage
            count with any feasible solution; with this flag (default) all
            stage counts of the current node level compete and the best
            estimated iteration time wins.  The strict reading can return
            a pipeline several stages shorter than optimal (see DESIGN.md,
            deviation D2); both modes are tested, and both cost the same
            one sweep per microbatch count.
        tracer: optional tracer; each node level gets a ``search.level``
            span and each sweep a ``dp.form_stage_dp`` span (parented to
            the level span even across pool threads).
        metrics: optional metrics registry, forwarded to every DP call.

    Returns:
        A :class:`SearchResult`, or ``None`` if no configuration fits.
        Its ``dp_calls`` counts the sweeps made (one per node level and
        microbatch count), ``candidates_tried`` the feasible ``(S, MB)``
        candidates that competed and ``sweep_workers`` the largest
        sweep pool a level ran on.
    """
    if batch_size != ctx.batch_size:
        raise ValueError("batch size mismatch with DPContext")
    if tracer is not None and not tracer.enabled:
        tracer = None
    hetero = ctx.cluster.is_heterogeneous
    if hetero:
        # heterogeneous levels: ``n`` counts a PREFIX of nodes in class
        # declaration order, so ``D`` is that prefix's device total (the
        # per-node counts may differ across classes).  Divisibility is
        # not required -- replicas beyond ``total // D`` stay idle and
        # the DP's position-aware tables price the slots each band
        # actually lands on -- so the doubling sweep always ends on the
        # full-cluster level.
        offsets = ctx.cluster.node_first_ranks()
        total_devices = ctx.cluster.total_devices
        levels: List[int] = []
        lvl = 1
        while lvl < num_nodes:
            levels.append(lvl)
            lvl *= 2
        levels.append(num_nodes)
    else:
        # a span that does not divide the node count (e.g. n=2 on 3
        # nodes) has no integral replica factor; skip the level and
        # keep doubling rather than aborting the search
        levels = []
        lvl = 1
        while lvl <= num_nodes:
            if num_nodes % lvl == 0:
                levels.append(lvl)
            lvl *= 2
    dp_calls = 0
    tried = 0
    workers_used = 1
    for n in levels:
        if hetero:
            D = offsets[n]
            R = total_devices // D
            s_lo = offsets[n - 1] + 1
            s_hi = offsets[n]
        else:
            D = devices_per_node * n
            R = num_nodes // n
            s_lo = devices_per_node * (n - 1) + 1
            s_hi = devices_per_node * n
        mb_cap = batch_size // R
        if max_microbatches is not None:
            mb_cap = min(mb_cap, max_microbatches)
        microbatch_counts: List[int] = []
        MB = 1
        while MB <= mb_cap:
            microbatch_counts.append(MB)
            MB *= 2

        level_cm = (
            tracer.span(
                "search.level", category="partitioner.search",
                n=n, D=D, R=R,
            )
            if tracer is not None
            else nullcontext(None)
        )
        with level_cm as level_span:
            level_id = level_span.span_id if level_span is not None else None
            stage_counts = range(s_lo, s_hi + 1)
            sweeps, workers = _solve_level(
                ctx, stage_counts, microbatch_counts, D, batch_size, R,
                tracer=tracer, metrics=metrics, parent_id=level_id,
            )
            workers_used = max(workers_used, workers)
            dp_calls += len(microbatch_counts)
            if not search_all_stage_counts:
                # strict pseudocode: only the FIRST feasible stage count
                # competes
                for S in stage_counts:
                    if any(
                        sweeps[MB][S] is not None for MB in microbatch_counts
                    ):
                        stage_counts = range(S, S + 1)
                        break
            # candidate order (S outer, MB inner) fixes the tie-break
            solutions = [
                sweeps[MB][S]
                for S in stage_counts
                for MB in microbatch_counts
                if sweeps[MB][S] is not None
            ]
            tried += len(solutions)
            if level_span is not None:
                level_span.set(feasible_candidates=len(solutions))
            if solutions:
                best = min(
                    solutions, key=lambda s: s.estimated_iteration_time()
                )
                if level_span is not None:
                    level_span.set(
                        winner_stages=best.num_stages,
                        winner_microbatches=best.num_microbatches,
                    )
                return SearchResult(
                    solution=best,
                    num_pipeline_nodes=n,
                    devices_per_pipeline=D,
                    replica_factor=R,
                    candidates_tried=tried,
                    dp_calls=dp_calls,
                    sweep_workers=workers_used,
                )
    return None

"""Algorithm 2 (``form_stage``): the outer search loop.

Iterates over the number of compute nodes ``n`` (doubling from 1, skipping
spans that do not divide the node count), derives the devices available to
one pipeline ``D = D_node x n`` and the pipeline replica factor ``R = N /
n``, then tries stage counts ``S`` in the range ``(D_node x (n-1), D_node
x n]`` and microbatch counts ``MB`` doubling from 1.  The first node
level that yields any feasible DP solution wins; among its ``(S, MB)``
candidates the one with the best estimated iteration time is returned
(the pseudocode stops at the first feasible stage count instead; see
DESIGN.md, deviation D2).

One Algorithm-1 sweep answers every stage count of a level at once
(``form_stage_dp`` over a ``range`` of stage counts), so a level costs
at most one DP call per microbatch count, made in increasing ``MB``
order through the run's :class:`DPRun` over a shared
:class:`DPContext`.  A sweep whose stages cannot cover the blocks in
memory has no answer and is skipped before any of its profiles are
built (``covering_sweeps``, DESIGN.md deviation D2b).  Each sweep's
answers are ranked as soon as it finishes, and the best flush makespan
so far bounds the sweeps after it: an answer whose objective is over
``sweep_bound`` cannot beat or tie that makespan, so the sweep drops
it and every table cell that could only lead to it (DESIGN.md
deviation D2c).  On a homogeneous cluster a sweep the shared context
stored for an earlier run answers a later one whose memory budget
masks the same band entries below the bound (DESIGN.md deviation D2d),
a sweep in which no layout fits fills no table (D2e), and the best
stored answer of a level that still fits bounds the level from its
first sweep (D2f).  Every count of the search is a total over the
records the run keeps of its levels and sweeps (:meth:`DPRun.totals`).

Aligning ``D`` to whole nodes keeps each pipeline inside as few nodes as
possible, which is why stage-to-stage transfers are costed at intra-node
bandwidth (footnote 3 of the paper).
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.tracer import Tracer
from repro.partitioner.stage_dp import (
    DPRun,
    DPSolution,
    LevelRecord,
    covering_sweeps,
    form_stage_dp,
    sweep_totals,
)

#: relative slack of :func:`sweep_bound`: it covers the rounding of the
#: bound and of the flush simulation the incumbent came from (DESIGN.md
#: deviation D2c)
BOUND_SLACK = 1e-9
#: the slack covers simulations of up to this many stages plus
#: microbatches; a longer sweep runs unbounded
BOUND_MAX_STEPS = 10**6


def sweep_bound(incumbent: float, num_stages: int, MB: int) -> float:
    """The largest Algorithm-1 objective an answer of a sweep at ``MB``
    microbatches and at most ``num_stages`` stages may have and still
    beat or tie the flush makespan ``incumbent`` (``inf``: no bound).

    A flush makespan is at least ``MB`` times the objective ``max t_f +
    max t_b``, so an answer over ``incumbent / MB`` is strictly slower
    than the incumbent; the slack keeps that true in floats (DESIGN.md
    deviation D2c)."""
    if num_stages + MB > BOUND_MAX_STEPS:
        return math.inf
    return incumbent / MB * (1 + BOUND_SLACK)


@dataclass
class SearchResult:
    """Outcome of Algorithm 2."""

    solution: DPSolution
    num_pipeline_nodes: int   # n: nodes spanned by one pipeline
    devices_per_pipeline: int  # D
    replica_factor: int        # R
    #: the search's totals (:meth:`DPRun.totals`); three read as attributes
    totals: Dict[str, int]
    candidates_tried = property(lambda self: self.totals["candidates_tried"])
    dp_calls = property(lambda self: self.totals["dp_calls"])
    states_evaluated = property(lambda self: self.totals["states_evaluated"])

    @property
    def num_stages(self) -> int:
        return self.solution.num_stages


def microbatch_cap(
    batch_size: int, R: int, max_microbatches: Optional[int]
) -> int:
    """The most microbatches a pipeline replicated ``R`` times may take:
    ``BS // R`` (a sample each), capped by ``max_microbatches``
    (``None``: no cap)."""
    mb_cap = batch_size // R
    if max_microbatches is not None:
        mb_cap = min(mb_cap, max_microbatches)
    return mb_cap


def microbatch_candidates(mb_cap: int) -> List[int]:
    """Algorithm 2's microbatch counts: the powers of two up to
    ``mb_cap`` (a :func:`microbatch_cap`)."""
    return [2**i for i in range(mb_cap.bit_length())]


def form_stage(
    run: DPRun,
    max_microbatches: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Optional[SearchResult]:
    """Algorithm 2: search over (n, S, MB) for the best feasible plan.

    Args:
        run: the run's use of the DP context over the block list (the
            context fixes the model, profiler and global batch size BS,
            the run the cluster and memory budget the sweeps apply).
            Each level's ``D``, ``R`` and stage-count range come from
            the cluster's per-node rank offsets (``D = D_node x n`` and
            ``R = N / n`` on a homogeneous cluster of ``N`` nodes).
            The search adds a :class:`LevelRecord` per node level to the
            run, and each sweep its :class:`SweepRecord`.
        max_microbatches: optional cap on MB (None: up to BS / R).
        tracer: optional tracer; each node level gets a ``search.level``
            span carrying its record, each sweep's bound and the
            :func:`sweep_totals` of its sweeps, and each sweep made a
            ``dp.form_stage_dp`` span under it (docs/OBSERVABILITY.md
            names their attributes).

    Returns:
        A :class:`SearchResult` carrying the run's totals, or ``None``
        if no configuration fits: ``dp_calls`` counts the sweeps made
        (twice for a level that reran unseeded) and ``candidates_tried``
        the answers the sweep bounds kept.
    """
    ctx = run.memo
    if tracer is not None and not tracer.enabled:
        tracer = None
    cluster = run.cluster
    num_nodes = cluster.num_nodes
    # level ``n`` spans the first ``n`` nodes: ``D`` is their device
    # total, and its stage counts are those too many for the first
    # ``n - 1`` nodes' devices
    offsets = cluster.node_first_ranks()
    levels: List[int] = []
    lvl = 1
    if cluster.is_heterogeneous:
        # heterogeneous levels need not divide the node count (the
        # per-node counts may differ across classes): replicas beyond
        # ``total // D`` stay idle and the DP's position-aware tables
        # price the slots each band actually lands on -- so the doubling
        # sweep always ends on the full-cluster level
        while lvl < num_nodes:
            levels.append(lvl)
            lvl *= 2
        levels.append(num_nodes)
    else:
        # a span that does not divide the node count (e.g. n=2 on 3
        # nodes) has no integral replica factor; skip the level and
        # keep doubling rather than aborting the search
        while lvl <= num_nodes:
            if num_nodes % lvl == 0:
                levels.append(lvl)
            lvl *= 2
    for n in levels:
        D = offsets[n]
        R = cluster.total_devices // D
        s_lo = offsets[n - 1] + 1
        s_hi = D
        microbatch_counts = microbatch_candidates(
            microbatch_cap(ctx.batch_size, R, max_microbatches)
        )

        level_cm = (
            tracer.span(
                "search.level", category="partitioner.search",
                n=n, D=D, R=R,
            )
            if tracer is not None
            else nullcontext(None)
        )
        with level_cm as level_span:
            stage_counts = range(s_lo, s_hi + 1)
            # a sweep whose stages cannot cover the blocks in memory has
            # no answer (DESIGN.md, deviation D2b): skip it whole
            swept = covering_sweeps(
                run, stage_counts, D, R, microbatch_counts
            )
            pruned = [MB for MB in microbatch_counts if MB not in swept]
            # every sweep below builds a band over its batch sizes:
            # price them all in one pass over the blocks
            ctx.fill_time_prefixes(
                bs for MB in swept
                for bs in ctx.plane_batch_sizes(D, R, MB)[0]
            )
            first_sweep = len(run.sweeps)
            # a layout the memo stored for this level that still fits
            # bounds the level from its first sweep (DESIGN.md, deviation
            # D2f)
            seed = stored = run.stored_incumbent(stage_counts, D, R, swept)
            fallback = False
            rank_ms = 0.0
            while True:
                # each sweep is ranked as soon as it finishes: the best
                # flush makespan so far bounds the sweeps after it
                # (DESIGN.md, deviation D2c)
                incumbent = math.inf
                ranked = {}
                for MB in swept:
                    bound = sweep_bound(min(incumbent, stored), s_hi, MB)
                    # ``form_stage_dp`` and ``sweep_bound`` are looked up
                    # as module globals at call time, so a wrapper
                    # installed on ``search`` sees every sweep
                    answers = form_stage_dp(
                        run, stage_counts, D, R, MB,
                        bound=bound, tracer=tracer,
                    )
                    # ranking simulates each answer's flush schedule: the
                    # search's cost outside the DP sweeps
                    rank_started = time.perf_counter()
                    for S, sol in answers.items():
                        if sol is not None:
                            ranked[S, MB] = sol
                            incumbent = min(
                                incumbent, sol.estimated_iteration_time()
                            )
                    rank_ms += (time.perf_counter() - rank_started) * 1e3
                # an answer the seed removed is strictly slower than it,
                # so it cannot beat or tie a best at or below the seed;
                # otherwise (nothing ranked included) the level reruns
                # unseeded
                if incumbent <= stored:
                    break
                stored = math.inf
                fallback = True
            seeded = seed < math.inf
            # every stage count of the level competes, not only the first
            # feasible one (DESIGN.md, deviation D2); candidate order (S
            # outer, MB inner) fixes the tie-break, and an answer the
            # bound removed is strictly slower than one ranked
            solutions = [
                ranked[S, MB]
                for S in stage_counts
                for MB in swept
                if (S, MB) in ranked
            ]
            run.levels.append(LevelRecord(
                tuple(pruned), seeded, fallback, len(solutions)
            ))
            if level_span is not None:
                sweeps = run.sweeps[first_sweep:]
                level_span.set(
                    pruned_mb=pruned,
                    candidates=len(solutions),
                    bounds=[s.bound for s in sweeps],
                    **sweep_totals(sweeps),
                    stored_incumbent=seed if seeded else None,
                    seed_fallback=fallback,
                )
            if solutions:
                best = min(
                    solutions, key=lambda s: s.estimated_iteration_time()
                )
                if level_span is not None:
                    level_span.set(
                        incumbent=incumbent,
                        rank_ms=rank_ms,
                        winner_stages=best.num_stages,
                        winner_microbatches=best.num_microbatches,
                    )
                return SearchResult(
                    solution=best,
                    num_pipeline_nodes=n,
                    devices_per_pipeline=D,
                    replica_factor=R,
                    totals=run.totals(),
                )
    return None

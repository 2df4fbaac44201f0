"""The built-in planner passes: one per phase of the paper's flow.

Mapping to the paper:

* :class:`ValidatePass` -- structural sanity of the traced graph.
* :class:`AtomicPartitionPass` -- atomic-level partitioning (Sec. III-A).
* :class:`CoarsenPass` -- block-level partitioning (Sec. III-B).
* :class:`ProfileTensorsPass` -- the profiling context over the block
  list (range matrices + the lazily-filled (k+1, k+1, D+1) profile
  tensors Algorithm 1 reduces over).
* :class:`StageSearchPass` -- Algorithm 2 over Algorithm 1 (Sec. III-C).
* :class:`EvaluatePass` -- the finished plan: the winning DP solution
  placed on device ranks and priced by the hybrid-parallel simulator.
* :class:`VerifyPass` -- hold the finished plan to the
  :mod:`repro.verify` invariants (static + differential).

Each compute pass declares the input facets it reads (``facets``) and
whether its artifacts are reusable across runs (``cacheable``); the
facet boundaries are what let a delta replan that only changed the
cluster size or memory budget skip everything up to and including
``profile_tensors``.  The compute passes are ``skip_when_planned``: the
pass manager skips them all when the store serves the finished plan.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, Optional

from repro.graph.validate import validate_graph
from repro.partitioner.allocation import boundary_report
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import BlockPartitioner
from repro.partitioner.deployment import (
    build_plan,
    graph_fingerprint,
    plan_to_json,
)
from repro.partitioner.search import form_stage
from repro.partitioner.stage_dp import DPContext, DPRun
from repro.planner.context import (
    BLOCKS,
    COMPONENTS,
    DP_CONTEXT,
    EVALUATED,
    SEARCH_RESULT,
    VALIDATED,
    VERIFIED,
    PlanningContext,
)
from repro.planner.manager import PartitioningError, PlannerPass
from repro.planner.store import LayoutPlan


class ValidatePass(PlannerPass):
    """Check the inputs before any expensive phase runs.

    With an artifact store, ``validate_graph`` runs once per graph
    fingerprint per store: a graph that passed it through the store
    before is a ``validate.memo_hits`` count, not a second check.
    """

    name = "validate"
    produces = (VALIDATED,)

    def run(self, ctx: PlanningContext) -> Optional[Dict[str, Any]]:
        if ctx.config.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        store = ctx.store
        graph_fp = graph_fingerprint(ctx.graph) if store is not None else None
        memo_hit = graph_fp is not None and store.graph_validated(graph_fp)
        if memo_hit:
            ctx.metrics.counter("validate.memo_hits").inc()
        else:
            validate_graph(ctx.graph)
            if graph_fp is not None:
                store.mark_graph_validated(graph_fp)
        ctx.put(VALIDATED, True)
        return {"tasks": len(ctx.graph.tasks), "memo_hit": memo_hit}


class AtomicPartitionPass(PlannerPass):
    """Sec. III-A: finest-grained subcomponents (constant-task cloning)."""

    name = "atomic_partition"
    produces = (COMPONENTS,)
    skip_when_planned = True
    cacheable = True
    facets = ("graph",)

    def run(self, ctx: PlanningContext) -> Optional[Dict[str, Any]]:
        components = ctx.put(COMPONENTS, atomic_partition(ctx.graph))
        return {"num_components": len(components)}


class CoarsenPass(PlannerPass):
    """Sec. III-B: multilevel coarsening to ``k`` balanced blocks.

    Reads the device's performance model (block balance weights) and its
    raw memory *capacity* (the block-size ceiling) -- deliberately not
    the planner-level ``memory_budget``, which caps only the stage
    search, so budget sweeps reuse one coarsening.
    """

    name = "coarsen"
    requires = (COMPONENTS,)
    produces = (BLOCKS,)
    skip_when_planned = True
    cacheable = True
    facets = ("arch", "capacity", "coarsen")

    def run(self, ctx: PlanningContext) -> Optional[Dict[str, Any]]:
        # a cold plan builds the profiler (its graph table) here
        start = time.perf_counter()
        profiler = ctx.ensure_profiler()
        build_ms = (time.perf_counter() - start) * 1e3
        partitioner = BlockPartitioner(
            ctx.graph,
            ctx.require(COMPONENTS),
            profiler,
            ctx.cluster,
            num_blocks=ctx.config.num_blocks,
        )
        blocks = ctx.put(BLOCKS, partitioner.run())
        return {
            "profiler_build_ms": build_ms,
            "num_blocks": len(blocks),
            "levels": partitioner.levels,
            "merges": len(partitioner.records),
            "moves": partitioner.moves,
            "compaction": partitioner.compaction,
        }


class ProfileTensorsPass(PlannerPass):
    """Build the :class:`DPContext`: Algorithm 1's memo.

    The context's range matrices, per-batch time prefixes and banded
    profiles depend on the graph, the block list, the batch size,
    the device performance model and the same-node p2p affine -- *not*
    on the cluster shape, the memory capacity or the budget -- so a
    delta replan that only resized the cluster reuses it wholesale from
    the store's memory tier, as it stands: each run keeps its own state
    in a :class:`~repro.partitioner.stage_dp.DPRun`.  It is never
    written to disk: a run in a new process rebuilds it from the stored
    ``blocks``.  The range matrices are built eagerly here; the
    per-``(D, R, MB)`` bands fill in lazily during the stage search and
    travel with the artifact.
    """

    name = "profile_tensors"
    requires = (BLOCKS,)
    produces = (DP_CONTEXT,)
    skip_when_planned = True
    cacheable = True
    facets = ("arch", "batch", "comm_local")

    def run(self, ctx: PlanningContext) -> Optional[Dict[str, Any]]:
        dp_ctx = ctx.put(
            DP_CONTEXT,
            DPContext(
                ctx.graph,
                ctx.require(BLOCKS),
                ctx.ensure_profiler(),
                ctx.config.batch_size,
            ),
        )
        dp_ctx._range_matrices()
        return {
            "num_blocks": dp_ctx.k,
            "range_entries": (dp_ctx.k + 1) ** 2,
        }


class StageSearchPass(PlannerPass):
    """Sec. III-C: Algorithm 2's (n, S, MB) search over Algorithm 1."""

    name = "stage_search"
    requires = (BLOCKS, DP_CONTEXT)
    produces = (SEARCH_RESULT,)
    skip_when_planned = True
    cacheable = True
    facets = ("cluster_shape", "batch", "search", "capacity", "budget")

    def run(self, ctx: PlanningContext) -> Optional[Dict[str, Any]]:
        profiler = ctx.ensure_profiler()
        dp_ctx = ctx.require(DP_CONTEXT)
        # the budget gates feasibility only: each sweep applies it to the
        # cached profile bands, so a reused context keeps them all
        run = DPRun(dp_ctx, ctx.cluster, ctx.config.memory_budget)
        result = form_stage(
            run,
            max_microbatches=ctx.config.max_microbatches,
            # fine-grained per-candidate spans are opt-in; the search
            # records are cheap (per DP call, not per cell) and always on
            tracer=ctx.tracer if ctx.config.trace else None,
        )
        # the run's totals, once per search, feasible or not
        run.publish(ctx.metrics)
        stats = profiler.stats()
        for name, value in stats.items():
            ctx.metrics.gauge(f"profiler.{name}").set(value)
        ctx.metrics.gauge("profiler.memo_hits").set(stats["table_hits"])
        if result is None:
            raise PartitioningError(
                f"no feasible partition for {ctx.graph.name!r} on "
                f"{ctx.cluster.total_devices} devices at batch size "
                f"{ctx.config.batch_size}"
            )
        ctx.put(SEARCH_RESULT, result)
        return {
            **result.totals,
            "num_stages": result.num_stages,
            "replica_factor": result.replica_factor,
            "devices_per_pipeline": result.devices_per_pipeline,
            # the cached bands, the winner's flush makespan (the winning
            # level's final incumbent) and each sweep's bound (None:
            # unbounded)
            "band_bytes": dp_ctx.band_bytes,
            "incumbent": result.solution.estimated_iteration_time(),
            "sweep_bounds": run.sweep_bounds,
        }


class EvaluatePass(PlannerPass):
    """Turn the winning DP solution into the finished plan: its stages
    placed on device ranks and its iteration time and throughput filled
    by the pipeline simulator (:func:`~repro.partitioner.deployment.build_plan`).

    In a store-backed run the plan is addressed by its layout too
    (:meth:`layout_key`): a layout the store's memory tier already
    holds a verified plan of (:meth:`~repro.planner.store.ArtifactStore.layout_plan`)
    is not built again.  Either way the run's plan is a view of the
    store's :class:`~repro.planner.store.LayoutPlan` (``ctx.layout``)
    with this run's diagnostics; ``layout_hits`` in the detail and the
    ``evaluate.layout_hits`` counter say whether it was known.
    """

    name = "evaluate"
    requires = (SEARCH_RESULT, DP_CONTEXT)
    produces = (EVALUATED,)
    skip_when_planned = True
    cacheable = True
    facets = ("cluster_shape", "comm", "batch")

    def layout_key(self, ctx: PlanningContext) -> Optional[str]:
        """The plan's address by value: a digest of the layout the stage
        search returned (boundaries, device counts, stage profiles with
        their microbatch sizes, ``MB``, ``R``) and of everything else this
        pass reads -- its facets and the DP context's fingerprint, which
        chains the graph, blocks, batch, precision and mode.  The memory
        budget reaches the plan only through the search's choice of
        layout, so it is left out.  ``None`` unless the run has a store
        and content-addressed search result and DP context."""
        fps = ctx.artifact_fps
        if ctx.store is None or SEARCH_RESULT not in fps or DP_CONTEXT not in fps:
            return None
        result = ctx.require(SEARCH_RESULT)
        sol = result.solution
        facets = ctx.facets()
        # repr is exact for the ints and floats a layout is made of
        doc = (
            [facets[name] for name in self.facets],
            fps[DP_CONTEXT],
            sol.boundaries,
            sol.device_counts,
            sol.stage_profiles,
            sol.num_microbatches,
            result.replica_factor,
        )
        return hashlib.sha256(repr(doc).encode()).hexdigest()

    def run(self, ctx: PlanningContext) -> Optional[Dict[str, Any]]:
        result = ctx.require(SEARCH_RESULT)
        sol = result.solution
        config = ctx.config
        key = self.layout_key(ctx)
        layout = ctx.store.layout_plan(key) if key is not None else None
        detail: Dict[str, Any] = {}
        if key is not None:
            detail["layout_hits"] = int(layout is not None)
        if layout is not None:
            ctx.metrics.counter("evaluate.layout_hits").inc()
        else:
            plan, timing = build_plan(
                ctx.require(DP_CONTEXT).stage_specs(
                    sol.boundaries, sol.device_counts, sol.stage_profiles
                ),
                model_name=ctx.graph.name,
                num_microbatches=sol.num_microbatches,
                replica_factor=result.replica_factor,
                batch_size=config.batch_size,
                precision=config.precision,
                cluster=ctx.cluster,
                mode=config.mode,
            )
            if key is not None:
                layout = LayoutPlan(
                    key, plan, timing, plan_to_json(plan, ctx.graph)
                )
        if layout is not None:
            # the shared plan stays as built; the run stamps its own view
            ctx.layout = layout
            plan, timing = layout.plan.view(), layout.timing
        diag = plan.diagnostics
        diag.search = dict(result.totals)
        diag.num_blocks = len(ctx.get(BLOCKS, ()))
        diag.num_atomic_components = len(ctx.get(COMPONENTS, ()))
        ctx.put(EVALUATED, plan)
        # footnote-3 accounting: did the placement actually earn the
        # NVLink rate the cost model charges stage boundaries at?
        report = boundary_report(
            plan.assignment, result.replica_factor, plan.num_stages
        )
        for name, value in report.items():
            ctx.metrics.gauge(f"comm.{name}").set(value)
        ctx.metrics.gauge("comm.allreduce_time").set(diag.allreduce_time)
        ctx.metrics.gauge("comm.pipeline_time").set(diag.pipeline_time)
        detail.update({
            "num_stages": plan.num_stages,
            **report,
            "iteration_time": plan.iteration_time,
            "throughput": plan.throughput,
            "comm_model": diag.comm_model,
        })
        if diag.allreduce_algorithm:
            detail["allreduce_algorithm"] = diag.allreduce_algorithm
        # the flush schedule's measured bubble (Fig. 1, quantified):
        # gauges per stage plus the mean idle fraction
        for s in range(plan.num_stages):
            ctx.metrics.gauge(f"stage.{s}.utilization").set(
                timing.utilization(s)
            )
        bubble = timing.bubble_fraction()
        ctx.metrics.gauge("stage.bubble_frac").set(bubble)
        detail["bubble_frac"] = bubble
        return detail


class VerifyPass(PlannerPass):
    """Hold the finished plan to the :mod:`repro.verify` invariants.

    Runs after :class:`EvaluatePass` on every fresh plan.  A fresh plan
    the run stored is checked through its layout
    (:meth:`~repro.planner.store.ArtifactStore.verify_layout`): the
    budget-free checks once per layout, recorded on it, and the budget
    check on every run.  The pass keeps the layout's deployment JSON as
    ``ctx.plan_document``.  A plan served whole from the store, from
    either tier, comes with the report the probe reused or made
    (:meth:`~repro.planner.store.ArtifactStore.verified_plan`): this
    pass reports that ``ctx.plan_report`` instead of checking again.
    Disable with ``PlannerConfig.verify=False``.
    """

    name = "verify"
    requires = (EVALUATED,)
    produces = (VERIFIED,)

    def should_skip(self, ctx: PlanningContext) -> Optional[str]:
        if not ctx.config.verify:
            return "disabled by config.verify"
        return super().should_skip(ctx)

    def run(self, ctx: PlanningContext) -> Optional[Dict[str, Any]]:
        plan = ctx.require(EVALUATED)
        report = ctx.plan_report
        if report is None:
            search = ctx.get(SEARCH_RESULT)
            expected = (
                search.solution.estimated_iteration_time()
                if search is not None
                else None
            )
            fp = ctx.artifact_fps.get(EVALUATED)
            if fp is not None and ctx.layout is not None:
                report, ctx.plan_document = ctx.store.verify_layout(
                    fp, plan, ctx, expected
                )
            else:
                report = ctx.check_plan(
                    plan, expected_iteration_time=expected
                )
        ctx.metrics.gauge("verify.invariants_checked").set(
            report.invariants_checked
        )
        ctx.metrics.gauge("verify.violations").set(len(report.violations))
        for stat, value in report.stats.items():
            ctx.metrics.gauge(f"verify.{stat}").set(value)
        report.raise_if_failed()
        ctx.put(VERIFIED, report)
        detail: Dict[str, Any] = {
            "invariants_checked": report.invariants_checked,
            "violations": 0,
            "checked_at_probe": ctx.plan_report is not None,
        }
        detail.update(report.stats)
        return detail

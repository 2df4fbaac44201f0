"""Delta replanning: reuse a previous run's artifacts for a new plan.

A finished :class:`~repro.planner.context.PlanningContext` holds every
intermediate the pipeline produced (atomic components, coarsened blocks,
the profile-tensor ``DPContext``, the DP solution).  When the cluster or
the planner config changes *partially* -- more nodes, a different memory
budget, another communication model (a cluster change:
``cluster.with_comm_model(...)``) -- most of those artifacts are still
valid, and recomputing them (profiling above all) dominates replanning
latency.

:func:`replan` runs the standard pipeline against an
:class:`~repro.planner.store.ArtifactStore` seeded from the previous
context (:func:`ensure_store`).  The pass manager then skips every pass
whose input fingerprint is unchanged: growing the cluster reuses the
coarsening and profile tensors and reruns only the stage search onward;
touching the memory budget does the same; touching nothing at all reuses
everything.  Because each pass is deterministic, the delta plan is
bit-identical to a cold plan for the same inputs -- and the ``verify``
pass still re-checks every delta-produced plan, reuse or not.

Typical use::

    ctx = PlanningContext(graph, cluster, config)
    plan = ctx.run()
    # ... the cluster doubles ...
    new_plan = replan(ctx, cluster=bigger_cluster)

or, to keep the delta run's event log, build its context over the
previous run's store and run it::

    new_ctx = PlanningContext(graph, bigger_cluster, config,
                              store=ensure_store(ctx))
    new_plan = new_ctx.run()

A delta run shares the previous run's store as it stands: it persists
artifacts only if that store has a disk tier.  ``repro plan --cache-dir``
exposes the same mechanism on the command line: it hands each run a
store whose :class:`~repro.planner.store.DiskBackend` persists the
artifacts under ``<cache root>/artifacts/``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.planner.context import PlannerConfig, PlanningContext
from repro.planner.facets import fingerprint_chain
from repro.planner.store import ArtifactStore

__all__ = ["ensure_store", "replan"]


def ensure_store(prev_context: PlanningContext) -> ArtifactStore:
    """The artifact store behind ``prev_context``, creating and seeding
    one from the context's finished artifacts when it ran store-less.

    Seeding replays the fingerprint chain of the default pipeline over
    the previous run's facets (:func:`~repro.planner.facets.fingerprint_chain`,
    the same chain the pass manager computes), chaining only through
    the artifacts the context holds, and puts each of them into the
    store under its pass's address.  A context that already carries a
    store (it ran with one) is returned as-is -- its artifacts were
    stored during the run.
    """
    if prev_context.store is not None:
        return prev_context.store
    from repro.planner import default_passes

    store = prev_context.store = ArtifactStore()
    passes = default_passes()
    fps = fingerprint_chain(
        passes,
        prev_context.facets(),
        prev_context.artifact_fps,
        feeds=lambda p: all(prev_context.has(a) for a in p.produces),
    )
    for p in passes:
        if p.name not in fps:
            continue
        fp = fps[p.name]
        for artifact in p.produces:
            if prev_context.has(artifact):
                store.put(
                    artifact, fp, prev_context.get(artifact), prev_context
                )
                prev_context.artifact_fps[artifact] = fp
    return store


def replan(
    prev_context: PlanningContext,
    *,
    graph: Optional[TaskGraph] = None,
    cluster: Optional[ClusterSpec] = None,
    config: Optional[PlannerConfig] = None,
    **config_overrides: Any,
):
    """Re-plan after a change, reusing every still-valid artifact.

    Args:
        prev_context: the context of a finished planning run.
        graph: replacement graph (default: the previous run's).
        cluster: replacement cluster (default: the previous run's).
        config: replacement config (default: the previous run's).
        **config_overrides: individual :class:`PlannerConfig` fields to
            override on top of ``config`` (e.g. ``memory_budget=16e9``).

    Returns:
        The new :class:`~repro.partitioner.plan.PartitionPlan`,
        bit-identical to what a cold run with the same inputs produces.

    Example -- after a finished run, tighten the memory budget or grow
    the cluster (only the stage search onward reruns), or switch to the
    topology communication model, which the cluster carries (the profile
    tensors onward rerun)::

        plan = ctx.run()
        tighter = replan(ctx, memory_budget=16 * 2**30)
        wider = replan(ctx, cluster=paper_cluster(4))
        topo = replan(ctx, cluster=ctx.cluster.with_comm_model("topology"))
    """
    new_config = config if config is not None else prev_context.config
    if config_overrides:
        new_config = dataclasses.replace(new_config, **config_overrides)
    return PlanningContext(
        graph if graph is not None else prev_context.graph,
        cluster if cluster is not None else prev_context.cluster,
        new_config,
        store=ensure_store(prev_context),
    ).run()

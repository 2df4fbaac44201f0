"""Replan-on-event: verified plan repair for elastic clusters.

A running job occasionally loses a node, gets preempted off one, or is
granted extra capacity.  Throwing the whole planning pipeline at the new
cluster works (delta replanning already reuses the profiling artifacts)
but ignores a cost the scheduler cares about far more than planning
latency: *migration* -- every (replica, stage) pair whose parameters are
not already resident on its newly assigned devices must fetch them over
the network before training resumes.

:func:`repair` therefore tries an **in-place repair** first: keep the
previous plan's stage boundaries and device counts, recompute the
replica factor for the surviving devices, re-profile the stages at the
new per-device batch size (re-optimizing the microbatch count for the
new replica factor), and re-verify the result with :mod:`repro.verify`.
Only the pairs whose devices actually changed migrate, and the
migration is priced by the max-min-fair transfer simulator
(:func:`repro.comm.contention.simulate_transfers`) over the new
cluster's topology.  A repair that needs *zero* migrations is
zero-disruption -- the event removed or added whole replicas -- and is
adopted as-is.  Only when the in-place plan is infeasible (replica
collapse, memory violation, verification failure) does repair fall back
to a full :func:`~repro.planner.replan.replan`, which reuses every
still-valid artifact of the previous run.

Every repair emits ``repair.*`` spans on the context's tracer and
``repair.*`` counters/gauges on its metrics registry; the plan service
surfaces the same mechanism as ``POST /v1/repair`` and the CLI as
``repro plan --repair``.  See ``docs/HETEROGENEOUS.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.comm.contention import Transfer, simulate_transfers
from repro.comm.topology import NetworkTopology
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.partitioner.allocation import allocate_devices
from repro.partitioner.plan import PartitionPlan
from repro.partitioner.stage_dp import slot_tables
from repro.pipeline.hybrid import evaluate_plan
from repro.planner.context import (
    BLOCKS,
    COMPONENTS,
    DP_CONTEXT,
    EVALUATED,
    PLAN,
    VALIDATED,
    PlanningContext,
)
from repro.planner.facets import fingerprint_chain
from repro.planner.replan import replan
from repro.planner.store import materialize_for_reuse

__all__ = [
    "ClusterEvent",
    "NodeLoss",
    "Preemption",
    "ScaleUp",
    "RepairResult",
    "repair",
    "survivor_map",
]


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterEvent:
    """Base class for elastic-cluster events; subclasses know how to
    produce the post-event :class:`~repro.hardware.cluster.ClusterSpec`."""

    def apply(self, cluster: ClusterSpec) -> ClusterSpec:
        raise NotImplementedError

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class NodeLoss(ClusterEvent):
    """Hard loss of one node (crash, network partition)."""

    node_index: int

    def apply(self, cluster: ClusterSpec) -> ClusterSpec:
        return cluster.drop_node(self.node_index)


@dataclass(frozen=True)
class Preemption(NodeLoss):
    """A node is preempted away by the scheduler.  Capacity-wise this is
    a :class:`NodeLoss`; the distinct type keeps the event log honest
    (preempted nodes drain gracefully, lost nodes do not)."""


@dataclass(frozen=True)
class ScaleUp(ClusterEvent):
    """``extra_nodes`` new nodes join (heterogeneous clusters grow the
    named device class, default the first)."""

    extra_nodes: int
    class_name: Optional[str] = None

    def apply(self, cluster: ClusterSpec) -> ClusterSpec:
        if cluster.device_classes:
            return cluster.grown(self.extra_nodes, self.class_name)
        return cluster.grown(self.extra_nodes)


def _class_first_ranks(cluster: ClusterSpec) -> Dict[str, int]:
    offsets: Dict[str, int] = {}
    off = 0
    for cls in cluster.device_classes:
        offsets[cls.name] = off
        off += cls.total_devices
    return offsets


def survivor_map(
    old: ClusterSpec, new: ClusterSpec, event: ClusterEvent
) -> Dict[int, int]:
    """Mapping ``old rank -> new rank`` for the devices that survive
    ``event`` (lost ranks are simply absent).

    Ranks are laid out node by node in class-declaration order, so a
    node loss shifts every later rank down by the lost node's width, and
    a heterogeneous scale-up shifts the ranks of every class declared
    *after* the grown one.
    """
    if isinstance(event, ScaleUp):
        if not old.device_classes:
            return {r: r for r in range(old.total_devices)}
        old_off = _class_first_ranks(old)
        new_off = _class_first_ranks(new)
        mapping: Dict[int, int] = {}
        for cls in old.device_classes:
            base_o, base_n = old_off[cls.name], new_off[cls.name]
            for i in range(cls.total_devices):
                mapping[base_o + i] = base_n + i
        return mapping
    firsts = old.node_first_ranks()
    lo, hi = firsts[event.node_index], firsts[event.node_index + 1]
    mapping = {}
    for r in range(old.total_devices):
        if r < lo:
            mapping[r] = r
        elif r >= hi:
            mapping[r] = r - (hi - lo)
    return mapping


# ----------------------------------------------------------------------
# result
# ----------------------------------------------------------------------
@dataclass
class RepairResult:
    """Outcome of one :func:`repair` call."""

    plan: PartitionPlan
    context: PlanningContext
    cluster: ClusterSpec
    event: ClusterEvent
    used_full_replan: bool
    #: (replica, stage) pairs that had to fetch parameters
    migrated_pairs: int
    migration_bytes: float
    #: max-min-fair simulated seconds to complete all parameter fetches
    migration_time: float
    #: wall time the repair itself took (monotonic seconds)
    repair_latency: float
    #: why the in-place attempt was abandoned ("" when it succeeded)
    fallback_reason: str = ""
    transfers: List[Transfer] = field(default_factory=list)


def _param_bytes(precision: Precision) -> float:
    # AMP ships FP16 working weights to the new holder; the FP32 master
    # copy travels with the optimizer state, out of scope here
    return 2.0 if precision == Precision.AMP else 4.0


def _migration_transfers(
    old_plan: PartitionPlan,
    new_plan: PartitionPlan,
    smap: Dict[int, int],
) -> Tuple[List[Transfer], int]:
    """Parameter fetches needed to realize ``new_plan`` from the
    surviving state of ``old_plan``.

    DP replicas of a stage hold identical parameters, so a destination
    rank may fetch from *any* surviving holder; sources are chosen
    round-robin to spread load.  A stage with no surviving holder is
    restored from a checkpoint through the lowest surviving rank.
    """
    per_param = _param_bytes(old_plan.precision)
    holders: Dict[int, List[int]] = {}
    if old_plan.assignment is not None:
        for (rep, stage), ranks in old_plan.assignment.ranks.items():
            bucket = holders.setdefault(stage, [])
            for r in ranks:
                n = smap.get(r)
                if n is not None:
                    bucket.append(n)
    for bucket in holders.values():
        bucket.sort()
    transfers: List[Transfer] = []
    migrated = set()
    if new_plan.assignment is None:
        return transfers, 0
    for (rep, stage), ranks in sorted(new_plan.assignment.ranks.items()):
        nbytes = new_plan.stages[stage].profile.param_count * per_param
        if nbytes <= 0:
            continue
        srcs = holders.get(stage, [])
        resident = set(srcs)
        pick = 0
        for dst in ranks:
            if dst in resident:
                continue
            if srcs:
                src = srcs[pick % len(srcs)]
                pick += 1
                tag = "migrate"
            else:
                # all holders lost: checkpoint restore, staged through
                # the lowest-numbered other rank
                src = 0 if dst != 0 else 1
                tag = "restore"
            transfers.append(
                Transfer(src_rank=src, dst_rank=dst, nbytes=nbytes, tag=tag)
            )
            migrated.add((rep, stage))
    return transfers, len(migrated)


def _price_migration(
    cluster: ClusterSpec, transfers: List[Transfer]
) -> float:
    if not transfers:
        return 0.0
    topo = NetworkTopology(cluster)
    results = simulate_transfers(topo, transfers)
    return max(r.finish for r in results)


# ----------------------------------------------------------------------
# in-place repair
# ----------------------------------------------------------------------
def _inplace_plan(
    prev_context: PlanningContext,
    prev_plan: PartitionPlan,
    new_cluster: ClusterSpec,
) -> Tuple[Optional[PartitionPlan], str]:
    """The previous plan re-targeted at ``new_cluster`` -- same stage
    boundaries and device counts, new replica factor, re-profiled
    stages and a re-optimized microbatch count -- or ``(None, reason)``
    when infeasible."""
    dp_ctx = prev_context.get(DP_CONTEXT) or _stored_dp_context(prev_context)
    if dp_ctx is None:
        return None, "no dp_context artifact to re-profile with"
    D = prev_plan.devices_per_pipeline
    total = new_cluster.total_devices
    R_new = total // D
    if R_new < 1:
        return None, f"pipeline needs {D} devices, {total} remain"
    config = prev_context.config
    # per-slot capacity / speed under the new cluster
    slots = slot_tables(
        new_cluster, prev_plan.precision, D, R_new, config.memory_budget
    )
    boundaries = [s.block_range[1] for s in prev_plan.stages]
    device_counts = [s.devices_per_pipeline for s in prev_plan.stages]

    def build(MB: int) -> Tuple[Optional[PartitionPlan], str]:
        priced, failure = dp_ctx.price_layout(
            boundaries, device_counts, R_new, MB, slots
        )
        if failure is not None:
            if failure.memory is None:
                return None, (
                    f"stage {failure.stage}: microbatch collapses at "
                    f"R={R_new}"
                )
            return None, (
                f"stage {failure.stage}: "
                f"{failure.memory / 2**30:.2f} GiB exceeds "
                f"{failure.cap / 2**30:.2f} GiB on surviving devices"
            )
        stages = dp_ctx.stage_specs(
            boundaries, device_counts, priced.stage_profiles
        )
        assignment = allocate_devices(
            new_cluster,
            device_counts,
            R_new,
            boundary_bytes=[s.profile.out_bytes for s in stages[:-1]],
        )
        plan = PartitionPlan(
            model_name=prev_plan.model_name,
            stages=stages,
            num_microbatches=MB,
            replica_factor=R_new,
            batch_size=prev_plan.batch_size,
            precision=prev_plan.precision,
            cluster=new_cluster,
            assignment=assignment,
            mode=prev_plan.mode,
        )
        plan.diagnostics.num_blocks = prev_plan.diagnostics.num_blocks
        plan.diagnostics.num_atomic_components = (
            prev_plan.diagnostics.num_atomic_components
        )
        evaluate_plan(plan, schedule=config.schedule)
        return plan, ""

    # the microbatch count was tuned for the old replica factor; sweep
    # the same candidate set the stage search uses (powers of two up to
    # the per-replica batch) and keep the fastest feasible schedule, so
    # a structure-stable repair lands on the plan a full replan would
    mb_cap = config.batch_size // R_new
    if config.max_microbatches is not None:
        mb_cap = min(mb_cap, config.max_microbatches)
    candidates = []
    mb = 1
    while mb <= mb_cap:
        candidates.append(mb)
        mb *= 2
    deployed = min(prev_plan.num_microbatches, max(1, mb_cap))
    if deployed not in candidates:
        candidates.append(deployed)

    best: Optional[PartitionPlan] = None
    reason = ""
    for MB in candidates:
        plan, why = build(MB)
        if plan is None:
            reason = reason or why
            continue
        if best is None or plan.iteration_time < best.iteration_time:
            best = plan
    if best is None:
        return None, reason or "no feasible microbatch count"
    return best, ""


def _stored_dp_context(ctx: PlanningContext):
    """The profile-tensor context of ``ctx``'s inputs, or ``None``.  A
    run the store served whole never built one.  The store's memory tier
    may hold it under the address the run would have given it; otherwise
    it is rebuilt from the stored ``blocks`` (memory or disk) the way
    the ``profile_tensors`` pass builds it."""
    if ctx.store is None:
        return None
    from repro.planner import default_passes

    passes = default_passes()
    fps = fingerprint_chain(passes, ctx.facets(), {}, feeds=lambda p: True)
    address = {a: fps[p.name][0] for p in passes if p.name in fps
               for a in p.produces}
    art = ctx.store.get(DP_CONTEXT, address[DP_CONTEXT], ctx)
    if art is not None:
        return ctx.put(
            DP_CONTEXT, materialize_for_reuse(DP_CONTEXT, art.payload, ctx)
        )
    blocks = ctx.store.get(BLOCKS, address[BLOCKS], ctx)
    if blocks is None:
        return None
    ctx.put(BLOCKS, blocks.payload)
    next(p for p in passes if DP_CONTEXT in p.produces).run(ctx)
    return ctx.get(DP_CONTEXT)


def _chained_context(
    prev_context: PlanningContext,
    new_cluster: ClusterSpec,
    plan: PartitionPlan,
) -> PlanningContext:
    """A context for the repaired state that keeps the cluster-agnostic
    artifacts (components, blocks, the profile-tensor DP context) so a
    later repair or full replan reuses them.  The search result is *not*
    carried over: an in-place plan is not what a cold search on the new
    cluster would produce, and must never be stored as if it were."""
    ctx = PlanningContext(
        prev_context.graph,
        new_cluster,
        prev_context.config,
        tracer=prev_context.tracer,
        metrics=prev_context.metrics,
        store=prev_context.store,
    )
    for name in (VALIDATED, COMPONENTS, BLOCKS, DP_CONTEXT):
        if prev_context.has(name):
            ctx.put(name, prev_context.get(name))
    ctx.put(PLAN, plan)
    ctx.put(EVALUATED, plan)
    return ctx


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def repair(
    prev_context: PlanningContext,
    event: ClusterEvent,
    *,
    plan: Optional[PartitionPlan] = None,
) -> RepairResult:
    """Repair a finished plan after a cluster event, migrating as few
    (replica, stage) pairs as possible.

    Args:
        prev_context: the context of a finished planning run (or the
            ``context`` of a previous :class:`RepairResult` -- repairs
            chain).
        event: what happened to the cluster.
        plan: the currently deployed plan; defaults to the context's
            evaluated plan artifact.

    Returns:
        A :class:`RepairResult` whose plan has been re-verified against
        the post-event cluster.  ``used_full_replan`` reports whether
        the in-place path was abandoned (and ``fallback_reason`` why);
        a repair that needs zero migrations keeps the in-place plan --
        zero transfers means the event was replica-aligned, so staying
        put is zero-disruption and matches the full replan's choice.

    Raises:
        ValueError: when the context holds no plan to repair.

    Example -- lose node 1 of a 4-node job and keep training::

        plan = plan_graph(graph, cluster, config, context=ctx)
        result = repair(ctx, NodeLoss(1))
        result.plan            # re-verified plan on the 3 survivors
        result.migration_time  # seconds to re-shard the parameters
    """
    prev_plan = plan or prev_context.get(EVALUATED) or prev_context.get(PLAN)
    if prev_plan is None:
        raise ValueError(
            "repair needs a finished planning run: the context holds no "
            "plan artifact"
        )
    old_cluster = prev_context.cluster
    new_cluster = event.apply(old_cluster)
    smap = survivor_map(old_cluster, new_cluster, event)
    metrics = prev_context.metrics
    tracer = prev_context.tracer
    t0 = time.perf_counter()

    with tracer.span("repair", category="repair", event=event.kind):
        candidate: Optional[PartitionPlan]
        with tracer.span("repair.inplace", category="repair"):
            candidate, reason = _inplace_plan(
                prev_context, prev_plan, new_cluster
            )
        transfers: List[Transfer] = []
        migrated = 0
        if candidate is not None:
            from repro.verify import check_plan

            with tracer.span("repair.verify", category="repair"):
                report = check_plan(candidate, prev_context.graph)
            if not report.ok:
                candidate = None
                reason = "verification failed: " + "; ".join(
                    str(v) for v in report.violations[:3]
                )
            else:
                # zero transfers means the event removed (or added)
                # whole replicas: every surviving shard is already where
                # the repaired plan needs it, so adopting in place is
                # zero-disruption -- and coincides with what a full
                # replan chooses for replica-aligned events (asserted
                # by the randomized repair harness)
                transfers, migrated = _migration_transfers(
                    prev_plan, candidate, smap
                )

        if candidate is not None:
            ctx = _chained_context(prev_context, new_cluster, candidate)
            used_full = False
            final = candidate
        else:
            with tracer.span(
                "repair.full_replan", category="repair", reason=reason
            ):
                ctx = PlanningContext(
                    prev_context.graph, new_cluster, prev_context.config
                )
                final = replan(
                    prev_context, cluster=new_cluster, context=ctx
                )
            used_full = True
            transfers, migrated = _migration_transfers(
                prev_plan, final, smap
            )

        with tracer.span(
            "repair.migrate", category="repair", transfers=len(transfers)
        ):
            migration_time = _price_migration(new_cluster, transfers)
    latency = time.perf_counter() - t0

    migration_bytes = sum(t.nbytes for t in transfers)
    if used_full:
        metrics.counter("repair.full_replans").inc()
    else:
        metrics.counter("repair.inplace").inc()
    metrics.gauge("repair.migrated_pairs").set(float(migrated))
    metrics.gauge("repair.migration_bytes").set(migration_bytes)
    metrics.gauge("repair.migration_time_s").set(migration_time)
    metrics.gauge("repair.latency_s").set(latency)
    return RepairResult(
        plan=final,
        context=ctx,
        cluster=new_cluster,
        event=event,
        used_full_replan=used_full,
        migrated_pairs=migrated,
        migration_bytes=migration_bytes,
        migration_time=migration_time,
        repair_latency=latency,
        fallback_reason=reason if used_full else "",
        transfers=transfers,
    )

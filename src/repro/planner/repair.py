"""Replan-on-event: verified plan repair for elastic clusters.

A running job occasionally loses a node, gets preempted off one, or is
granted extra capacity.  Throwing the whole planning pipeline at the new
cluster works (delta replanning already reuses the profiling artifacts)
but ignores a cost the scheduler cares about far more than planning
latency: *migration* -- every (replica, stage) pair whose parameters are
not already resident on its newly assigned devices must fetch them over
the network before training resumes.

:func:`repair` therefore tries an **in-place repair** first: a planner
run on the new cluster whose ``stage_search`` pass is the deployed
layout (:class:`FixedLayoutPass`: the previous plan's stage boundaries
and device counts, the replica factor the surviving devices allow, the
microbatch count re-ranked for it), followed by the planner's own
evaluate and verify passes under the run's config.
Only the pairs whose devices actually changed migrate, and the
migration is priced by the max-min-fair transfer simulator
(:func:`repro.comm.contention.simulate_transfers`) over the new
cluster's topology.  A repair that needs *zero* migrations is
zero-disruption -- the event removed or added whole replicas -- and is
adopted as-is.  Only when the in-place plan is infeasible (replica
collapse, memory violation, verification failure) does repair fall back
to a full replan: a run on the new cluster over the previous run's
store (:func:`~repro.planner.replan.ensure_store`), which reuses every
still-valid artifact.

Every repair emits ``repair.*`` spans on the context's tracer and
``repair.*`` counters/gauges on its metrics registry; the plan service
surfaces the same mechanism as ``POST /v1/repair`` and the CLI as
``repro plan --repair``.  See ``docs/HETEROGENEOUS.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.comm.contention import Transfer, simulate_transfers
from repro.comm.topology import NetworkTopology
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.partitioner.plan import PartitionPlan
from repro.partitioner.search import SearchResult, microbatch_candidates, microbatch_cap
from repro.partitioner.stage_dp import DPRun, LevelRecord
from repro.planner.context import (
    BLOCKS,
    COMPONENTS,
    DP_CONTEXT,
    EVALUATED,
    SEARCH_RESULT,
    VALIDATED,
    PlanningContext,
)
from repro.planner.manager import PartitioningError, PassManager, PlannerPass
from repro.planner.passes import (
    AtomicPartitionPass,
    CoarsenPass,
    EvaluatePass,
    ProfileTensorsPass,
    VerifyPass,
)
from repro.planner.replan import ensure_store
from repro.verify import PlanVerificationError

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
class FixedLayoutPass(PlannerPass):
    """The ``stage_search`` of an in-place repair: the deployed layout
    instead of a search.

    Keeps ``prev_plan``'s stage boundaries and per-pipeline device
    counts, takes the replica factor the run's cluster allows, prices
    the layout with :meth:`DPRun.price_layout` on that cluster's
    slots at each microbatch count the stage search would try (powers
    of two up to the per-replica batch, plus the deployed count), and
    keeps the one Algorithm 2 would rank first: the lowest
    ``estimated_iteration_time``, first minimum wins.  Raises
    :class:`PartitioningError` naming the first candidate's failing
    stage when no count fits.

    Not cacheable: the pass reads the deployed plan, which no facet
    hashes, so neither its result nor anything downstream of it ever
    gets a store address.
    """

    name = "stage_search"
    requires = (BLOCKS, DP_CONTEXT)
    produces = (SEARCH_RESULT,)

    def __init__(self, prev_plan: PartitionPlan) -> None:
        self.prev_plan = prev_plan

    def run(self, ctx: PlanningContext) -> Optional[Dict[str, Any]]:
        prev = self.prev_plan
        D = prev.devices_per_pipeline
        total = ctx.cluster.total_devices
        R = total // D
        if R < 1:
            raise PartitioningError(
                f"pipeline needs {D} devices, {total} remain"
            )
        config = ctx.config
        run = DPRun(ctx.require(DP_CONTEXT), ctx.cluster, config.memory_budget)
        slots = run.hetero_tables(D, R)
        boundaries = [s.block_range[1] for s in prev.stages]
        device_counts = [s.devices_per_pipeline for s in prev.stages]
        mb_cap = microbatch_cap(config.batch_size, R, config.max_microbatches)
        candidates = microbatch_candidates(mb_cap)
        deployed = min(prev.num_microbatches, max(1, mb_cap))
        if deployed not in candidates:
            candidates.append(deployed)

        priced = [
            run.price_layout(boundaries, device_counts, R, MB, slots)
            for MB in candidates
        ]
        solutions = [sol for sol, _ in priced if sol is not None]
        if not solutions:
            failure = priced[0][1]
            if failure.memory is None:
                raise PartitioningError(
                    f"stage {failure.stage}: microbatch collapses at R={R}"
                )
            raise PartitioningError(
                f"stage {failure.stage}: "
                f"{failure.memory / 2**30:.2f} GiB exceeds "
                f"{failure.cap / 2**30:.2f} GiB on surviving devices"
            )
        best = min(solutions, key=lambda s: s.estimated_iteration_time())
        # one level of priced layouts, and no sweep
        run.levels.append(LevelRecord((), False, False, len(solutions)))
        ctx.put(
            SEARCH_RESULT,
            SearchResult(
                solution=best,
                num_pipeline_nodes=-(-D // ctx.cluster.devices_per_node),
                devices_per_pipeline=D,
                replica_factor=R,
                totals=run.totals(),
            ),
        )
        return {
            "candidates_tried": len(solutions),
            "num_stages": best.num_stages,
            "replica_factor": R,
            "num_microbatches": best.num_microbatches,
        }


def _inplace_context(
    prev_context: PlanningContext,
    prev_plan: PartitionPlan,
    new_cluster: ClusterSpec,
) -> PlanningContext:
    """The finished in-place run on ``new_cluster``: the deployed layout
    (:class:`FixedLayoutPass`) placed, priced and verified by the
    planner's own passes under the run's config.

    The layout indexes the previous run's blocks, so the run starts from
    the previous context's atomic components, blocks and profile
    tensors.  A run the store served whole never built the profile
    tensors: the upstream passes load or rebuild what is missing, from
    the store where there is one, over the previous cluster.  The
    returned context keeps them, and the store, for a later repair or
    replan, but not the search result: a fixed layout is not what a
    search on the new cluster would pick.

    Raises :class:`PartitioningError` when no microbatch count fits and
    :class:`~repro.verify.PlanVerificationError` when the plan fails
    verification.
    """

    def run(cluster, passes, seed):
        ctx = PlanningContext(
            prev_context.graph,
            cluster,
            prev_context.config,
            tracer=prev_context.tracer,
            metrics=prev_context.metrics,
            store=prev_context.store,
        )
        for name in (VALIDATED, COMPONENTS, BLOCKS, DP_CONTEXT):
            if seed.has(name):
                ctx.put(name, seed.get(name))
        PassManager(passes).run(ctx)
        return ctx

    source = prev_context
    if not source.has(DP_CONTEXT):
        source = run(
            prev_context.cluster,
            [AtomicPartitionPass(), CoarsenPass(), ProfileTensorsPass()],
            prev_context,
        )
    ctx = run(
        new_cluster,
        [FixedLayoutPass(prev_plan), EvaluatePass(), VerifyPass()],
        source,
    )
    ctx.artifacts.pop(SEARCH_RESULT)
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

        plan = ctx.run()
        result = repair(ctx, NodeLoss(1))
        result.plan            # re-verified plan on the 3 survivors
        result.migration_time  # seconds to re-shard the parameters
    """
    prev_plan = plan or prev_context.get(EVALUATED)
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
        ctx: Optional[PlanningContext] = None
        reason = ""
        with tracer.span("repair.inplace", category="repair"):
            try:
                ctx = _inplace_context(prev_context, prev_plan, new_cluster)
            except PartitioningError as exc:
                reason = str(exc)
            except PlanVerificationError as exc:
                reason = "verification failed: " + "; ".join(
                    str(v) for v in exc.violations[:3]
                )
        used_full = ctx is None
        if used_full:
            with tracer.span(
                "repair.full_replan", category="repair", reason=reason
            ):
                ctx = PlanningContext(
                    prev_context.graph,
                    new_cluster,
                    prev_context.config,
                    store=ensure_store(prev_context),
                )
                final = ctx.run()
        else:
            final = ctx.require(EVALUATED)
        # zero transfers on the in-place path means the event removed
        # (or added) whole replicas: every surviving shard is already
        # where the repaired plan needs it, so adopting in place is
        # zero-disruption -- and coincides with what a full replan
        # chooses for replica-aligned events (asserted by the
        # randomized repair harness)
        transfers, migrated = _migration_transfers(prev_plan, final, smap)

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
        fallback_reason=reason,
        transfers=transfers,
    )

"""Hybrid-parallel iteration timing: pipeline + data-parallel sync.

Combines the pipeline simulator with the gradient-allreduce cost of each
stage's replica group and a parameter-update estimate, producing the
iteration time and samples/second throughput recorded in Figs. 4 and 5.

The allreduce phase is priced by the cluster's configured communication
model (:mod:`repro.comm`): under the default flat model each stage group
pays the legacy closed-form ring cost and the phase is the slowest group
(disjoint devices, free overlap -- bit-identical to the historical
behaviour); under the topology model each group is priced over its
*actual* device ranks with automatic allreduce-algorithm selection, and
the phase additionally respects bandwidth conservation on shared links
(concurrent stage groups contending for the same NIC uplinks cannot all
run at full rate).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.pipeline.simulator import (
    FlushTiming,
    flush_schedule,
    simulate_async_1f1b,
)

if TYPE_CHECKING:  # avoid a circular import with repro.partitioner
    from repro.partitioner.plan import PartitionPlan

#: bytes per parameter moved by the optimizer update (read p, g, m, v;
#: write p, m, v -- Adam in FP32)
OPT_STEP_BYTES_PER_PARAM = 28.0

#: bytes per parameter of the gradient a data-parallel group allreduces
#: (FP32)
GRAD_BYTES_PER_PARAM = 4.0


def allreduce_phase(plan: "PartitionPlan") -> Tuple[float, Dict[str, Any]]:
    """Duration of the data-parallel gradient sync phase, plus detail.

    Returns ``(seconds, details)`` where ``details`` carries the comm
    model name and, under the topology model, the allreduce algorithm
    chosen for the dominant (slowest) stage group and the per-stage
    algorithm map.
    """
    cluster = plan.cluster
    comm = cluster.comm
    details: Dict[str, Any] = {"comm_model": comm.name}
    if comm.name != "flat" and plan.assignment is not None:
        from repro.comm.contention import concurrent_makespan

        costs = []
        algorithms: Dict[int, str] = {}
        dominant_time, dominant_algo = 0.0, ""
        for stage in plan.stages:
            group = sorted({
                rank
                for replica in range(plan.replica_factor)
                for rank in plan.assignment.devices_of(replica, stage.index)
            })
            grad_bytes = stage.profile.param_count * GRAD_BYTES_PER_PARAM
            if len(group) <= 1 or grad_bytes <= 0:
                continue
            cost = comm.allreduce(grad_bytes, group)
            costs.append(cost)
            algorithms[stage.index] = cost.algorithm
            if cost.time > dominant_time:
                dominant_time, dominant_algo = cost.time, cost.algorithm
        time = concurrent_makespan(costs)
        details["allreduce_algorithm"] = dominant_algo
        details["allreduce_algorithms"] = algorithms
        details["allreduce_solo_time"] = dominant_time
        details["allreduce_contention_factor"] = (
            time / dominant_time if dominant_time > 0 else 1.0
        )
        return time, details

    # flat model: the historical loop, expression for expression
    allreduce = 0.0
    for stage in plan.stages:
        n_ranks = stage.devices_per_pipeline * plan.replica_factor
        grad_bytes = stage.profile.param_count * GRAD_BYTES_PER_PARAM
        # a replica group spans nodes whenever whole-pipeline replicas
        # exist (they live on different nodes) or the intra-pipeline
        # replicas straddle a node boundary; with non-uniform nodes the
        # uniform-width heuristic is wrong, so consult the actual ranks
        if cluster.is_heterogeneous and plan.assignment is not None:
            spans = plan.replica_factor > 1 or any(
                plan.assignment.stage_spans_nodes(rep, stage.index)
                for rep in range(plan.replica_factor)
            )
        else:
            spans = plan.replica_factor > 1 or (
                stage.devices_per_pipeline > cluster.devices_per_node
            )
        allreduce = max(
            allreduce, cluster.allreduce_time(grad_bytes, n_ranks, spans)
        )
    details["allreduce_algorithm"] = "ring"
    return allreduce, details


def evaluate_plan(plan: "PartitionPlan", schedule: str = "sync") -> "PartitionPlan":
    """Fill ``plan.iteration_time`` / ``plan.throughput`` in place.

    The iteration consists of the pipeline makespan, the data-parallel
    gradient-sync phase (see :func:`allreduce_phase`), and the slowest
    stage's local optimizer step.

    Args:
        plan: a populated partition plan.
        schedule: "sync" is the RaNNC/GPipe flush, the schedule the
            planner prices every plan under (see
            :func:`evaluate_plan_timing`); "sync_1f1b" and "async_1f1b"
            (PipeDream-2BW steady state) re-price a finished plan under
            another schedule.
    """
    if schedule == "sync":
        return evaluate_plan_timing(plan)[0]
    tf = [s.time_fwd for s in plan.stages]
    tb = [s.time_bwd for s in plan.stages]
    if schedule == "sync_1f1b":
        from repro.pipeline.one_f_one_b import simulate_sync_1f1b

        pipe_time = simulate_sync_1f1b(tf, tb, plan.num_microbatches).makespan
    elif schedule == "async_1f1b":
        pipe_time = simulate_async_1f1b(tf, tb, plan.num_microbatches)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    return _fill_iteration(plan, pipe_time)


def evaluate_plan_timing(
    plan: "PartitionPlan",
) -> Tuple["PartitionPlan", FlushTiming]:
    """:func:`evaluate_plan` under the flush schedule, plus the flush
    timing (makespan and per-stage busy time) it took the pipeline
    makespan from, so a caller that reports the bubble simulates the
    schedule once."""
    timing = flush_schedule(
        [s.time_fwd for s in plan.stages],
        [s.time_bwd for s in plan.stages],
        plan.num_microbatches,
    )
    return _fill_iteration(plan, timing.makespan), timing


def _fill_iteration(plan: "PartitionPlan", pipe_time: float) -> "PartitionPlan":
    """Fill ``plan``'s iteration time, throughput and phase breakdown
    from its pipeline makespan ``pipe_time``."""
    cluster = plan.cluster
    device = cluster.device
    if plan.mode == "inference":
        # no gradients to sync, no optimizer step: the iteration is the
        # forward-only pipeline makespan (tb is identically zero)
        allreduce, comm_details = 0.0, {"comm_model": cluster.comm.name}
        opt_step = 0.0
    else:
        allreduce, comm_details = allreduce_phase(plan)
        opt_step = 0.0
        for stage in plan.stages:
            opt_step = max(
                opt_step,
                stage.profile.param_count * OPT_STEP_BYTES_PER_PARAM
                / device.mem_bandwidth,
            )

    plan.iteration_time = pipe_time + allreduce + opt_step
    plan.throughput = plan.batch_size / plan.iteration_time
    plan.diagnostics.pipeline_time = pipe_time
    plan.diagnostics.allreduce_time = allreduce
    plan.diagnostics.optimizer_time = opt_step
    plan.diagnostics.comm_model = comm_details["comm_model"]
    plan.diagnostics.allreduce_algorithm = comm_details.get(
        "allreduce_algorithm", ""
    )
    return plan

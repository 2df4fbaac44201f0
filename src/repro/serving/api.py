"""One-call serving simulation: plan (inference mode) + simulate + size.

:func:`run_serving_sim` is the single entry point shared by the
``repro serve-sim`` CLI and the daemon's ``POST /v1/serving-sim``
endpoint: both call it with the same arguments and print/return the
same summary document, so the two surfaces are contractually identical
(a test asserts it).  The whole computation is deterministic -- the
workload is seeded and the simulator is pure -- so equal arguments give
byte-identical summaries.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

__all__ = ["run_serving_sim"]


def _resolve_model(model: Union[str, Dict[str, Any]]):
    from repro.service.protocol import build_model

    spec = {"preset": model} if isinstance(model, str) else model
    graph, canonical = build_model(spec)
    return graph, canonical


def _resolve_cluster(cluster: Union[str, Dict[str, Any]]):
    from repro.service.protocol import build_cluster

    spec = {"preset": cluster} if isinstance(cluster, str) else cluster
    built, canonical = build_cluster(spec)
    return built, canonical


def run_serving_sim(
    model: Union[str, Dict[str, Any]] = "gpt-tiny",
    cluster: Union[str, Dict[str, Any]] = "v100x8",
    *,
    rps: float = 50.0,
    slo_ms: float = 200.0,
    duration_s: float = 2.0,
    seed: int = 0,
    max_wait_ms: float = 10.0,
    max_replicas: int = 8,
    batch_size: int = 32,
    samples_per_request: int = 1,
    workload_trace: Optional[str] = None,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Plan ``model`` in inference mode, simulate the offered load, and
    autoscale to the smallest replica count meeting the latency SLO.

    Args:
        model: a model preset name (see
            :data:`repro.service.protocol.MODEL_PRESETS`) or a model
            spec object (``{"family": "gpt", "hidden": 768, ...}``).
        cluster: a cluster preset name or spec object.
        rps: offered load, requests per second (Poisson).
        slo_ms: p99 request-latency SLO in milliseconds.
        duration_s: length of the simulated arrival window.
        seed: workload RNG seed.
        max_wait_ms: continuous-batching wait bound per batch.
        max_replicas: autoscaler sweep ceiling.
        batch_size: global batch the planner partitions for; one serving
            replica consumes ``batch_size / replica_factor`` samples per
            flush.
        samples_per_request: samples carried by each request.
        workload_trace: replay this arrival-trace file instead of the
            Poisson stream (see
            :func:`repro.serving.workload.trace_arrivals`).
        trace_out: write the window's per-request/per-batch spans as a
            Perfetto trace to this path.

    Returns:
        A JSON-safe summary: plan shape, workload description, chosen
        replica count, ``met_slo``, latency percentiles, throughput,
        utilization and the full autoscaler sweep.
    """
    from repro.planner import PlannerConfig, PlanningContext
    from repro.serving.autoscale import autoscale_replicas
    from repro.serving.simulator import ServiceModel, write_serving_trace
    from repro.serving.workload import poisson_arrivals, trace_arrivals

    graph, model_desc = _resolve_model(model)
    cluster_obj, cluster_desc = _resolve_cluster(cluster)
    config = PlannerConfig(
        batch_size=batch_size, mode="inference", verify=True
    )
    plan = PlanningContext(graph, cluster_obj, config).run()

    if workload_trace is not None:
        requests = trace_arrivals(workload_trace)
        workload_doc: Dict[str, Any] = {
            "kind": "trace",
            "trace": str(workload_trace),
        }
    else:
        requests = poisson_arrivals(
            rps,
            duration_s,
            seed=seed,
            samples_per_request=samples_per_request,
        )
        workload_doc = {
            "kind": "poisson",
            "rps": rps,
            "duration_s": duration_s,
            "seed": seed,
        }
    workload_doc["requests"] = len(requests)
    workload_doc["max_wait_ms"] = max_wait_ms

    decision = autoscale_replicas(
        plan,
        requests,
        slo_ms,
        max_replicas=max_replicas,
        max_wait_s=max_wait_ms / 1e3,
    )
    if trace_out is not None:
        write_serving_trace(trace_out, decision.result)

    service = ServiceModel.from_plan(plan)
    summary = decision.result.summary()
    summary.update(
        {
            "model": graph.name,
            "model_spec": model_desc,
            "cluster_spec": cluster_desc,
            "devices": cluster_obj.total_devices,
            "mode": plan.mode,
            "plan": {
                "num_stages": plan.num_stages,
                "num_microbatches": plan.num_microbatches,
                "replica_factor": plan.replica_factor,
                "batch_size": plan.batch_size,
                "capacity_per_replica": service.capacity,
                "batch_latency_ms": service.latency_s * 1e3,
                "service_gap_ms": service.gap_s * 1e3,
            },
            "workload": workload_doc,
            "slo_ms": slo_ms,
            "met_slo": decision.met_slo,
            "sweep": [point.as_doc() for point in decision.sweep],
        }
    )
    return summary

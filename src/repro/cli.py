"""Command-line interface: partition models and regenerate paper results.

``plan`` and ``verify`` describe the model and cluster with one flag
group that builds the plan service's ``model`` and ``cluster`` objects
(:mod:`repro.service.protocol`), so the CLI and ``repro serve`` accept
the same presets and plan the same thing.

Examples::

    python -m repro plan --model bert --hidden 1536 --layers 96 \
        --nodes 4 --batch-size 256 --save deployment.json
    python -m repro plan --model bert --explain --cache-dir ~/.cache/repro
    python -m repro plan --model bert-base --nodes 1 --trace-out trace.json
    python -m repro plan --model bert-base --nodes 2 --a100-nodes 2 \
        --straggler 1.25 --repair node-loss:1
    python -m repro verify deployment.json --model bert --hidden 1536 \
        --layers 96 --nodes 4
    python -m repro serve --port 8321 --cache-dir ~/.cache/repro \
        --cache-budget-mb 256 --workers 4
    python -m repro serve-sim --model gpt-tiny --cluster v100x8 \
        --rps 50 --slo-ms 200
    python -m repro fig4 --fast
    python -m repro fig5
    python -m repro table1
    python -m repro ablation
    python -m repro loss-validation
    python -m repro schedule --stages 4 --microbatches 8
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.hardware import Precision
from repro.partitioner import PartitioningError
from repro.partitioner.stage_dp import TOTAL_METRICS
from repro.service.protocol import (
    CLUSTER_PRESETS,
    MODEL_PRESETS,
    ServiceError,
    build_cluster,
    build_config,
    build_model,
    parse_event,
)

def _add_model_cluster(p: argparse.ArgumentParser) -> None:
    """The model and cluster flags shared by ``plan`` and ``verify``."""
    g = p.add_argument_group("model and cluster")
    g.add_argument("--model", choices=("bert", "gpt", "resnet") + MODEL_PRESETS,
                   default="bert",
                   help="model family (sized by the flags below) or a "
                        "named preset")
    g.add_argument("--hidden", type=int, default=1024, help="BERT/GPT hidden size")
    g.add_argument("--layers", type=int, default=24, help="BERT/GPT layer count")
    g.add_argument("--depth", type=int, default=50, help="ResNet depth")
    g.add_argument("--width-factor", type=int, default=8, help="ResNet width factor")
    g.add_argument("--nodes", type=int, default=4,
                   help="number of 8-V100 nodes")
    g.add_argument("--a100-nodes", type=int, default=0,
                   help="add this many 8-A100 nodes, making the cluster "
                        "heterogeneous (flat comm model only)")
    g.add_argument("--straggler", type=float, default=1.0,
                   help="slowdown factor of the V100 class in a "
                        "heterogeneous cluster (with --a100-nodes)")


def _build_model_cluster(
    args: argparse.Namespace, comm_model: Optional[str] = None
):
    """The graph and cluster the shared flags describe, built from the
    same ``model`` and ``cluster`` objects the plan service accepts;
    ``comm_model`` (``plan --comm-model``) goes into the cluster object."""
    if args.model in MODEL_PRESETS:
        model = {"preset": args.model}
    elif args.model == "resnet":
        model = {"family": "resnet", "depth": args.depth,
                 "width_factor": args.width_factor}
    else:
        model = {"family": args.model, "hidden": args.hidden,
                 "layers": args.layers}
    if args.a100_nodes:
        cluster = {"classes": [
            {"name": "v100", "device": "v100", "nodes": args.nodes,
             "straggler_factor": args.straggler},
            {"name": "a100", "device": "a100", "nodes": args.a100_nodes},
        ]}
    else:
        cluster = {"nodes": args.nodes}
    if comm_model is not None:
        cluster["comm_model"] = comm_model
    return build_model(model)[0], build_cluster(cluster)[0]


def _add_plan(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "plan",
        help="run the pass-based planning pipeline on one model",
    )
    _add_model_cluster(p)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--amp", action="store_true", help="mixed precision")
    p.add_argument("--blocks", type=int, default=32, help="block count k")
    p.add_argument("--cache-dir", type=str, default=None,
                   help="plan cache directory: a rerun loads the stored "
                        "plan, a changed run reuses every pass artifact "
                        "whose inputs are unchanged")
    p.add_argument("--memory-budget-gb", type=float, default=None,
                   help="cap the per-device memory the stage search may "
                        "fill (GiB); default: hardware capacity")
    p.add_argument("--cache-budget-mb", type=int, default=None,
                   help="LRU byte budget of the on-disk cache (MiB); "
                        "default: unbounded")
    p.add_argument("--comm-model", choices=("flat", "topology"),
                   default=None,
                   help="communication cost model: 'flat' is the paper's "
                        "two-scalar closed forms, 'topology' routes every "
                        "transfer over the link-level network model; "
                        "default: the cluster's own (flat)")
    p.add_argument("--repair", type=str, default=None, metavar="EVENT",
                   help="after planning, repair the plan for a cluster "
                        "event: 'node-loss:IDX', 'preemption:IDX' or "
                        "'scale-up:N'")
    p.add_argument("--explain", action="store_true",
                   help="print per-pass timings, peak-RSS deltas, "
                        "profiler statistics, and cache / artifact-reuse "
                        "gauges")
    p.add_argument("--trace-out", type=str, default=None,
                   help="plan with fine-grained tracing on and write a "
                        "Perfetto trace.json here (planner spans, DP "
                        "counters, one track per pipeline stage; load in "
                        "https://ui.perfetto.dev)")
    p.add_argument("--jsonl", type=str, default=None,
                   help="plan with tracing on and write the raw spans + "
                        "metrics here as JSON-lines")
    p.add_argument("--save", type=str, default=None,
                   help="write the deployment JSON to this path")


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="run the plan service: a long-lived HTTP/JSON daemon over "
             "the planning pipeline (coalescing, shared artifact store, "
             "whole-plan and delta reuse; see docs/SERVICE.md)",
    )
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321,
                   help="listen port (0 picks a free port)")
    p.add_argument("--cache-dir", type=str, default=None,
                   help="shared on-disk artifact cache root; omit for a "
                        "memory-only store")
    p.add_argument("--cache-budget-mb", type=int, default=None,
                   help="LRU byte budget of the on-disk cache (MiB)")
    p.add_argument("--store-budget-mb", type=int, default=None,
                   help="byte budget of the in-memory artifact tier (MiB)")
    p.add_argument("--workers", type=int, default=2,
                   help="pipeline thread-pool size (plans that can "
                        "run concurrently)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds to wait for in-flight plans on shutdown")
    p.add_argument("--trace-out", type=str, default=None,
                   help="write the serving window's Perfetto trace here "
                        "on exit")


def _cmd_serve(args: argparse.Namespace) -> int:
    import repro.models  # noqa: F401  -- loaded before the first request
    from repro.service import serve

    return serve(
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
        trace_out=args.trace_out,
        cache_dir=args.cache_dir,
        cache_budget_bytes=(
            args.cache_budget_mb * 2**20
            if args.cache_budget_mb is not None else None
        ),
        store_memory_budget_bytes=(
            args.store_budget_mb * 2**20
            if args.store_budget_mb is not None else None
        ),
        workers=args.workers,
    )


def _add_serve_sim(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-sim",
        help="plan a model in inference mode and simulate serving it: "
             "Poisson or trace-file arrivals, continuous batching, "
             "least-outstanding-work routing, and an SLO autoscaler "
             "that picks the minimum replica count whose simulated p99 "
             "latency meets the SLO (see docs/SERVING_SIM.md)",
    )
    p.add_argument("--model", default="gpt-tiny",
                   help="model preset (bert-base, bert-large, gpt-tiny, "
                        "gpt-small, gpt-medium)")
    p.add_argument("--cluster", choices=sorted(CLUSTER_PRESETS),
                   default="v100x8",
                   help="testbed preset (number of 8-V100 nodes)")
    p.add_argument("--rps", type=float, default=50.0,
                   help="offered load, requests/second (Poisson)")
    p.add_argument("--slo-ms", type=float, default=200.0,
                   help="p99 request-latency SLO (milliseconds)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="simulated arrival window (seconds)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload RNG seed (same seed, same stream)")
    p.add_argument("--max-wait-ms", type=float, default=10.0,
                   help="continuous-batching wait bound per batch")
    p.add_argument("--max-replicas", type=int, default=8,
                   help="autoscaler sweep ceiling")
    p.add_argument("--batch-size", type=int, default=32,
                   help="global batch the planner partitions for")
    p.add_argument("--workload-trace", type=str, default=None,
                   help="replay this arrival-trace file instead of the "
                        "Poisson stream (one arrival per line, or JSONL "
                        "{'arrival': t, 'samples': n})")
    p.add_argument("--trace-out", type=str, default=None,
                   help="write per-request/per-batch spans as a "
                        "Perfetto trace.json here")


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    from repro.serving import run_serving_sim

    try:
        summary = run_serving_sim(
            args.model,
            args.cluster,
            rps=args.rps,
            slo_ms=args.slo_ms,
            duration_s=args.duration,
            seed=args.seed,
            max_wait_ms=args.max_wait_ms,
            max_replicas=args.max_replicas,
            batch_size=args.batch_size,
            workload_trace=args.workload_trace,
            trace_out=args.trace_out,
        )
    except PartitioningError as exc:
        print(f"INFEASIBLE: {exc}")
        return 1
    plan = summary["plan"]
    workload = summary["workload"]
    latency = summary["latency_ms"]
    print(f"{summary['model']}  on {summary['devices']} devices "
          f"({args.cluster}), inference plan: "
          f"stages={plan['num_stages']} mb={plan['num_microbatches']} "
          f"R={plan['replica_factor']}, "
          f"{plan['capacity_per_replica']} samples/batch/replica, "
          f"batch latency {plan['batch_latency_ms']:.2f}ms")
    if workload["kind"] == "poisson":
        print(f"workload: poisson {workload['rps']:g} rps x "
              f"{workload['duration_s']:g}s (seed {workload['seed']}) = "
              f"{workload['requests']} requests, "
              f"max wait {workload['max_wait_ms']:g}ms")
    else:
        print(f"workload: trace {workload['trace']} = "
              f"{workload['requests']} requests, "
              f"max wait {workload['max_wait_ms']:g}ms")
    print(f"replicas: {summary['replicas']} "
          f"(SLO p99 <= {summary['slo_ms']:g}ms: "
          f"{'met' if summary['met_slo'] else 'NOT MET'})")
    print(f"latency: p50={latency['p50']:.2f}ms p99={latency['p99']:.2f}ms "
          f"max={latency['max']:.2f}ms")
    print(f"throughput: {summary['throughput_rps']:.1f} req/s, "
          f"batch occupancy {summary['batch_occupancy']:.0%}, "
          f"replica utilization {summary['utilization']:.0%}")
    for point in summary["sweep"]:
        marker = " <-- chosen" if point["replicas"] == summary["replicas"] else ""
        print(f"  {point['replicas']} replica(s): "
              f"p99={point['p99_ms']:.2f}ms "
              f"util={point['utilization']:.0%}{marker}")
    if args.trace_out:
        print(f"serving trace written to {args.trace_out} "
              f"(open at https://ui.perfetto.dev)")
    return 0 if summary["met_slo"] else 1


def _add_verify(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "verify",
        help="verify a saved deployment JSON against a model + cluster "
             "(static invariants + differential re-simulation)",
    )
    p.add_argument("plan", help="deployment JSON written by "
                                "'repro plan --save'")
    _add_model_cluster(p)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.partitioner.deployment import (
        DeploymentMismatchError,
        plan_from_json,
    )
    from repro.verify import PlanVerificationError

    try:
        text = open(args.plan).read()
    except OSError as exc:
        print(f"FAIL: cannot read {args.plan}: {exc}")
        return 1
    graph, cluster = _build_model_cluster(args)
    try:
        plan = plan_from_json(text, graph, cluster)
    except PlanVerificationError as exc:
        print(f"FAIL: {args.plan}: {len(exc.violations)} invariant "
              f"violation(s)")
        for v in exc.violations:
            print(f"  - {v}")
        return 1
    except (DeploymentMismatchError, ValueError, KeyError) as exc:
        print(f"FAIL: {args.plan}: {exc}")
        return 1
    print(f"OK: {args.plan} verified against {graph.name!r} on "
          f"{cluster.total_devices} devices "
          f"(stages={plan.num_stages}, MB={plan.num_microbatches}, "
          f"R={plan.replica_factor})")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.planner import ArtifactStore, DiskBackend, PlanningContext

    event = None
    if args.repair is not None:
        # 'node-loss:1' -> {"type": "node_loss", "node_index": "1"}
        kind, _, arg = args.repair.partition(":")
        kind = kind.replace("-", "_").lower()
        field = "extra_nodes" if kind == "scale_up" else "node_index"
        event = parse_event({"type": kind, field: arg})
    graph, cluster = _build_model_cluster(args, args.comm_model)
    options = {
        "amp": args.amp,
        "blocks": args.blocks,
        "memory_budget_gb": args.memory_budget_gb,
    }
    config = build_config(
        {
            "batch_size": args.batch_size,
            "options": {k: v for k, v in options.items() if v is not None},
        }
    )
    tracing = args.trace_out is not None or args.jsonl is not None
    if tracing:
        config = dataclasses.replace(config, trace=True)
    store = None
    if args.cache_dir is not None:
        store = ArtifactStore(disk=DiskBackend(
            Path(args.cache_dir),
            byte_budget=(
                args.cache_budget_mb * 2**20
                if args.cache_budget_mb is not None else None
            ),
        ))
    ctx = PlanningContext(graph, cluster, config, store=store)
    print(f"{graph}  on {cluster.total_devices} devices, "
          f"BS={config.batch_size}, {config.precision.value}, "
          f"comm={ctx.cluster.comm_model}")
    try:
        plan = ctx.run()
    except PartitioningError as exc:
        print(f"INFEASIBLE: {exc}")
        if args.explain:
            print(_render_events(ctx))
        if tracing:
            # still export whatever the planner recorded before failing
            _write_traces(args, ctx, None)
        return 1
    print(plan.summary())
    if plan.diagnostics.cache_hit:
        print("  (plan restored from the deployment cache)")
    if event is not None:
        from repro.planner import repair

        try:
            result = repair(ctx, event)
        except (PartitioningError, ValueError) as exc:
            print(f"REPAIR FAILED: {exc}")
            return 1
        plan = result.plan
        mode = ("full replan ({})".format(result.fallback_reason)
                if result.used_full_replan else "in-place")
        print(f"repaired after {result.event.kind}: {mode}")
        print(f"  migrated (replica, stage) pairs: {result.migrated_pairs}"
              f"  ({result.migration_bytes / 2**20:.1f} MiB, "
              f"{result.migration_time * 1e3:.1f}ms simulated)")
        print(f"  repair latency: {result.repair_latency * 1e3:.1f}ms on "
              f"{result.cluster.total_devices} surviving devices")
        print(plan.summary())
    if args.explain:
        print(_render_events(ctx))
    if tracing:
        _write_traces(args, ctx, plan)
    if args.save:
        from repro.partitioner.deployment import plan_to_json

        with open(args.save, "w") as fh:
            fh.write(plan_to_json(plan, graph))
        print(f"deployment written to {args.save}")
    return 0


def _write_traces(args: argparse.Namespace, ctx, plan) -> None:
    """Export the run's spans and metrics; ``plan=None`` (an infeasible
    run) writes the partial trace without pipeline stage tracks."""
    from repro.obs import write_chrome_trace, write_jsonl
    from repro.pipeline.timeline import plan_timeline

    if args.trace_out is not None:
        timeline = plan_timeline(plan) if plan is not None else None
        doc = write_chrome_trace(args.trace_out, tracer=ctx.tracer,
                                 timeline=timeline, metrics=ctx.metrics)
        if plan is None:
            print(f"partial trace written to {args.trace_out}")
        else:
            spans = ctx.tracer.spans()
            dp_spans = sum(1 for s in spans if s.category == "partitioner.dp")
            print(
                f"trace written to {args.trace_out}: "
                f"{len(doc['traceEvents'])} events "
                f"({len(spans)} spans, {dp_spans} DP calls, "
                f"{timeline.num_stages} stage tracks, "
                f"{len(ctx.metrics)} metrics)"
            )
            print("open it at https://ui.perfetto.dev (or chrome://tracing)")
    if args.jsonl is not None:
        write_jsonl(args.jsonl, ctx.tracer, ctx.metrics)
        print(f"spans written to {args.jsonl}")


def _render_events(ctx) -> str:
    """Two-column per-pass report plus profiler / cache / reuse stats."""
    lines = ["", "pass".ljust(20) + "status".ljust(10) + "time".rjust(10) +
             "  detail"]
    lines.append("-" * 72)
    for event in ctx.events:
        keys = ("reason", "reuse", "fingerprint", *TOTAL_METRICS,
                "band_bytes",
                "num_components", "num_blocks", "levels", "merges", "moves",
                "compaction", "range_entries",
                "num_stages", "throughput",
                "bubble_frac", "comm_model", "allreduce_algorithm",
                "internode_boundaries", "nvlink_boundary_frac",
                "invariants_checked", "violations")
        detail = ", ".join(
            f"{k}={event.detail[k]}" for k in keys if k in event.detail
        )
        rss_delta = event.detail.get("peak_rss_delta")
        if rss_delta:
            part = f"peak_rss_delta={rss_delta / 2**20:.1f}MiB"
            detail = f"{detail}, {part}" if detail else part
        lines.append(
            event.name.ljust(20)
            + event.status.ljust(10)
            + f"{event.wall_time * 1e3:8.1f}ms"
            + (f"  {detail}" if detail else "")
        )
    lines.append("-" * 72)
    lines.append("total".ljust(30) + f"{ctx.events.total_time() * 1e3:8.1f}ms")
    if ctx.profiler is not None:
        stats = ctx.profiler.stats()
        lines.append(
            f"profiler memo hit rate: {stats['memo_hit_rate']:.1%} "
            f"({int(stats['table_hits'])} hits / "
            f"{int(stats['table_calls'])} time-table lookups)"
        )
    else:
        lines.append("profiler memo hit rate: n/a (profiler never built)")
    snap = ctx.metrics.snapshot()
    if "planner.peak_rss_bytes" in snap:
        lines.append(
            "planner peak RSS: "
            f"{snap['planner.peak_rss_bytes'] / 2**20:.1f} MiB"
        )
    store = ctx.store.stats() if ctx.store is not None else {}
    if "backend_bytes" in store:
        lines.append(
            f"cache: {int(store['backend_bytes'])} bytes on disk, "
            f"{int(store['backend_evictions'])} eviction(s)"
        )
    if "planner.reuse.passes_skipped" in snap:
        lines.append(
            "artifact reuse: "
            f"{int(snap['planner.reuse.passes_skipped'])} pass(es) "
            "skipped, "
            f"{int(snap['planner.reuse.artifacts_loaded'])} artifact(s) "
            "loaded, "
            f"{int(snap['planner.reuse.store_misses'])} store miss(es)"
        )
    return "\n".join(lines)


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.experiments import FIG4_FAST_GRID, run_fig4
    from repro.experiments.charts import bar_chart
    from repro.experiments.fig4_bert import FIG4_FULL_GRID, headline_claims
    from repro.experiments.runner import format_rows

    grid = FIG4_FAST_GRID if args.fast else FIG4_FULL_GRID
    precision = Precision.AMP if args.amp else Precision.FP32
    rows = run_fig4(grid, precision)
    if args.chart:
        print(bar_chart(rows, f"Fig. 4 ({precision.value}), samples/s"))
    else:
        print(format_rows(rows, f"Fig. 4 ({precision.value}), samples/s"))
    for claim, ok in headline_claims(rows).items():
        print(f"  {claim}: {'OK' if ok else 'VIOLATED'}")
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments import run_fig5
    from repro.experiments.charts import bar_chart
    from repro.experiments.runner import format_rows

    rows = run_fig5()
    if args.chart:
        print(bar_chart(rows, "Fig. 5, samples/s"))
    else:
        print(format_rows(rows, "Fig. 5, samples/s"))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import run_table1
    from repro.experiments.table1_features import format_table1

    print(format_table1(run_table1()))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments import run_coarsening_ablation
    from repro.experiments.coarsening_ablation import format_ablation

    layers = (24, 48) if args.fast else (24, 48, 96)
    print(format_ablation(run_coarsening_ablation(layer_counts=layers)))
    return 0


def _cmd_loss_validation(args: argparse.Namespace) -> int:
    from repro.experiments import run_loss_validation

    result = run_loss_validation(steps=args.steps)
    for i, (a, b) in enumerate(
        zip(result.reference_losses, result.partitioned_losses)
    ):
        print(f"step {i}: whole={a:.8f} partitioned={b:.8f} diff={abs(a - b):.2e}")
    ok = result.within_paper_tolerance
    print(f"within paper tolerance (1e-3): {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.pipeline.schedule import render_schedule, sync_pipeline_schedule

    events = sync_pipeline_schedule(args.stages, args.microbatches)
    print(render_schedule(events, args.stages))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, every subcommand included."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RaNNC reproduction: automatic graph partitioning "
                    "for very large-scale deep learning (IPDPS 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_plan(sub)
    _add_verify(sub)
    _add_serve(sub)
    _add_serve_sim(sub)
    p4 = sub.add_parser("fig4", help="regenerate the Fig. 4 BERT sweep")
    p4.add_argument("--fast", action="store_true")
    p4.add_argument("--amp", action="store_true")
    p4.add_argument("--chart", action="store_true",
                    help="render as ASCII bars instead of a table")
    p5 = sub.add_parser("fig5", help="regenerate the Fig. 5 ResNet sweep")
    p5.add_argument("--chart", action="store_true",
                    help="render as ASCII bars instead of a table")
    sub.add_parser("table1", help="print the Table I feature matrix")
    pab = sub.add_parser("ablation", help="Sec. IV-C coarsening ablation")
    pab.add_argument("--fast", action="store_true")
    plv = sub.add_parser("loss-validation", help="Sec. IV-B loss validation")
    plv.add_argument("--steps", type=int, default=10)
    psc = sub.add_parser("schedule", help="render a pipeline schedule (Fig. 1)")
    psc.add_argument("--stages", type=int, default=4)
    psc.add_argument("--microbatches", type=int, default=8)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse arguments and dispatch to a subcommand."""
    args = build_parser().parse_args(argv)
    handler = {
        "plan": _cmd_plan,
        "verify": _cmd_verify,
        "serve": _cmd_serve,
        "serve-sim": _cmd_serve_sim,
        "fig4": _cmd_fig4,
        "fig5": _cmd_fig5,
        "table1": _cmd_table1,
        "ablation": _cmd_ablation,
        "loss-validation": _cmd_loss_validation,
        "schedule": _cmd_schedule,
    }[args.command]
    try:
        return handler(args)
    except ServiceError as exc:
        print(f"ERROR: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

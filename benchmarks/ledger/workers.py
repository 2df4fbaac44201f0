"""Child processes of the ledger, one per set-up the benchmark measures.

``paper``  plans shuffled rounds of the pinned presets in one process;
``gpt``    plans one large ``gpt3_like`` graph, like one ``repro plan`` call;
``serve``  installs the timing wrappers and then runs the plan server, so
           a traced server has the same process layout as an untraced
           ``python -m repro serve``.

``paper`` and ``gpt`` print one JSON object as their last stdout line.
Every time is taken on the system-wide monotonic clock, so the parent
can subtract its spawn time (``--spawn-at``) from the child's ready time.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from recorder import Recorder, install  # noqa: E402

#: pinned-fixture model name -> batch size
PAPER_MODELS = {
    "bert-base": 256,
    "bert-large": 256,
    "resnet50x8": 512,
}
CLUSTER_NODES = {"v100x8": 1, "v100x16": 2, "v100x32": 4}


def _now() -> int:
    return time.monotonic_ns()


def plan_summary(plan) -> dict:
    """The plan fields the ledger checks, from a ``PartitionPlan``."""
    return {
        "boundaries": [list(s.block_range) for s in plan.stages],
        "devices": [s.devices_per_pipeline for s in plan.stages],
        "microbatch_sizes": [s.microbatch_size for s in plan.stages],
        "num_microbatches": plan.num_microbatches,
        "replica_factor": plan.replica_factor,
    }


def _record(plan, t0, t1, **extra) -> dict:
    doc = {
        "plan_ms": (t1 - t0) / 1e6,
        "summary": plan_summary(plan),
        "throughput": plan.throughput,
        "memo_hit_rate": float(
            plan.diagnostics.profiler_memo_hit_rate or 0.0),
        "error": None,
    }
    doc.update(extra)
    return doc


def _build(model: str):
    from repro.models import BertConfig, ResNetConfig, build_bert, build_resnet

    if model == "bert-base":
        return build_bert(BertConfig(hidden_size=768, num_layers=12,
                                     num_heads=12))
    if model == "bert-large":
        return build_bert(BertConfig())
    return build_resnet(ResNetConfig(depth=50, width_factor=8))


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_paper(args) -> dict:
    """Closed loop, one caller: whole shuffled rounds of ``--combos``
    until ``--seconds`` have passed and at least ``--min-rounds`` ran."""
    rec = None
    if args.trace:
        rec = Recorder()
        install(rec)
    from repro.hardware import paper_cluster
    from repro.models import BertConfig, build_bert
    from repro.planner import PlannerConfig, plan_graph

    # untimed warm-up: loads the planner's lazy imports
    warm = build_bert(BertConfig(hidden_size=64, num_layers=2, num_heads=4))
    plan_graph(warm, paper_cluster(1), PlannerConfig(batch_size=32))
    if rec is not None:
        rec.spans.clear()
    ready = _now()
    rng = random.Random(args.seed)
    combos = args.combos.split(",")
    plans = []
    loop_start = _now()
    rounds = 0
    while rounds < args.min_rounds or _now() - loop_start < args.seconds * 1e9:
        order = list(combos)
        rng.shuffle(order)
        for key in order:
            model, cluster_name = key.split("/")
            b0 = _now()
            graph = _build(model)
            b1 = _now()
            cluster = paper_cluster(CLUSTER_NODES[cluster_name])
            config = PlannerConfig(batch_size=PAPER_MODELS[model])
            if rec is not None:
                rec.op = len(plans) + 1
            t0 = _now()
            try:
                plan = plan_graph(graph, cluster, config)
            except Exception as exc:  # counted in ``failed``, not fatal
                plans.append({"key": key, "error": repr(exc)})
                continue
            t1 = _now()
            plans.append(_record(plan, t0, t1, key=key,
                                 build_ms=(b1 - b0) / 1e6))
        rounds += 1
    return {
        "setup_s": (ready - args.spawn_at) / 1e9,
        "loop_s": (_now() - loop_start) / 1e9,
        "peak_rss_mib": _peak_rss_mib(),
        "plans": plans,
        "spans": rec.spans if rec is not None else [],
    }


def run_gpt(args) -> dict:
    """One cold plan of ``gpt3_like(depth)``, as a fresh process."""
    rec = None
    if args.trace:
        rec = Recorder()
        install(rec)
        rec.op = 1
    from repro.hardware import paper_cluster
    from repro.models import gpt3_like
    from repro.planner import PlannerConfig, plan_graph

    b0 = _now()
    graph = gpt3_like(depth=args.depth)
    ready = _now()
    cluster = paper_cluster(args.nodes)
    config = PlannerConfig(batch_size=args.batch, num_blocks=args.blocks)
    t0 = _now()
    try:
        plan = plan_graph(graph, cluster, config)
    except Exception as exc:  # counted in ``failed``, not fatal
        plans = [{"error": repr(exc)}]
    else:
        plans = [_record(plan, t0, _now(), build_ms=(ready - b0) / 1e6)]
    return {
        "setup_s": (ready - args.spawn_at) / 1e9,
        "peak_rss_mib": _peak_rss_mib(),
        "plans": plans,
        "spans": rec.spans if rec is not None else [],
    }


def run_serve(args) -> int:
    """``repro serve`` with the timing wrappers installed; the spans are
    written to ``--spans-out`` once the server has drained."""
    rec = Recorder(single_caller=False)
    install(rec)
    from repro.service.server import serve

    try:
        return serve(port=args.port, workers=args.workers,
                     cache_dir=args.cache_dir)
    finally:
        Path(args.spans_out).write_text(json.dumps(rec.spans))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="kind", required=True)
    paper = sub.add_parser("paper")
    paper.add_argument("--combos", required=True)
    paper.add_argument("--seconds", type=float, required=True)
    paper.add_argument("--min-rounds", type=int, required=True)
    gpt = sub.add_parser("gpt")
    gpt.add_argument("--depth", type=int, required=True)
    gpt.add_argument("--blocks", type=int, required=True)
    gpt.add_argument("--batch", type=int, required=True)
    gpt.add_argument("--nodes", type=int, required=True)
    for p in (paper, gpt):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trace", type=int, default=0)
        p.add_argument("--spawn-at", type=int, required=True)
    serve = sub.add_parser("serve")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--cache-dir", required=True)
    serve.add_argument("--spans-out", required=True)
    args = ap.parse_args(argv)
    if args.kind == "serve":
        return run_serve(args)
    doc = run_paper(args) if args.kind == "paper" else run_gpt(args)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

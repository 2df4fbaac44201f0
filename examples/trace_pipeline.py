#!/usr/bin/env python
"""End-to-end observability: trace a plan, the simulated pipeline, and
real execution into one Perfetto file.

Walks the whole surface of ``repro.obs``:

1. plan a small BERT with ``PlannerConfig(trace=True)`` — the planner
   records pass spans, Algorithm-2 search-level spans, per-(S, MB)
   Algorithm-1 spans, and the ``dp.*`` / ``profiler.*`` metrics;
2. rebuild the iteration timeline of the winning plan (one track per
   pipeline stage, forward/backward colour-coded);
3. actually execute a forward/backward step of the graph on the NumPy
   runtime with an opt-in execution tracer (``exec.task`` span per
   kernel);
4. export everything — both tracers, the timeline, and the metrics —
   into a single ``trace.json`` to open at https://ui.perfetto.dev.

Run:  python examples/trace_pipeline.py [--out trace.json]

See docs/OBSERVABILITY.md for the span/metric naming scheme and a
walkthrough of the resulting trace.
"""

import argparse
import json

import numpy as np

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.obs import Tracer, chrome_trace, spans_to_trace_events
from repro.pipeline.timeline import plan_timeline, render_gantt
from repro.planner import PlannerConfig, PlanningContext
from repro.runtime import Executor


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="trace.json")
    args = ap.parse_args()

    # ------------------------------------------------------------------
    # 1. plan with tracing on
    graph = build_bert(BertConfig(hidden_size=128, num_layers=4,
                                  num_heads=4, seq_len=32, vocab_size=1000))
    cluster = paper_cluster(num_nodes=1)
    config = PlannerConfig(batch_size=64, trace=True)
    ctx = PlanningContext(graph, cluster, config)
    plan = ctx.run()
    print(plan.summary())

    dp_spans = ctx.tracer.spans("partitioner.dp")
    snap = ctx.metrics.snapshot()
    print(f"\nplanner: {len(ctx.tracer)} spans "
          f"({len(dp_spans)} Algorithm-1 calls), "
          f"{snap['dp.states_evaluated']} DP states, "
          f"profiler memo hits {snap['profiler.memo_hits']:.0f}")

    # ------------------------------------------------------------------
    # 2. the simulated pipeline iteration as a timeline
    timeline = plan_timeline(plan)
    print(f"\nsimulated iteration ({timeline.num_stages} stages, "
          f"{timeline.num_microbatches} microbatches, "
          f"bubble {timeline.bubble_fraction() * 100:.1f}%):")
    print(render_gantt(timeline, width=64))

    # ------------------------------------------------------------------
    # 3. execute one real step with an execution tracer
    exec_tracer = Tracer()
    ex = Executor(graph, tracer=exec_tracer)
    rng = np.random.default_rng(0)
    batch_size = 2
    inputs = {
        "input_ids": rng.integers(0, 1000, (batch_size, 32)),
        "token_type_ids": rng.integers(0, 2, (batch_size, 32)),
        "attention_mask": np.zeros((batch_size, 1, 1, 32)),
        "mlm_labels": rng.integers(0, 1000, (batch_size, 32)),
        "nsp_labels": rng.integers(0, 2, (batch_size,)),
    }
    loss, grads = ex.loss_and_grads(inputs)
    tasks = [s for s in exec_tracer.spans() if s.name == "exec.task"]
    print(f"\nexecuted one step: loss={loss:.4f}, "
          f"{len(tasks)} kernel spans, {len(grads)} gradients")

    # ------------------------------------------------------------------
    # 4. one trace file with planner (pid 1), pipeline (pid 2) and
    #    runtime (pid 3) processes
    doc = chrome_trace(tracer=ctx.tracer, timeline=timeline,
                       metrics=ctx.metrics)
    doc["traceEvents"].extend(
        spans_to_trace_events(exec_tracer.spans(), pid=3,
                              process_name="runtime (numpy)")
    )
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"\n{len(doc['traceEvents'])} events -> {args.out}")
    print("open it at https://ui.perfetto.dev (or chrome://tracing)")


if __name__ == "__main__":
    main()

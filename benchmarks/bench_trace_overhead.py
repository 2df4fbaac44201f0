"""Cost of the observability layer.

Two questions, answered with best-of-N wall times:

1. **Planner, tracing off** (the default): pass spans and ``dp.*``
   counters are always recorded — is ``auto_partition`` still within
   the ≤2% budget of the pre-instrumentation baseline?  (CI's ``bench``
   job tracks the absolute numbers via ``BENCH_partition.json``.)
2. **Planner, tracing on** (``PlannerConfig(trace=True)``): what do the
   fine-grained ``search.level`` / ``dp.form_stage_dp`` spans add?

Run::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py
"""

import argparse
import json
import sys
import time

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.planner import PlannerConfig, PlanningContext


def best_of(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def time_plan(graph, cluster, trace, rounds):
    def run():
        config = PlannerConfig(batch_size=256, trace=trace)
        ctx = PlanningContext(graph, cluster, config)
        ctx.run()
        return ctx

    return best_of(run, rounds)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out", default=None, help="write JSON snapshot here")
    args = ap.parse_args(argv)

    cluster = paper_cluster()
    graph = build_bert(BertConfig())  # BERT-Large, the Fig. 4 anchor

    off = time_plan(graph, cluster, trace=False, rounds=args.rounds)
    on = time_plan(graph, cluster, trace=True, rounds=args.rounds)
    overhead = (on - off) / off * 100.0

    print(f"auto_partition (BERT-Large, BS=256), best of {args.rounds}:")
    print(f"  trace=False : {off * 1e3:8.1f} ms")
    print(f"  trace=True  : {on * 1e3:8.1f} ms  ({overhead:+.1f}%)")

    if args.out:
        doc = {
            "workload": "bert-large-bs256",
            "rounds": args.rounds,
            "trace_off_s": off,
            "trace_on_s": on,
            "trace_overhead_pct": overhead,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"snapshot -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Cost of plan-integrity verification.

``VerifyPass`` runs on every ``auto_partition`` by default (ISSUE
acceptance bar: <5% plan-time overhead on BERT-Large).  This bench
times the full planning pipeline with ``verify=True`` vs
``verify=False`` and reports the delta, best-of-N.

Run::

    PYTHONPATH=src python benchmarks/bench_verify_overhead.py
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


def time_plan(graph, cluster, verify, rounds):
    def run():
        config = PlannerConfig(batch_size=256, verify=verify)
        ctx = PlanningContext(graph, cluster, config)
        ctx.run()
        return ctx

    return best_of(run, rounds)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--budget-pct", type=float, default=5.0,
                    help="fail (exit 1) if overhead exceeds this")
    ap.add_argument("--out", default=None, help="write JSON snapshot here")
    args = ap.parse_args(argv)

    cluster = paper_cluster()
    graph = build_bert(BertConfig())  # BERT-Large, the Fig. 4 anchor

    off = time_plan(graph, cluster, verify=False, rounds=args.rounds)
    on = time_plan(graph, cluster, verify=True, rounds=args.rounds)
    overhead = (on - off) / off * 100.0

    print(f"auto_partition (BERT-Large, BS=256), best of {args.rounds}:")
    print(f"  verify=False : {off * 1e3:8.1f} ms")
    print(f"  verify=True  : {on * 1e3:8.1f} ms  ({overhead:+.1f}%)")
    ok = overhead <= args.budget_pct
    print(f"  budget {args.budget_pct:.1f}% : {'OK' if ok else 'EXCEEDED'}")

    if args.out:
        doc = {
            "workload": "bert-large-bs256",
            "rounds": args.rounds,
            "verify_off_s": off,
            "verify_on_s": on,
            "verify_overhead_pct": overhead,
            "budget_pct": args.budget_pct,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"snapshot -> {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

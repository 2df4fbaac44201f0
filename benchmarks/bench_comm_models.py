"""Planning cost of the topology communication model vs. the flat one.

A topology cluster routes every p2p/allreduce price through the
link-level network model (ISSUE acceptance bar: <=10% plan-time
overhead over the flat closed forms on BERT-Large / v100x32).  This
bench times full planning under both models, best-of-N, reports the
overhead against the budget, and records the predicted iteration-time
deltas -- the *reason* to pay the overhead: the topology model picks
real collective algorithms instead of one closed form.

Run::

    PYTHONPATH=src python benchmarks/bench_comm_models.py
"""

import argparse
import json
import sys
import time

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.planner import PlannerConfig, PlanningContext
from repro.planner.context import EVALUATED


def best_of(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def plan_under(graph, cluster, comm_model):
    config = PlannerConfig(batch_size=256, verify=False)
    ctx = PlanningContext(graph, cluster.with_comm_model(comm_model), config)
    ctx.run()
    return ctx.require(EVALUATED)


def time_plan(graph, cluster, comm_model, rounds):
    return best_of(lambda: plan_under(graph, cluster, comm_model), rounds)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--budget-pct", type=float, default=10.0,
                    help="fail (exit 1) if plan-time overhead exceeds this")
    ap.add_argument("--out", default=None, help="write JSON snapshot here")
    args = ap.parse_args(argv)

    cluster = paper_cluster(4)  # v100x32, the Fig. 4 anchor
    graph = build_bert(BertConfig())  # BERT-Large

    flat_s = time_plan(graph, cluster, "flat", rounds=args.rounds)
    topo_s = time_plan(graph, cluster, "topology", rounds=args.rounds)
    overhead = (topo_s - flat_s) / flat_s * 100.0

    flat_plan = plan_under(graph, cluster, "flat")
    topo_plan = plan_under(graph, cluster, "topology")
    iter_delta_pct = (
        (topo_plan.iteration_time - flat_plan.iteration_time)
        / flat_plan.iteration_time * 100.0
    )

    print(f"auto_partition (BERT-Large, v100x32, BS=256), "
          f"best of {args.rounds}:")
    print(f"  comm_model=flat     : {flat_s * 1e3:8.1f} ms")
    print(f"  comm_model=topology : {topo_s * 1e3:8.1f} ms  "
          f"({overhead:+.1f}%)")
    ok = overhead <= args.budget_pct
    print(f"  budget {args.budget_pct:.1f}% : {'OK' if ok else 'EXCEEDED'}")
    print(f"  predicted iteration : flat {flat_plan.iteration_time * 1e3:.1f} ms, "
          f"topology {topo_plan.iteration_time * 1e3:.1f} ms "
          f"({iter_delta_pct:+.1f}%, "
          f"allreduce={topo_plan.diagnostics.allreduce_algorithm})")

    if args.out:
        doc = {
            "workload": "bert-large-v100x32-bs256",
            "rounds": args.rounds,
            "flat_plan_s": flat_s,
            "topology_plan_s": topo_s,
            "plan_overhead_pct": overhead,
            "budget_pct": args.budget_pct,
            "flat_iteration_s": flat_plan.iteration_time,
            "topology_iteration_s": topo_plan.iteration_time,
            "iteration_delta_pct": iter_delta_pct,
            "topology_allreduce_algorithm": (
                topo_plan.diagnostics.allreduce_algorithm
            ),
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"snapshot -> {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

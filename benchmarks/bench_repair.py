"""Repair-latency snapshot: in-place plan repair vs full delta replan.

When a running job loses a node (or is granted one), the scheduler has
two ways to get a valid plan for the new cluster:

* **replan** — :func:`repro.planner.replan` against the previous run's
  artifact store: reuses the atomic partition, coarsening and profile
  tensors but reruns the stage search from scratch on the new cluster;
* **repair** — :func:`repro.planner.repair`: keeps the deployed stage
  boundaries and device counts, recomputes the replica factor,
  re-optimizes the microbatch count, prices the parameter migrations
  with the max-min-fair transfer simulator, and re-verifies.

The repair skips the stage search entirely, so it should be a small
fraction of even a warm replan.  CI enforces that: across the suite
(bert-base and bert-large, node-loss and scale-up events on the paper
cluster) total repair latency must cost at most 60 % of total replan
latency, or this script exits non-zero.  Every repaired plan must also
re-verify with zero violations — a fast wrong plan fails the run.

Usage::

    PYTHONPATH=src python benchmarks/bench_repair.py --out BENCH_repair.json
"""

import argparse
import json
import sys
import time

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.planner import (
    NodeLoss,
    PlannerConfig,
    PlanningContext,
    ScaleUp,
    ensure_store,
    repair,
    replan,
)
from repro.verify import check_plan

#: total repair time may cost at most this fraction of the total
#: delta-replan time across the suite
REPAIR_BUDGET = 0.60

MODELS = {
    "bert-base": (
        lambda: build_bert(
            BertConfig(hidden_size=768, num_layers=12, num_heads=12)
        ),
        256,
    ),
    "bert-large": (lambda: build_bert(BertConfig()), 256),
}

EVENTS = {
    "node_loss": lambda: NodeLoss(1),
    "scale_up": lambda: ScaleUp(1),
}


def bench_model(name, build, batch_size, rounds):
    graph = build()
    cluster = paper_cluster(4)
    config = PlannerConfig(batch_size=batch_size)

    # the deployed run both paths start from
    prev_ctx = PlanningContext(graph, cluster, config)
    prev_ctx.run()

    rows = {}
    for event_name, make_event in EVENTS.items():
        event = make_event()
        target = event.apply(cluster)

        repair_walls, result = [], None
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = repair(prev_ctx, event)
            repair_walls.append(time.perf_counter() - t0)
        report = check_plan(result.plan, graph)
        assert report.ok and not report.violations, (
            f"{name}/{event_name}: repaired plan failed verification: "
            f"{report.violations[:3]}"
        )

        replan_walls = []
        for _ in range(rounds):
            # fresh store each round: otherwise round 2 would reuse the
            # target cluster's search results and measure the no-change
            # case.  Seeding is outside the timer -- it happens once per
            # previous run, not once per event.
            prev_ctx.store = None
            ensure_store(prev_ctx)
            t0 = time.perf_counter()
            replan(prev_ctx, cluster=target)
            replan_walls.append(time.perf_counter() - t0)

        rows[event_name] = {
            "repair_s": min(repair_walls),
            "replan_s": min(replan_walls),
            "repair_over_replan": min(repair_walls) / min(replan_walls),
            "used_full_replan": result.used_full_replan,
            "migrated_pairs": result.migrated_pairs,
            "migration_bytes": result.migration_bytes,
            "migration_time_s": result.migration_time,
            "verified": True,
        }
    return {"batch_size": batch_size, "rounds": rounds, "events": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repair vs full-replan latency snapshot"
    )
    parser.add_argument("--out", default="BENCH_repair.json")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)

    doc = {}
    total_repair = total_replan = 0.0
    for name, (build, batch_size) in MODELS.items():
        row = bench_model(name, build, batch_size, args.rounds)
        doc[name] = row
        for event_name, ev in row["events"].items():
            total_repair += ev["repair_s"]
            total_replan += ev["replan_s"]
            print(
                f"{name:<12} {event_name:<10} "
                f"repair={ev['repair_s'] * 1000:.1f}ms "
                f"replan={ev['replan_s'] * 1000:.1f}ms "
                f"(repair/replan={ev['repair_over_replan']:.1%}, "
                f"migrated={ev['migrated_pairs']})",
                file=sys.stderr,
            )

    ratio = total_repair / total_replan
    ok = ratio <= REPAIR_BUDGET
    doc["budget"] = {
        "repair_over_replan_max": REPAIR_BUDGET,
        "total_repair_s": total_repair,
        "total_replan_s": total_replan,
        "total_repair_over_replan": ratio,
    }
    print(
        f"suite        repair/replan={ratio:.1%} "
        f"(budget {REPAIR_BUDGET:.0%}: {'OK' if ok else 'FAIL'})",
        file=sys.stderr,
    )
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"snapshot written to {args.out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

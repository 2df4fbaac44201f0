"""Replanning-latency snapshot: cold vs cache hit vs delta replan.

Three ways to obtain a plan for BERT on the paper cluster after the
cluster grows from 2 to 4 nodes:

* **cold** — a fresh ``auto_partition`` run (full three-phase search);
* **cache_hit** — the same call again with a ``cache_dir``: a fresh
  process's artifact store serves the finished plan from its one disk
  entry (fingerprint chain + JSON restore + verification on decode);
* **delta** — a run on the new cluster over the previous run's artifact
  store (:func:`repro.planner.ensure_store`), which reuses the atomic partition, the coarsening and
  the profile tensors and reruns only the stage search onward.

The cache hit is the floor (nothing recomputed) and only exists when
*nothing* changed; the delta replan is the interesting number, because
it survives input changes.  CI enforces the PR budget: across the
benchmark suite the delta replans must cost at most 50 % of the cold
runs (the profiling and coarsening they skip are the point), or this
script exits non-zero.  Per-model ratios are reported alongside; note
that with this repo's *analytic* profiler the smallest model is
search-dominated (the DP over the new cluster's candidate space is
exact and cannot be reused), so its individual ratio sits near the
structural floor ``search / (search + coarsen + profile)`` -- on real
hardware, where profiling dwarfs the search, the gap widens.

Usage::

    PYTHONPATH=src python benchmarks/bench_replan.py --out BENCH_replan.json
"""

import argparse
import json
import shutil
import sys
import tempfile
import time

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner import auto_partition
from repro.partitioner.deployment import plan_to_json
from repro.planner import PlannerConfig, PlanningContext, ensure_store

#: total delta-replan time may cost at most this fraction of the total
#: cold time across the suite
DELTA_BUDGET = 0.50

MODELS = {
    "bert-base": (
        lambda: build_bert(
            BertConfig(hidden_size=768, num_layers=12, num_heads=12)
        ),
        256,
    ),
    "bert-large": (lambda: build_bert(BertConfig()), 256),
}


def bench_model(name, build, batch_size, rounds):
    graph = build()
    prev_cluster = paper_cluster(2)
    target_cluster = paper_cluster(4)
    config = PlannerConfig(batch_size=batch_size)

    # the previous run whose artifacts the delta replans reuse
    prev_ctx = PlanningContext(graph, prev_cluster, config)
    prev_ctx.run()

    cold_walls, cold_plan = [], None
    for _ in range(rounds):
        t0 = time.perf_counter()
        cold_plan = auto_partition(graph, target_cluster, batch_size)
        cold_walls.append(time.perf_counter() - t0)

    cache_dir = tempfile.mkdtemp(prefix="bench_replan_")
    try:
        auto_partition(
            graph, target_cluster, batch_size, cache_dir=cache_dir
        )
        hit_walls = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            hit = auto_partition(
                graph, target_cluster, batch_size, cache_dir=cache_dir
            )
            hit_walls.append(time.perf_counter() - t0)
        assert hit.diagnostics.cache_hit
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    delta_walls, reused = [], None
    for _ in range(rounds):
        # fresh store each round: otherwise round 2 would also reuse the
        # target cluster's search results and measure the no-change case.
        # Seeding is outside the timer -- it happens once per previous
        # run, not once per replan.
        prev_ctx.store = None
        ctx = PlanningContext(
            graph, target_cluster, config, store=ensure_store(prev_ctx)
        )
        t0 = time.perf_counter()
        delta_plan = ctx.run()
        delta_walls.append(time.perf_counter() - t0)
        reused = [e.name for e in ctx.events if e.detail.get("reuse")]

    # reuse must not change the plan: bit-identical to the cold run
    assert plan_to_json(delta_plan, graph) == plan_to_json(cold_plan, graph)
    assert reused == ["atomic_partition", "coarsen", "profile_tensors"]

    return {
        "batch_size": batch_size,
        "cold_s": min(cold_walls),
        "cache_hit_s": min(hit_walls),
        "delta_s": min(delta_walls),
        "delta_over_cold": min(delta_walls) / min(cold_walls),
        "passes_reused": reused,
        "rounds": rounds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cold vs cache-hit vs delta-replan latency snapshot"
    )
    parser.add_argument("--out", default="BENCH_replan.json")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)

    doc = {}
    total_cold = total_delta = 0.0
    for name, (build, batch_size) in MODELS.items():
        row = bench_model(name, build, batch_size, args.rounds)
        doc[name] = row
        total_cold += row["cold_s"]
        total_delta += row["delta_s"]
        print(
            f"{name:<12} cold={row['cold_s']:.3f}s "
            f"cache_hit={row['cache_hit_s']:.3f}s "
            f"delta={row['delta_s']:.3f}s "
            f"(delta/cold={row['delta_over_cold']:.1%})",
            file=sys.stderr,
        )

    ratio = total_delta / total_cold
    ok = ratio <= DELTA_BUDGET
    doc["budget"] = {
        "delta_over_cold_max": DELTA_BUDGET,
        "total_cold_s": total_cold,
        "total_delta_s": total_delta,
        "total_delta_over_cold": ratio,
    }
    print(
        f"suite        delta/cold={ratio:.1%} "
        f"(budget {DELTA_BUDGET:.0%}: {'OK' if ok else 'FAIL'})",
        file=sys.stderr,
    )
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"snapshot written to {args.out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

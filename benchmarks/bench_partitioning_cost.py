"""Partitioning cost itself: time to auto-partition each paper model.

Not a paper figure, but the paper's practicality claim ("Rapid" Neural
Network Connector) rests on the search finishing quickly; this benchmark
records end-to-end auto_partition wall time per workload, using
pytest-benchmark's statistics on repeated runs for the smallest model.

Run directly to emit a machine-readable perf snapshot::

    PYTHONPATH=src python benchmarks/bench_partitioning_cost.py \
        --out BENCH_partition.json

The JSON records wall time, the ``coarsen`` and ``stage_search`` pass
times (``coarsen_s``, ``stage_search_s``, from
``plan.diagnostics.pass_timings``), ``dp_calls`` and ``states_evaluated``
per workload so CI can archive the partitioning-cost trajectory across
commits (see the ``bench`` job in ``.github/workflows/ci.yml``).  The
workloads run on the paper's 32-GPU cluster, except ``bert_large_mixed``:
BERT-Large on the mixed V100/A100 cluster with a 1.25x V100 straggler,
which times the heterogeneous stage search (per-slot memory caps and
speeds).
"""

import argparse
import json
import sys
import time

import pytest

from repro.hardware import mixed_cluster, paper_cluster
from repro.models import BertConfig, ResNetConfig, build_bert, build_resnet
from repro.partitioner import auto_partition


def test_partition_bert_large(benchmark):
    cluster = paper_cluster()
    graph = build_bert(BertConfig())

    plan = benchmark.pedantic(
        lambda: auto_partition(graph, cluster, 256),
        rounds=3, iterations=1,
    )
    assert plan.throughput > 0


@pytest.mark.parametrize(
    "hidden,layers", [(1536, 96), (2048, 192)], ids=["2.8B", "9.7B"]
)
def test_partition_large_bert(once, hidden, layers):
    cluster = paper_cluster()
    graph = build_bert(BertConfig(hidden_size=hidden, num_layers=layers))
    plan = once(auto_partition, graph, cluster, 256)
    assert plan.throughput > 0


def test_partition_resnet152x8(once):
    cluster = paper_cluster()
    graph = build_resnet(ResNetConfig(depth=152, width_factor=8))
    plan = once(auto_partition, graph, cluster, 512)
    assert plan.throughput > 0


# ----------------------------------------------------------------------
# standalone snapshot mode (CI artifact)

# name -> (graph builder, batch size, cluster builder)
SMALL_WORKLOADS = {
    "bert_large": (lambda: build_bert(BertConfig()), 256, paper_cluster),
    "bert_large_mixed": (
        lambda: build_bert(BertConfig()), 256,
        lambda: mixed_cluster(straggler_factor=1.25),
    ),
    "resnet50x8": (
        lambda: build_resnet(ResNetConfig(depth=50, width_factor=8)), 512,
        paper_cluster,
    ),
}

FULL_WORKLOADS = {
    **SMALL_WORKLOADS,
    "bert_2.8B": (
        lambda: build_bert(BertConfig(hidden_size=1536, num_layers=96)), 256,
        paper_cluster,
    ),
    "bert_9.7B": (
        lambda: build_bert(BertConfig(hidden_size=2048, num_layers=192)),
        256, paper_cluster,
    ),
    "resnet152x8": (
        lambda: build_resnet(ResNetConfig(depth=152, width_factor=8)), 512,
        paper_cluster,
    ),
}


def run_snapshot(workloads, rounds: int = 3) -> dict:
    """Partition every workload, keeping the best of ``rounds`` wall
    and pass times (graph construction is excluded from the timed
    region)."""
    doc = {}
    for name, (build, batch_size, build_cluster) in workloads.items():
        graph = build()
        cluster = build_cluster()
        walls = []
        passes = {"coarsen": [], "stage_search": []}
        plan = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            plan = auto_partition(graph, cluster, batch_size)
            walls.append(time.perf_counter() - t0)
            for pass_name, times in passes.items():
                times.append(plan.diagnostics.pass_timings[pass_name])
        diag = plan.diagnostics
        doc[name] = {
            "wall_time_s": min(walls),
            "wall_times_s": walls,
            "coarsen_s": min(passes["coarsen"]),
            "stage_search_s": min(passes["stage_search"]),
            "batch_size": batch_size,
            "dp_calls": int(diag.dp_calls),
            "states_evaluated": int(diag.states_evaluated),
            "candidates_tried": int(diag.candidates_tried),
            "num_stages": plan.num_stages,
            "throughput": plan.throughput,
        }
        print(
            f"{name:<16} wall={min(walls):.3f}s "
            f"coarsen={doc[name]['coarsen_s']:.3f}s "
            f"stage_search={doc[name]['stage_search_s']:.3f}s "
            f"dp_calls={doc[name]['dp_calls']} "
            f"states={doc[name]['states_evaluated']}",
            file=sys.stderr,
        )
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="emit a partitioning-cost snapshot as JSON"
    )
    parser.add_argument("--out", default="BENCH_partition.json")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--full", action="store_true",
        help="include the multi-billion-parameter workloads (slow)",
    )
    parser.add_argument(
        "--budget-bert-large", type=float, default=None, metavar="SECONDS",
        help="fail when the best BERT-Large wall time exceeds this bound "
        "(CI's end-to-end planning-time gate)",
    )
    args = parser.parse_args(argv)
    workloads = FULL_WORKLOADS if args.full else SMALL_WORKLOADS
    doc = run_snapshot(workloads, rounds=args.rounds)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}", file=sys.stderr)
    if args.budget_bert_large is not None:
        wall = doc["bert_large"]["wall_time_s"]
        if wall > args.budget_bert_large:
            print(
                f"FAIL: bert_large plan time {wall:.2f}s exceeds the "
                f"{args.budget_bert_large:.2f}s budget",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: bert_large plan time {wall:.2f}s within "
            f"{args.budget_bert_large:.2f}s budget",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

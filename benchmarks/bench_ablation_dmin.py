"""Ablation (DESIGN.md choice #1): the d_min pruning rule of Algorithm 1.

The paper: "we incrementally update the minimum number of accelerator
devices d_min ... this significantly reduces the search space".  Measures
DP states evaluated and wall time with and without the rule on a
memory-tight configuration, asserting identical solutions.
"""

import time

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import block_partition
from repro.partitioner.stage_dp import DPContext, form_stage_dp
from repro.profiler import GraphProfiler


def test_dmin_pruning(once):
    cluster = paper_cluster()
    # a memory-tight model so the DP actually hits memory dead ends
    graph = build_bert(BertConfig(hidden_size=2048, num_layers=144))
    profiler = GraphProfiler(graph, cluster)
    blocks = block_partition(
        graph, atomic_partition(graph), profiler, num_blocks=32
    )

    def run(pruning):
        ctx = DPContext(graph, blocks, profiler, 256)
        t0 = time.perf_counter()
        # one sweep answers all 8 stage counts of the node level
        sweep = form_stage_dp(
            ctx, range(1, 9), 8, 256, 4, 16, dmin_pruning=pruning
        )
        sols = [sweep[S] for S in range(1, 9)]
        return sols, ctx.states_evaluated, time.perf_counter() - t0

    def both():
        return run(True), run(False)

    (sols_p, states_p, t_p), (sols_n, states_n, t_n) = once(both)
    print(
        f"\nwith d_min: {states_p} states {t_p:.2f}s | "
        f"without: {states_n} states {t_n:.2f}s"
    )
    # identical feasibility and objectives
    for a, b in zip(sols_p, sols_n):
        assert (a is None) == (b is None)
        if a is not None:
            assert abs(a.objective - b.objective) < 1e-12
    # pruning must cut the evaluated state count
    assert states_p < states_n

"""Ablation (DESIGN.md choice #1): the d_min pruning rule of Algorithm 1.

The paper: "we incrementally update the minimum number of accelerator
devices d_min ... this significantly reduces the search space".  The
rule trims the cells a one-by-one loop visits, so only the pure-Python
reference (``tests/partitioner/oracles.py``) still applies it; the
engine reduces whole grids and counts every cell inside its bounds
(DESIGN.md D1b).  On a memory-tight configuration this compares, per
stage count, the cells the reference's pruned loop visits with the
engine's ``states_evaluated``, asserting identical answers, and prints
the engine's one-sweep count for all stage counts alongside.
"""

import sys
import time
from pathlib import Path

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import block_partition
from repro.partitioner.stage_dp import DPContext, DPRun, form_stage_dp
from repro.profiler import GraphProfiler

# the reference lives with the tests, at the repository root
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.partitioner.oracles import reference_dp_visits  # noqa: E402

STAGE_COUNTS = range(2, 9)
D, BS, R, MB = 8, 256, 4, 16


def answer(sol):
    if sol is None:
        return None
    return (sol.boundaries, sol.device_counts, sol.objective,
            sol.max_tf, sol.max_tb)


def test_dmin_pruning(once):
    cluster = paper_cluster()
    # a memory-tight model so the loop actually hits memory dead ends
    graph = build_bert(BertConfig(hidden_size=2048, num_layers=144))
    profiler = GraphProfiler(graph, cluster)
    blocks = block_partition(
        graph, atomic_partition(graph), profiler, cluster, num_blocks=32
    )

    def fresh():
        return DPRun(DPContext(graph, blocks, profiler, BS), cluster)

    def run():
        rows = []
        for S in STAGE_COUNTS:
            ctx = fresh()
            t0 = time.perf_counter()
            ref, visited = reference_dp_visits(ctx, S, D, BS, R, MB)
            t_ref = time.perf_counter() - t0
            ctx = fresh()
            t0 = time.perf_counter()
            sol = form_stage_dp(ctx, range(S, S + 1), D, R, MB)[S]
            t_dp = time.perf_counter() - t0
            rows.append((S, answer(ref), answer(sol), visited,
                         ctx.states_evaluated, t_ref, t_dp))
        sweep_ctx = fresh()
        sweep = form_stage_dp(sweep_ctx, STAGE_COUNTS, D, R, MB)
        return rows, sweep, sweep_ctx.states_evaluated

    rows, sweep, sweep_states = once(run)
    print("\n  S  d_min loop  engine   loop s  engine s")
    for S, _, _, visited, states, t_ref, t_dp in rows:
        print(f"{S:3d} {visited:11d} {states:7d} {t_ref:8.2f} {t_dp:9.3f}")
    visited = sum(row[3] for row in rows)
    states = sum(row[4] for row in rows)
    print(f"total: d_min loop {visited} cells | engine {states} states "
          f"per stage count, {sweep_states} in one sweep for all of them")
    for S, ref, sol, *_ in rows:
        # identical answers, field for field, per call and in the sweep
        assert ref == sol, S
        assert answer(sweep[S]) == sol, S
    assert any(ref is not None for _, ref, *_ in rows)
    # the rule cuts the cells a one-by-one loop visits
    assert visited < states

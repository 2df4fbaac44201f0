"""Ablation (DESIGN.md choice #6): the vectorized Algorithm-1 evaluator
vs. the pure-Python reference.

``form_stage_dp`` evaluates Algorithm 1 on one path -- banded profiles,
every replica plane of a ``d'`` column reduced in one pass -- and must
match the pure-Python transcription ``reference_form_stage_dp`` exactly
(also property-tested in the unit suite) while being substantially
faster.  This benchmark quantifies the speedup on a realistic 16-block
BERT instance.
"""

import time

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import block_partition
from repro.partitioner.stage_dp import (
    DPContext,
    form_stage_dp,
    reference_form_stage_dp,
)
from repro.profiler import GraphProfiler


def test_dp_engine_equivalence_and_speed(once):
    cluster = paper_cluster()
    graph = build_bert(BertConfig(hidden_size=1024, num_layers=48))
    profiler = GraphProfiler(graph, cluster)
    blocks = block_partition(
        graph, atomic_partition(graph), profiler, num_blocks=16
    )
    ctx = DPContext(graph, blocks, profiler, 256)

    def both():
        t0 = time.perf_counter()
        fast = form_stage_dp(ctx, 4, 8, 256, 4, 8)
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref = reference_form_stage_dp(ctx, 4, 8, 256, 4, 8)
        t_ref = time.perf_counter() - t0
        return fast, t_fast, ref, t_ref

    fast, t_fast, ref, t_ref = once(both)
    print(f"\nvectorized: {t_fast * 1e3:.1f} ms  reference: {t_ref * 1e3:.1f} ms")
    assert fast is not None and ref is not None
    assert abs(fast.objective - ref.objective) < 1e-12
    assert fast.boundaries == ref.boundaries
    assert fast.device_counts == ref.device_counts

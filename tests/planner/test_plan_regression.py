"""Regression guard for the pass-based refactor: ``auto_partition`` must
produce exactly the plan the pre-refactor monolithic implementation
produced for the paper's reference workloads on ``paper_cluster()``.

The expected values are a snapshot of the seed implementation's output
(commit 6797369) for BERT-Base at batch 256 and ResNet-50x8 at batch
512; they are deterministic functions of the analytic cost model.
"""

import pytest

from repro.hardware import paper_cluster
from repro.models import BertConfig, ResNetConfig, build_bert, build_resnet
from repro.partitioner import auto_partition


@pytest.mark.parametrize(
    "name,build,batch_size,boundaries,devices,microbatches,replicas",
    [
        (
            "bert_base",
            lambda: build_bert(
                BertConfig(hidden_size=768, num_layers=12, num_heads=12)
            ),
            256,
            [(0, 32)],
            [8],
            1,
            4,
        ),
        (
            "resnet50x8",
            lambda: build_resnet(ResNetConfig(depth=50, width_factor=8)),
            512,
            [(0, 22), (22, 32)],
            [5, 3],
            16,
            4,
        ),
    ],
    ids=["bert_base", "resnet50x8"],
)
def test_plan_matches_pre_refactor_output(
    name, build, batch_size, boundaries, devices, microbatches, replicas
):
    plan = auto_partition(build(), paper_cluster(), batch_size)
    assert [s.block_range for s in plan.stages] == boundaries
    assert [s.devices_per_pipeline for s in plan.stages] == devices
    assert plan.num_microbatches == microbatches
    assert plan.replica_factor == replicas
    assert plan.throughput > 0


def test_bert_base_full_snapshot():
    """Finer-grained snapshot of the BERT-Base plan: microbatch sizes and
    the search statistics the old ``extras`` dict reported."""
    graph = build_bert(BertConfig(hidden_size=768, num_layers=12,
                                  num_heads=12))
    plan = auto_partition(graph, paper_cluster(), 256)
    assert [s.microbatch_size for s in plan.stages] == [8]
    # one DP sweep per microbatch count (1..64) answers all 8 stage
    # counts of the node level; of the 45 feasible (S, MB) candidates,
    # the sweep bounds keep 9 for ranking (DESIGN.md D2c)
    assert plan.diagnostics.dp_calls == 7
    assert plan.diagnostics.candidates_tried == 9
    assert plan.diagnostics.num_blocks == 32
    assert plan.diagnostics.num_atomic_components == 343
    assert plan.iteration_time == pytest.approx(0.499316, rel=1e-3)

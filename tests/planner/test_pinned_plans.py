"""Bit-identity guard for the communication-model refactor.

``tests/data/pinned_plans.json`` is a snapshot of ``auto_partition``
output taken on pre-``repro.comm`` main for the paper's three reference
models across the v100x8/16/32 presets.  Under the default
``comm_model="flat"`` the delegation through :mod:`repro.comm` must
reproduce every plan *exactly* -- same boundaries, same device counts,
and floating-point-equal iteration times -- because the flat model is
the legacy arithmetic, expression for expression.
"""

import json
from pathlib import Path

import pytest

from repro.hardware import paper_cluster
from repro.models import BertConfig, ResNetConfig, build_bert, build_resnet
from repro.partitioner import auto_partition
import repro.partitioner.stage_dp as stage_dp

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "pinned_plans.json"

# builder + batch size per pinned model, matching the snapshot script
MODELS = {
    "bert-base": (
        lambda: build_bert(
            BertConfig(hidden_size=768, num_layers=12, num_heads=12)
        ),
        256,
    ),
    "bert-large": (lambda: build_bert(BertConfig()), 256),
    "resnet50x8": (
        lambda: build_resnet(ResNetConfig(depth=50, width_factor=8)),
        512,
    ),
}
CLUSTERS = {"v100x8": 1, "v100x16": 2, "v100x32": 4}


def _pinned():
    with FIXTURE.open() as fh:
        return json.load(fh)


PINNED = _pinned()


@pytest.mark.parametrize("key", sorted(PINNED), ids=sorted(PINNED))
def test_flat_model_matches_pinned_plan(key):
    expected = PINNED[key]
    model_name, cluster_name = key.split("/")
    build, batch_size = MODELS[model_name]
    cluster = paper_cluster(CLUSTERS[cluster_name])
    assert cluster.comm_model == "flat"  # the default must stay flat

    plan = auto_partition(build(), cluster, batch_size)

    assert expected["feasible"]
    assert [list(s.block_range) for s in plan.stages] == expected["boundaries"]
    assert [s.devices_per_pipeline for s in plan.stages] == expected["devices"]
    assert [s.microbatch_size for s in plan.stages] == (
        expected["microbatch_sizes"]
    )
    assert plan.num_microbatches == expected["num_microbatches"]
    assert plan.replica_factor == expected["replica_factor"]
    # bit-identical, not approximately equal: the flat path is the
    # pre-refactor arithmetic verbatim
    assert plan.iteration_time == expected["iteration_time"]
    assert plan.diagnostics.pipeline_time == expected["pipeline_time"]
    assert plan.diagnostics.allreduce_time == expected["allreduce_time"]
    assert [s.profile.time_fwd for s in plan.stages] == (
        expected["stage_time_fwd"]
    )
    assert [s.profile.time_bwd for s in plan.stages] == (
        expected["stage_time_bwd"]
    )


def test_fixture_covers_full_matrix():
    assert set(PINNED) == {
        f"{m}/{c}" for m in MODELS for c in CLUSTERS
    }


# How many replica planes one reduction pass takes must not change a
# plan.  On these presets every stage slab is at most 32 blocks wide, so
# the default chunk takes all planes of a column at once; the other cases
# shrink the chunk until it splits them.  The ids are kept from when each
# case forced an evaluation path ("auto", "dense", "banded", "numba",
# "rows"); each now names a chunk size: the default, no cap at all, one
# plane per pass, and two caps that split columns into unequal chunks
# depending on the stage's block span.
CHUNK_CELLS = {
    "auto": stage_dp.PLANE_CHUNK_CELLS,
    "dense": 10**18,
    "banded": 1,
    "numba": 2_048,
    "rows": 5_000,
}


@pytest.mark.parametrize("engine", sorted(CHUNK_CELLS))
@pytest.mark.parametrize("key", sorted(PINNED), ids=sorted(PINNED))
def test_every_engine_matches_pinned_plan(key, engine, monkeypatch):
    expected = PINNED[key]
    model_name, cluster_name = key.split("/")
    build, batch_size = MODELS[model_name]
    cluster = paper_cluster(CLUSTERS[cluster_name])
    monkeypatch.setattr(stage_dp, "PLANE_CHUNK_CELLS", CHUNK_CELLS[engine])

    plan = auto_partition(build(), cluster, batch_size)

    assert [list(s.block_range) for s in plan.stages] == expected["boundaries"]
    assert [s.devices_per_pipeline for s in plan.stages] == expected["devices"]
    assert plan.num_microbatches == expected["num_microbatches"]
    assert plan.replica_factor == expected["replica_factor"]
    assert plan.iteration_time == expected["iteration_time"]

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


# Both evaluation paths of Algorithm 1 must reproduce the pinned plans.
# The size check picks the path, so each case sets the ceiling it reads.
# The ids are the former ``dp_engine`` values, each mapped to the ceiling
# that makes the size check run what that value ran on these presets:
# "auto" and "dense" the full slab (every preset fits the default
# ceiling), "banded" and "numba" (banded without the JIT) the banded path
# everywhere, and "rows" -- the dense setting's above-the-ceiling path,
# whose place banded took -- a ceiling between the 8- and 16-device
# levels, so one search runs both paths.
CEILINGS = {
    "auto": stage_dp.FULL_TENSOR_MAX_CELLS,
    "dense": 10**18,
    "banded": 0,
    "numba": 0,
    "rows": 100_000,
}


@pytest.mark.parametrize("engine", sorted(CEILINGS))
@pytest.mark.parametrize("key", sorted(PINNED), ids=sorted(PINNED))
def test_every_engine_matches_pinned_plan(key, engine, monkeypatch):
    expected = PINNED[key]
    model_name, cluster_name = key.split("/")
    build, batch_size = MODELS[model_name]
    cluster = paper_cluster(CLUSTERS[cluster_name])
    monkeypatch.setattr(stage_dp, "FULL_TENSOR_MAX_CELLS", CEILINGS[engine])

    plan = auto_partition(build(), cluster, batch_size)

    assert [list(s.block_range) for s in plan.stages] == expected["boundaries"]
    assert [s.devices_per_pipeline for s in plan.stages] == expected["devices"]
    assert plan.num_microbatches == expected["num_microbatches"]
    assert plan.replica_factor == expected["replica_factor"]
    assert plan.iteration_time == expected["iteration_time"]

"""Bit-identity guard for plan repair (:func:`repro.planner.repair`).

``tests/data/pinned_repairs.json`` holds, per scenario, the plan a
repair produced after a cluster event -- stage boundaries, device
counts, microbatch count, replica factor, every stage profile and the
iteration time -- with whether the in-place attempt was abandoned and
why.  The scenarios cover the in-place path on a homogeneous node loss,
a scale-up of a one-stage (pure data-parallel) plan, a node loss on a
``tiny_mixed_cluster`` with a straggling class and a memory budget, and
the fallbacks of an in-place attempt whose microbatch collapses and of
one whose stage no longer fits the slots it lands on.

Update only the fields a change is meant to move, by name::

    PYTHONPATH=src python -m tests.planner.test_repair_pinned \\
        --write iteration_time

The script prints every field of every scenario against the committed
fixture and writes only the named fields; it refuses to write when any
other field of any scenario changed too (:mod:`tests.pinning`).
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.hardware import tiny_cluster, tiny_mixed_cluster
from repro.models import build_mlp
from repro.planner import (
    NodeLoss,
    PlannerConfig,
    PlanningContext,
    ScaleUp,
    repair,
)
from tests.pinning import write_fixture

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "pinned_repairs.json"

GiB = 1024**3

#: name -> (layer widths, cluster builder, planner config, event)
SCENARIOS = {
    "homogeneous/node-loss": (
        (1024,) + (8192,) * 10 + (10,),
        lambda: tiny_cluster(
            num_nodes=4, devices_per_node=2, memory_bytes=4 * GiB
        ),
        PlannerConfig(batch_size=32, num_blocks=12),
        NodeLoss(1),
    ),
    "homogeneous/one-stage-scale-up": (
        (64, 128, 64, 10),
        lambda: tiny_cluster(num_nodes=2, devices_per_node=4),
        PlannerConfig(batch_size=32, num_blocks=4),
        ScaleUp(2),
    ),
    "tiny-mixed/straggler-budget/node-loss": (
        (256,) + (4096,) * 6 + (10,),
        lambda: tiny_mixed_cluster(small_nodes=2, straggler_factor=1.5),
        PlannerConfig(batch_size=16, num_blocks=8, memory_budget=1 * GiB),
        NodeLoss(0),
    ),
    "homogeneous/fallback-microbatch-collapse": (
        (64, 128, 64, 10),
        lambda: tiny_cluster(num_nodes=2, devices_per_node=4),
        PlannerConfig(batch_size=32, num_blocks=4),
        ScaleUp(7),
    ),
    "tiny-mixed/fallback-over-memory": (
        (256,) + (8192,) * 12 + (10,),
        lambda: tiny_mixed_cluster(
            small_memory_bytes=2 * GiB, big_memory_bytes=8 * GiB
        ),
        PlannerConfig(batch_size=16, num_blocks=10),
        ScaleUp(1, class_name="small"),
    ),
}


def _snapshot(name):
    widths, build_cluster, config, event = SCENARIOS[name]
    graph = build_mlp(widths)
    cluster = build_cluster()
    ctx = PlanningContext(graph, cluster, config)
    ctx.run()
    result = repair(ctx, event)
    plan = result.plan
    return {
        "boundaries": [list(s.block_range) for s in plan.stages],
        "devices": [s.devices_per_pipeline for s in plan.stages],
        "num_microbatches": plan.num_microbatches,
        "replica_factor": plan.replica_factor,
        "stage_profiles": [
            dict(asdict(s.profile), microbatch_size=s.microbatch_size)
            for s in plan.stages
        ],
        "iteration_time": plan.iteration_time,
        "used_full": result.used_full_replan,
        "fallback_reason": result.fallback_reason,
    }


def _pinned():
    with FIXTURE.open() as fh:
        return json.load(fh)


PINNED = _pinned() if FIXTURE.exists() else {}


def test_fixture_covers_every_scenario():
    assert set(PINNED) == set(SCENARIOS)


def test_fixture_covers_both_paths():
    # the in-place path on each kind of event, and a fallback for each
    # reason an in-place stage can fail
    reasons = sorted(snap["fallback_reason"] for snap in PINNED.values())
    assert [snap["used_full"] for snap in PINNED.values()].count(True) == 2
    assert "microbatch collapses" in reasons[-2]
    assert "exceeds" in reasons[-1] and "surviving devices" in reasons[-1]
    assert any(len(snap["devices"]) == 1 for snap in PINNED.values()
               if not snap["used_full"])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_repair_matches_pinned(name):
    # exact equality throughout: stage profiles and iteration times too
    assert _snapshot(name) == PINNED[name]


if __name__ == "__main__":
    write_fixture(
        FIXTURE,
        lambda: {name: _snapshot(name) for name in sorted(SCENARIOS)},
        sys.argv[1:],
        scenarios=True,
    )

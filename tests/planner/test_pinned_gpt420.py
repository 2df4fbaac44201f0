"""Bit-identity guard for the large-graph path: ``gpt3_like(depth=420)``.

The 10,086-task graph is the one input where coarsening leaves more than
1,024 groups for compaction (the packed path), the stage search runs
banded sweeps hundreds of blocks deep and the pre-search layers dominate
plan time.  ``tests/data/pinned_gpt420.json`` holds what the planner
produced for it on ``paper_cluster(4)`` at batch 2048 with ``k = 768``:

* ``blocks_sha256`` -- the sha256 of ``[b.atomic_indices for b in
  blocks]``, hashed as ``tests/partitioner/test_blocks_pinned.py``
  hashes its scenarios;
* ``plan_sha256`` -- the sha256 of the plan's deployment JSON
  (:func:`repro.partitioner.deployment.plan_to_json`);
* the stage-search counters and the evaluated throughput;
* the coarsening counters (merge levels, merges, uncoarsening moves and
  the compaction path), so a change to the merge loop shows up as a
  named field and not only as a changed ``blocks_sha256``.

Update only the fields a change is meant to move, by name::

    PYTHONPATH=src python -m tests.planner.test_pinned_gpt420 \\
        --write cells_reduced

The script prints every field of a fresh snapshot against the committed
fixture and writes only the named fields; it refuses to write when any
other field changed too (:mod:`tests.pinning`).
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.hardware import paper_cluster
from repro.models.gpt import gpt3_like
from repro.partitioner.deployment import plan_to_json
from repro.planner import PlannerConfig, PlanningContext
from repro.planner.context import BLOCKS
from tests.pinning import updated_fixture, write_fixture

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "pinned_gpt420.json"
SCENARIO = (
    "gpt3_like(depth=420) on paper_cluster(4), batch 2048, num_blocks 768"
)


def _snapshot():
    graph = gpt3_like(depth=420)
    cluster = paper_cluster(4)
    config = PlannerConfig(batch_size=2048, num_blocks=768)
    ctx = PlanningContext(graph, cluster, config)
    plan = ctx.run()
    blocks = ctx.require(BLOCKS)
    search = ctx.events.find("stage_search").detail
    coarsen = ctx.events.find("coarsen").detail
    indices = [list(b.atomic_indices) for b in blocks]
    return {
        "scenario": SCENARIO,
        "blocks_sha256": hashlib.sha256(
            json.dumps(indices).encode()
        ).hexdigest(),
        "plan_sha256": hashlib.sha256(
            plan_to_json(plan, graph).encode()
        ).hexdigest(),
        "dp_calls": plan.diagnostics.dp_calls,
        "states_evaluated": search["states_evaluated"],
        "cells_reduced": search["cells_reduced"],
        "band_width_max": search["band_width_max"],
        "num_blocks": len(blocks),
        "throughput": plan.throughput,
        "coarsen_levels": coarsen["levels"],
        "coarsen_merges": coarsen["merges"],
        "coarsen_moves": coarsen["moves"],
        "compaction": coarsen["compaction"],
    }


def test_gpt420_plan_matches_pinned():
    with FIXTURE.open() as fh:
        pinned = json.load(fh)
    assert _snapshot() == pinned


def test_write_takes_only_the_named_fields():
    pinned = {"plan_sha256": "a", "cells_reduced": 10, "dp_calls": 21}
    fresh = dict(pinned, cells_reduced=7)
    assert updated_fixture(pinned, fresh, ["cells_reduced"]) == fresh
    assert list(updated_fixture(pinned, fresh, ["cells_reduced"])) == list(
        pinned
    )
    with pytest.raises(ValueError, match="plan_sha256"):
        updated_fixture(
            pinned, dict(fresh, plan_sha256="b"), ["cells_reduced"]
        )
    with pytest.raises(ValueError, match="unknown"):
        updated_fixture(pinned, fresh, ["cells"])


if __name__ == "__main__":
    write_fixture(FIXTURE, _snapshot, sys.argv[1:])

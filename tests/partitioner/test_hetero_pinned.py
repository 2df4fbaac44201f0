"""Bit-identity guard for the heterogeneous stage search.

``tests/data/pinned_hetero_plans.json`` holds, per scenario, the plan
``auto_partition`` returned on a heterogeneous cluster -- boundaries,
devices, microbatch count, replica factor, iteration time -- together
with the search counters (``states_evaluated``, ``dp_calls``).  On a
heterogeneous cluster every stage is capped by the tightest device of
the slots it lands on and paced by the slowest (``hetero_tables``), so
these scenarios exercise the per-slot scaling and masking of
Algorithm 1 end to end: the V100/A100 ``mixed_cluster`` with and
without a straggling V100 class, and ``tiny_mixed_cluster`` with a
memory-starved small class, each with and without a memory budget.

Update only the fields a change is meant to move, by name, in every
scenario that has them::

    PYTHONPATH=src python -m tests.partitioner.test_hetero_pinned \\
        --write states_evaluated

The script prints every field of every scenario against the committed
fixture and writes only the named fields; it refuses to write when any
other field of any scenario changed too (:mod:`tests.pinning`).
"""

import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.hardware import mixed_cluster, tiny_mixed_cluster
from repro.models import BertConfig, build_bert, build_mlp
from repro.partitioner import PartitioningError, auto_partition, search
from tests.pinning import updated_scenarios, write_fixture

FIXTURE = (
    Path(__file__).resolve().parents[1] / "data" / "pinned_hetero_plans.json"
)

GiB = 1024**3
MiB = 1024**2

# model name -> (builder, batch size)
MODELS = {
    "bert-base": (
        lambda: build_bert(
            BertConfig(hidden_size=768, num_layers=12, num_heads=12)
        ),
        256,
    ),
    "bert-large": (lambda: build_bert(BertConfig()), 256),
    "mlp-wide": (lambda: build_mlp((1024, 8192, 8192, 8192, 1024)), 512),
    "mlp-deep": (lambda: build_mlp((1024,) + (4096,) * 10 + (1024,)), 256),
}

#: per-device memory budget of the budgeted scenarios: it splits every
#: model into more stages on the mixed cluster and caps the big class of
#: the tiny one
BUDGET = 2 * GiB

# cluster name -> builder
CLUSTERS = {
    "mixed": lambda: mixed_cluster(),
    "mixed-straggler1.5": lambda: mixed_cluster(straggler_factor=1.5),
    # the small class holds an eighth of the big one's memory, and every
    # pipeline spans it
    "tiny-mixed-starved": lambda: tiny_mixed_cluster(
        small_memory_bytes=1 * GiB, big_memory_bytes=8 * GiB
    ),
}


def _budget_name(budget):
    return "nobudget" if budget is None else f"budget{budget // MiB}MiB"


SCENARIOS = {
    f"{m}/{c}/{_budget_name(b)}": (m, c, b)
    for m in MODELS
    for c in CLUSTERS
    for b in (None, BUDGET)
}


def _snapshot(name):
    model, cluster_name, budget = SCENARIOS[name]
    build, batch_size = MODELS[model]
    cluster = CLUSTERS[cluster_name]()
    assert cluster.is_heterogeneous
    try:
        plan = auto_partition(
            build(), cluster, batch_size, memory_budget=budget
        )
    except PartitioningError:
        return {"feasible": False}
    diag = plan.diagnostics
    return {
        "feasible": True,
        "boundaries": [list(s.block_range) for s in plan.stages],
        "devices": [s.devices_per_pipeline for s in plan.stages],
        "num_microbatches": plan.num_microbatches,
        "replica_factor": plan.replica_factor,
        "iteration_time": plan.iteration_time,
        "states_evaluated": diag.states_evaluated,
        "dp_calls": diag.dp_calls,
    }


def _pinned():
    with FIXTURE.open() as fh:
        return json.load(fh)


PINNED = _pinned() if FIXTURE.exists() else {}


def test_fixture_covers_every_scenario():
    assert set(PINNED) == set(SCENARIOS)


def test_fixture_is_not_vacuous():
    # most scenarios plan, and the straggler and the budget each change
    # plans
    feasible = [n for n, snap in PINNED.items() if snap["feasible"]]
    assert len(feasible) >= len(PINNED) * 3 // 4

    def differs(a, b):
        return any(
            PINNED[n.replace(a, b)] != PINNED[n]
            for n in PINNED if a in n
        )

    assert differs("/mixed/", "/mixed-straggler1.5/")
    assert differs("/nobudget", f"/{_budget_name(BUDGET)}")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_plan_matches_pinned(name):
    # exact equality throughout: iteration times and counters included
    assert _snapshot(name) == PINNED[name]


@pytest.mark.parametrize(
    "name, unpruned",
    [
        ("bert-large/mixed/budget2048MiB", (7, 7210)),
        ("bert-base/tiny-mixed-starved/nobudget", (17, 8670)),
    ],
)
def test_sweep_prune_counters(name, unpruned):
    """The pinned counters count the sweeps the coverage prune leaves
    (DESIGN.md D2b); with it patched off every sweep runs again, and the
    plan does not move."""
    with mock.patch.object(
        search, "covering_sweeps",
        lambda ctx, stage_counts, D, R, mbs: list(mbs),
    ):
        snap = _snapshot(name)
    assert (snap["dp_calls"], snap["states_evaluated"]) == unpruned
    pinned = PINNED[name]
    assert pinned["dp_calls"] < unpruned[0]
    assert pinned["states_evaluated"] < unpruned[1]
    fields = ("dp_calls", "states_evaluated")
    assert {k: v for k, v in snap.items() if k not in fields} == {
        k: v for k, v in pinned.items() if k not in fields
    }


def test_write_takes_only_the_named_fields():
    pinned = {
        "a": {"feasible": True, "dp_calls": 7, "states_evaluated": 10},
        "b": {"feasible": False},
    }
    fresh = {"a": dict(pinned["a"], states_evaluated=8), "b": pinned["b"]}
    assert updated_scenarios(pinned, fresh, ["states_evaluated"]) == fresh
    with pytest.raises(ValueError, match="a: other field.*dp_calls"):
        updated_scenarios(
            pinned,
            {"a": dict(fresh["a"], dp_calls=6), "b": pinned["b"]},
            ["states_evaluated"],
        )
    with pytest.raises(ValueError, match="b: other field.*feasible"):
        updated_scenarios(
            pinned, {"a": fresh["a"], "b": {"feasible": True}},
            ["states_evaluated"],
        )
    with pytest.raises(ValueError, match="unknown"):
        updated_scenarios(pinned, fresh, ["states"])
    with pytest.raises(ValueError, match="scenario set"):
        updated_scenarios(pinned, {"a": fresh["a"]}, ["states_evaluated"])


if __name__ == "__main__":
    write_fixture(
        FIXTURE,
        lambda: {name: _snapshot(name) for name in sorted(SCENARIOS)},
        sys.argv[1:],
        scenarios=True,
    )

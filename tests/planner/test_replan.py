"""Delta-replan equality: warm replans must be bit-identical to cold runs.

Every pass is deterministic, so reusing stored artifacts must never
change the plan -- only how much of the pipeline reruns.  These tests
drive :func:`repro.planner.replan` over the PR-5 pinned-plan fixture
(the paper's three reference models across the v100x8/16/32 presets) and
hold every delta-produced plan to the pinned snapshot, field for field
and float for float, while asserting *what* was reused via the event log
and the ``planner.reuse.*`` gauges.
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.hardware import paper_cluster
from repro.models import BertConfig, ResNetConfig, build_bert, build_resnet
from repro.partitioner.deployment import plan_to_json
from repro.planner import (
    ArtifactStore,
    DiskBackend,
    PlannerConfig,
    PlanningContext,
    ensure_store,
    plan_graph,
    replan,
)

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "pinned_plans.json"

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
CLUSTER_ORDER = list(CLUSTERS)

with FIXTURE.open() as fh:
    PINNED = json.load(fh)

#: passes whose artifacts survive a cluster-size or budget change
PROFILE_PASSES = ("atomic_partition", "coarsen", "profile_tensors")


def _assert_matches_pinned(plan, expected):
    assert expected["feasible"]
    assert [list(s.block_range) for s in plan.stages] == (
        expected["boundaries"]
    )
    assert [s.devices_per_pipeline for s in plan.stages] == (
        expected["devices"]
    )
    assert [s.microbatch_size for s in plan.stages] == (
        expected["microbatch_sizes"]
    )
    assert plan.num_microbatches == expected["num_microbatches"]
    assert plan.replica_factor == expected["replica_factor"]
    # bit-identical, not approximately equal: artifact reuse must not
    # perturb a single float
    assert plan.iteration_time == expected["iteration_time"]
    assert plan.diagnostics.pipeline_time == expected["pipeline_time"]
    assert plan.diagnostics.allreduce_time == expected["allreduce_time"]
    assert [s.profile.time_fwd for s in plan.stages] == (
        expected["stage_time_fwd"]
    )
    assert [s.profile.time_bwd for s in plan.stages] == (
        expected["stage_time_bwd"]
    )


def _reused(ctx):
    return [e.name for e in ctx.events if e.detail.get("reuse")]


@pytest.mark.parametrize("key", sorted(PINNED), ids=sorted(PINNED))
def test_cluster_change_delta_matches_pinned(key, tmp_path):
    """Plan on a *different* cluster, delta-replan to the target, and
    demand the pinned (cold-run) plan bit for bit; the whole-plan hits
    of that plan, from memory and from disk, serialize identically."""
    model_name, cluster_name = key.split("/")
    build, batch_size = MODELS[model_name]
    graph = build()
    prev_name = CLUSTER_ORDER[
        (CLUSTER_ORDER.index(cluster_name) + 1) % len(CLUSTER_ORDER)
    ]
    config = PlannerConfig(batch_size=batch_size)

    prev_ctx = PlanningContext(
        graph, paper_cluster(CLUSTERS[prev_name]), config,
        store=ArtifactStore(disk=DiskBackend(tmp_path)),
    )
    prev_ctx.run()

    target = paper_cluster(CLUSTERS[cluster_name])
    new_ctx = PlanningContext(
        graph, target, config, store=ensure_store(prev_ctx)
    )
    plan = new_ctx.run()

    _assert_matches_pinned(plan, PINNED[key])
    # a cluster-size change invalidates the stage search onward but
    # reuses the partitioning and the profile tensors
    assert _reused(new_ctx) == list(PROFILE_PASSES)
    for name in ("stage_search", "evaluate", "verify"):
        assert new_ctx.events.find(name).status == "ok"
    snap = new_ctx.metrics.snapshot()
    assert snap["planner.reuse.passes_skipped"] == len(PROFILE_PASSES)
    assert snap["planner.reuse.artifacts_loaded"] == len(PROFILE_PASSES)
    spans = [
        s for s in new_ctx.tracer.spans() if s.category == "planner.reuse"
    ]
    assert {s.name for s in spans} == {
        f"planner.reuse.{p}" for p in PROFILE_PASSES
    }

    served = plan_to_json(plan, graph)
    for store in (prev_ctx.store, ArtifactStore(disk=DiskBackend(tmp_path))):
        hit_ctx = PlanningContext(graph, target, config, store=store)
        hit = hit_ctx.run()
        assert hit.diagnostics.cache_hit
        assert plan_to_json(hit, graph) == served
        assert hit.iteration_time == plan.iteration_time


@pytest.mark.parametrize("model_name", sorted(MODELS), ids=sorted(MODELS))
def test_perturb_then_restore_reuses_everything(model_name):
    """Changing the config and changing it back must reuse the whole
    cacheable pipeline and reproduce the original plan bit for bit."""
    build, batch_size = MODELS[model_name]
    graph = build()
    cluster = paper_cluster(2)
    config = PlannerConfig(batch_size=batch_size)

    prev_ctx = PlanningContext(graph, cluster, config)
    original = prev_ctx.run()

    # perturb: cap the memory budget, which invalidates the search
    budget = cluster.device.usable_memory * 0.75
    perturbed_ctx = PlanningContext(
        graph,
        cluster,
        dataclasses.replace(config, memory_budget=budget),
        store=ensure_store(prev_ctx),
    )
    perturbed_ctx.run()
    assert _reused(perturbed_ctx) == list(PROFILE_PASSES)

    # restore: every cacheable pass's inputs are unchanged again
    restored_ctx = PlanningContext(
        graph, cluster, config, store=ensure_store(perturbed_ctx)
    )
    restored = restored_ctx.run()
    assert _reused(restored_ctx) == [
        "atomic_partition",
        "coarsen",
        "profile_tensors",
        "stage_search",
        "evaluate",
    ]
    # verify still re-checks the reused plan
    assert restored_ctx.events.find("verify").status == "ok"
    assert plan_to_json(restored, graph) == plan_to_json(original, graph)


def test_memory_budget_change_matches_cold_run():
    build, batch_size = MODELS["bert-base"]
    graph = build()
    cluster = paper_cluster(2)
    config = PlannerConfig(batch_size=batch_size)
    budget = cluster.device.usable_memory * 0.6

    prev_ctx = PlanningContext(graph, cluster, config)
    prev_ctx.run()

    new_ctx = PlanningContext(
        graph,
        cluster,
        dataclasses.replace(config, memory_budget=budget),
        store=ensure_store(prev_ctx),
    )
    delta = new_ctx.run()
    assert _reused(new_ctx) == list(PROFILE_PASSES)
    assert new_ctx.events.find("stage_search").status == "ok"

    cold = plan_graph(
        graph, cluster, dataclasses.replace(config, memory_budget=budget)
    )
    assert plan_to_json(delta, graph) == plan_to_json(cold, graph)


def test_replan_to_bigger_cluster():
    """The one-call delta: ``replan(prev, cluster=...)`` reuses the
    profile passes and plans what a cold run plans."""
    build, batch_size = MODELS["bert-base"]
    graph = build()
    prev_ctx = PlanningContext(
        graph, paper_cluster(1), PlannerConfig(batch_size=batch_size)
    )
    prev_ctx.run()

    store = ensure_store(prev_ctx)
    hits = store.counters()["hits"]
    plan = replan(prev_ctx, cluster=paper_cluster(4))
    # the store served the profile passes' artifacts and nothing else
    assert store.counters()["hits"] - hits == len(PROFILE_PASSES)
    _assert_matches_pinned(plan, PINNED["bert-base/v100x32"])


def test_disk_artifacts_survive_process_boundary(tmp_path):
    """A fresh store over the same cache dir (a new process, in effect)
    reloads the serialized artifacts from disk and rebuilds the DP
    context, which lives in the memory tier only, from the stored
    blocks.  The delta plans what an in-process delta plans against the
    in-memory context."""
    build, batch_size = MODELS["bert-base"]
    graph = build()
    cluster = paper_cluster(1)
    config = PlannerConfig(batch_size=batch_size)

    ctx1 = PlanningContext(
        graph, cluster, config, store=ArtifactStore(disk=DiskBackend(tmp_path))
    )
    ctx1.run()
    # the disk tier holds what a restart reads: the blocks (so it skips
    # coarsening) and the finished plan
    assert sorted(p.name.split("-")[0] for p in
                  (tmp_path / "artifacts").iterdir()) == [
        "blocks", "evaluated",
    ]

    # different budget: the whole-plan entry misses, the atomic
    # partition is recomputed, the coarsening hits from disk and the
    # profile tensors are rebuilt
    budget = cluster.device.usable_memory * 0.7
    delta_config = dataclasses.replace(config, memory_budget=budget)
    ctx2 = PlanningContext(
        graph, cluster, delta_config,
        store=ArtifactStore(disk=DiskBackend(tmp_path)),
    )
    from_disk = ctx2.run()
    assert _reused(ctx2) == ["coarsen"]
    assert ctx2.events.find("atomic_partition").status == "ok"
    assert ctx2.events.find("profile_tensors").status == "ok"
    assert ctx2.metrics.snapshot()["planner.store.disk_hits"] == 1

    # the same delta in one process, against the in-memory context
    store = ArtifactStore()
    PlanningContext(graph, cluster, config, store=store).run()
    memory_config = dataclasses.replace(config, memory_budget=budget)
    ctx3 = PlanningContext(graph, cluster, memory_config, store=store)
    in_memory = ctx3.run()
    assert _reused(ctx3) == list(PROFILE_PASSES)
    assert plan_to_json(from_disk, graph) == plan_to_json(in_memory, graph)


def test_leftover_dp_context_npz_is_never_read_and_ages_out(
    tmp_path, monkeypatch
):
    """Older releases wrote the DP context as ``dp_context-<fp>.npz``.
    Such a file is never read; it is one more file under the byte
    budget and ages out as the least recently used."""
    build, batch_size = MODELS["bert-base"]
    graph = build()
    cluster = paper_cluster(1)
    config = PlannerConfig(batch_size=batch_size)
    ctx1 = PlanningContext(
        graph, cluster, config, store=ArtifactStore(disk=DiskBackend(tmp_path))
    )
    ctx1.run()
    used = DiskBackend(tmp_path).bytes_used()

    leftover = (
        tmp_path / "artifacts"
        / f"dp_context-{ctx1.artifact_fps['dp_context']}.npz"
    )
    leftover.write_bytes(b"\0" * 2**20)
    os.utime(leftover, (0, 0))  # older than every current entry
    reads = []
    read_bytes = DiskBackend.read_bytes

    def _recording(self, relpath):
        reads.append(relpath)
        return read_bytes(self, relpath)

    monkeypatch.setattr(DiskBackend, "read_bytes", _recording)
    delta_config = dataclasses.replace(
        config, memory_budget=cluster.device.usable_memory * 0.7
    )
    ctx2 = PlanningContext(
        graph, cluster, delta_config,
        store=ArtifactStore(
            disk=DiskBackend(tmp_path, byte_budget=used + 2**20 - 1)
        ),
    )
    ctx2.run()
    assert _reused(ctx2) == ["coarsen"]
    assert not any("dp_context" in r for r in reads)
    assert not leftover.exists()
    assert ctx2.store.disk.evictions == 1


def test_ensure_store_is_idempotent():
    build, batch_size = MODELS["bert-base"]
    graph = build()
    ctx = PlanningContext(
        graph, paper_cluster(1), PlannerConfig(batch_size=batch_size)
    )
    ctx.run()
    store = ensure_store(ctx)
    assert ensure_store(ctx) is store
    # seeded under the exact fingerprints a store-backed run computes
    assert set(ctx.artifact_fps) >= {
        "components", "blocks", "dp_context", "search_result",
    }
    for name, fp in ctx.artifact_fps.items():
        assert store.get(name, fp) is not None


def test_comm_only_delta_reports_the_cold_search_counters(tmp_path):
    """Halving the inter-node bandwidth reuses the stage search and
    reruns the allocation onward.  The delta plan's search counters are
    the cold plan's, whether the search result comes from memory or, in
    a new process, from rerunning the search: the search result lives
    in the memory tier only."""
    build, batch_size = MODELS["bert-base"]
    graph = build()
    cluster = paper_cluster(2)
    config = PlannerConfig(batch_size=batch_size)

    def slower(factor):
        return dataclasses.replace(
            cluster,
            inter_node_bandwidth=cluster.inter_node_bandwidth / factor,
        )

    def counters(plan):
        diag = plan.diagnostics
        return diag.dp_calls, diag.candidates_tried, diag.states_evaluated

    prev_ctx = PlanningContext(
        graph, cluster, config, store=ArtifactStore(disk=DiskBackend(tmp_path))
    )
    prev_ctx.run()

    # in memory
    delta_ctx = PlanningContext(graph, slower(2), config, store=prev_ctx.store)
    delta = delta_ctx.run()
    assert _reused(delta_ctx) == [*PROFILE_PASSES, "stage_search"]
    cold = plan_graph(graph, slower(2), config)
    assert plan_to_json(delta, graph) == plan_to_json(cold, graph)
    assert counters(delta) == counters(cold)
    assert counters(cold)[2] > 0

    # in a new store over the same cache: the search reruns from the
    # stored blocks and counts what a cold search counts
    disk_ctx = PlanningContext(
        graph, slower(4), config, store=ArtifactStore(disk=DiskBackend(tmp_path))
    )
    from_disk = disk_ctx.run()
    assert _reused(disk_ctx) == ["coarsen"]
    assert disk_ctx.events.find("stage_search").status == "ok"
    assert counters(from_disk) == counters(plan_graph(graph, slower(4), config))

"""Replan-on-event repair (:mod:`repro.planner.repair`).

Three layers of guarantees:

* the in-place path keeps the stage boundaries, migrates only the
  (replica, stage) pairs whose parameters died with the event, and the
  repaired plan re-verifies with zero violations;
* a repair that needs zero migrations is replica-aligned and lands on
  the same plan a full :func:`replan` would choose -- the in-place
  microbatch re-optimization closes the only gap;
* a seeded randomized harness drives every event kind over homogeneous
  and heterogeneous presets and holds every outcome to the same
  verification bar.
"""

import random
from dataclasses import replace

import pytest

from repro.hardware import tiny_cluster, tiny_mixed_cluster
from repro.models import build_mlp
from repro.partitioner import PartitioningError
from repro.partitioner.deployment import plan_to_json
from repro.planner import (
    ArtifactStore,
    DiskBackend,
    NodeLoss,
    PlannerConfig,
    PlanningContext,
    Preemption,
    ScaleUp,
    plan_graph,
    repair,
    replan,
    survivor_map,
)
from repro.planner.context import DP_CONTEXT, SEARCH_RESULT
from repro.profiler.memory import OptimizerKind
from repro.verify import check_plan

#: deep/wide enough that S=3 R=2 on 4x2 devices -- losing a node drops
#: one replica of stages 1 and 2, forcing real parameter migrations
WIDE_MLP = (1024,) + (8192,) * 10 + (10,)


def plan_wide():
    graph = build_mlp(WIDE_MLP)
    cluster = tiny_cluster(
        num_nodes=4, devices_per_node=2, memory_bytes=4 * 2**30
    )
    config = PlannerConfig(batch_size=32, num_blocks=12)
    ctx = PlanningContext(graph, cluster, config)
    plan = ctx.run()
    return graph, ctx, plan


def plan_small():
    """S=1 pure data parallelism: every rank holds the whole model, so
    any event repairs with zero migrations."""
    graph = build_mlp((64, 128, 64, 10))
    cluster = tiny_cluster(num_nodes=2, devices_per_node=4)
    config = PlannerConfig(batch_size=32, num_blocks=4)
    ctx = PlanningContext(graph, cluster, config)
    plan = ctx.run()
    return graph, ctx, plan


class TestSurvivorMap:
    def test_node_loss_shifts_later_ranks(self):
        old = tiny_cluster(num_nodes=4, devices_per_node=2)
        event = NodeLoss(1)
        new = event.apply(old)
        smap = survivor_map(old, new, event)
        assert smap == {0: 0, 1: 1, 4: 2, 5: 3, 6: 4, 7: 5}

    def test_homogeneous_scale_up_is_identity(self):
        old = tiny_cluster(num_nodes=2, devices_per_node=4)
        event = ScaleUp(1)
        new = event.apply(old)
        assert survivor_map(old, new, event) == {r: r for r in range(8)}

    def test_hetero_scale_up_shifts_later_classes(self):
        old = tiny_mixed_cluster()  # small node (ranks 0-3), big (4-7)
        event = ScaleUp(1, class_name="small")
        new = event.apply(old)
        smap = survivor_map(old, new, event)
        # the grown class keeps its ranks; the class declared after it
        # is renumbered past the new node
        assert smap == {0: 0, 1: 1, 2: 2, 3: 3, 4: 8, 5: 9, 6: 10, 7: 11}


class TestRepairRequiresPlan:
    def test_empty_context_raises(self):
        graph = build_mlp((8, 8))
        cluster = tiny_cluster()
        ctx = PlanningContext(graph, cluster, PlannerConfig(batch_size=8))
        with pytest.raises(ValueError, match="finished planning run"):
            repair(ctx, NodeLoss(0))


class TestInPlaceRepair:
    def test_node_loss_migrates_and_verifies(self):
        graph, ctx, plan = plan_wide()
        assert plan.num_stages == 3 and plan.replica_factor == 2

        result = repair(ctx, NodeLoss(1))

        assert not result.used_full_replan
        assert result.fallback_reason == ""
        assert result.cluster.num_nodes == 3
        # node 1 held one replica's copy of two stages -> both must
        # refetch parameters from the surviving replica
        assert result.migrated_pairs == 2
        assert result.migration_bytes > 0
        assert result.migration_time > 0
        assert result.repair_latency > 0
        # boundaries survive; only the replica factor shrinks
        assert [s.block_range for s in result.plan.stages] == (
            [s.block_range for s in plan.stages]
        )
        assert result.plan.replica_factor == 1
        report = check_plan(result.plan, graph)
        assert report.ok and not report.violations

    def test_transfers_are_priced_not_free(self):
        _, ctx, _ = plan_wide()
        result = repair(ctx, NodeLoss(1))
        assert result.transfers
        total = sum(t.nbytes for t in result.transfers)
        assert total == pytest.approx(result.migration_bytes)

    def test_repairs_a_plan_the_store_served_whole(self, tmp_path):
        # a whole-plan hit never builds the profile tensors; the repair
        # loads them from the store instead of falling back to a replan
        graph = build_mlp((64, 128, 64, 10))
        cluster = tiny_cluster(num_nodes=2, devices_per_node=4)
        config = PlannerConfig(batch_size=32, num_blocks=4)
        PlanningContext(
            graph, cluster, config,
            store=ArtifactStore(disk=DiskBackend(tmp_path)),
        ).run()
        ctx = PlanningContext(
            graph, cluster, config,
            store=ArtifactStore(disk=DiskBackend(tmp_path)),
        )
        assert ctx.run().diagnostics.cache_hit

        result = repair(ctx, NodeLoss(0))

        assert not result.used_full_replan
        assert result.fallback_reason == ""

    def test_rebuilt_context_repairs_like_the_in_memory_one(self, tmp_path):
        # a run served whole by a fresh store rebuilds the profile
        # tensors from the stored blocks; the repair must not notice
        graph = build_mlp(WIDE_MLP)
        cluster = tiny_cluster(
            num_nodes=4, devices_per_node=2, memory_bytes=4 * 2**30
        )
        config = PlannerConfig(batch_size=32, num_blocks=12)
        memory_ctx = PlanningContext(
            graph, cluster, config,
            store=ArtifactStore(disk=DiskBackend(tmp_path)),
        )
        memory_ctx.run()
        disk_ctx = PlanningContext(
            graph, cluster, config,
            store=ArtifactStore(disk=DiskBackend(tmp_path)),
        )
        assert disk_ctx.run().diagnostics.cache_hit
        assert not disk_ctx.has(DP_CONTEXT)

        rebuilt = repair(disk_ctx, NodeLoss(0))
        in_memory = repair(memory_ctx, NodeLoss(0))

        assert disk_ctx.get(DP_CONTEXT) is not memory_ctx.get(DP_CONTEXT)
        for result in (rebuilt, in_memory):
            assert not result.used_full_replan
            assert result.fallback_reason == ""
        assert rebuilt.migration_bytes == in_memory.migration_bytes
        assert rebuilt.migration_bytes > 0
        assert plan_to_json(rebuilt.plan, graph) == plan_to_json(
            in_memory.plan, graph
        )

    def test_repairs_chain_through_result_context(self):
        graph, ctx, _ = plan_wide()
        first = repair(ctx, NodeLoss(1))
        second = repair(first.context, NodeLoss(0))
        assert second.cluster.num_nodes == 2
        report = check_plan(second.plan, graph)
        assert report.ok and not report.violations


class TestRepairUnderRunConfig:
    """The in-place plan is allocated, evaluated and verified under the
    run's own optimizer, not the planner default."""

    @pytest.mark.parametrize(
        "overrides, event",
        [
            ({"optimizer": OptimizerKind.SGD}, NodeLoss(1)),
            ({"optimizer": OptimizerKind.SGD_MOMENTUM}, NodeLoss(1)),
        ],
        ids=["sgd", "sgd-momentum"],
    )
    def test_repairs_in_place(self, overrides, event):
        graph = build_mlp(WIDE_MLP)
        cluster = tiny_cluster(
            num_nodes=4, devices_per_node=2, memory_bytes=4 * 2**30
        )
        config = PlannerConfig(batch_size=32, num_blocks=12, **overrides)
        ctx = PlanningContext(graph, cluster, config)
        plan = ctx.run()

        result = repair(ctx, event)

        assert result.fallback_reason == ""
        assert not result.used_full_replan
        assert [s.block_range for s in result.plan.stages] == (
            [s.block_range for s in plan.stages]
        )
        report = check_plan(result.plan, graph, optimizer=config.optimizer)
        assert report.ok, report.violations

    def test_replan_from_repaired_context_equals_cold_plan(self):
        # the fixed-layout search result must not leave the repair: a
        # replan from the repaired context searches the new cluster
        graph = build_mlp(WIDE_MLP)
        cluster = tiny_cluster(
            num_nodes=2, devices_per_node=2, memory_bytes=4 * 2**30
        )
        config = PlannerConfig(batch_size=32, num_blocks=12)
        ctx = PlanningContext(graph, cluster, config)
        ctx.run()
        result = repair(ctx, ScaleUp(2))
        assert not result.used_full_replan
        assert [s.devices_per_pipeline for s in result.plan.stages] == (
            [1, 1, 1, 1]
        )
        assert result.plan.replica_factor == 2
        assert not result.context.has(SEARCH_RESULT)

        # a microbatch cap the search never reaches: the stage search
        # reruns and finds the cold plan
        capped_config = replace(config, max_microbatches=config.batch_size)
        replanned = replan(result.context, config=capped_config)
        cold = plan_graph(graph, result.cluster, capped_config)

        assert [s.devices_per_pipeline for s in cold.stages] == [2, 1, 1]
        assert plan_to_json(replanned, graph) == plan_to_json(cold, graph)
        assert replanned.iteration_time == cold.iteration_time


class TestZeroMigrationEqualsReplan:
    def test_zero_migration_plan_equals_full_replan(self):
        # losing a whole node of a pure-DP plan removes whole replicas:
        # nothing migrates, the in-place plan is adopted, and it must
        # coincide with what a full replan on the survivors would pick
        graph, ctx, _ = plan_small()
        event = NodeLoss(0)
        result = repair(ctx, event)

        assert not result.used_full_replan
        assert result.fallback_reason == ""
        assert result.migrated_pairs == 0
        assert not result.transfers

        expected = replan(ctx, cluster=event.apply(ctx.cluster))
        assert [s.block_range for s in result.plan.stages] == (
            [s.block_range for s in expected.stages]
        )
        assert result.plan.replica_factor == expected.replica_factor
        assert [s.devices_per_pipeline for s in result.plan.stages] == (
            [s.devices_per_pipeline for s in expected.stages]
        )
        assert result.plan.num_microbatches == expected.num_microbatches
        assert result.plan.iteration_time == expected.iteration_time

    def test_scale_up_seeds_new_replicas_in_place(self):
        # scale-up is NOT a zero-migration event: the new ranks hold no
        # parameters yet, so the in-place path keeps the boundaries and
        # prices the copies that seed the extra replicas
        graph, ctx, plan = plan_small()
        event = ScaleUp(2)
        result = repair(ctx, event)

        assert not result.used_full_replan
        assert result.cluster.num_nodes == 4
        assert result.migrated_pairs > 0
        assert result.plan.replica_factor > plan.replica_factor
        assert [s.block_range for s in result.plan.stages] == (
            [s.block_range for s in plan.stages]
        )
        report = check_plan(result.plan, graph)
        assert report.ok and not report.violations


class TestHeteroFeasibilityAcceptance:
    """A mixed-memory cluster admits a verified plan the homogeneous
    small-memory cluster cannot produce at all."""

    MODEL = (256,) + (8192,) * 12 + (10,)

    def test_mixed_cluster_unlocks_infeasible_model(self):
        graph = build_mlp(self.MODEL)
        config = PlannerConfig(batch_size=16, num_blocks=10)

        homogeneous = tiny_cluster(
            num_nodes=2, devices_per_node=4, memory_bytes=2 * 2**30
        )
        with pytest.raises(PartitioningError):
            plan_graph(graph, homogeneous, config)

        mixed = tiny_mixed_cluster()  # same shape, one big-memory node
        ctx = PlanningContext(graph, mixed, config)
        plan = ctx.run()
        report = check_plan(plan, graph)
        assert report.ok and not report.violations
        assert plan.num_stages > 1


def _random_event(rng, cluster):
    kind = rng.choice(("node_loss", "preemption", "scale_up"))
    if kind == "scale_up":
        if cluster.is_heterogeneous:
            name = rng.choice([c.name for c in cluster.device_classes])
            return ScaleUp(rng.randint(1, 2), class_name=name)
        return ScaleUp(rng.randint(1, 2))
    node = rng.randrange(cluster.num_nodes)
    return NodeLoss(node) if kind == "node_loss" else Preemption(node)


SCENARIOS = {
    "wide-mlp": plan_wide,
    "small-mlp": plan_small,
}


class TestRandomizedRepairHarness:
    """Seeded event deltas x presets: every repaired plan verifies with
    zero violations, and whenever zero stages need migration the
    repaired plan equals the full replan's plan."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repaired_plans_verify(self, scenario, seed):
        graph, ctx, _ = SCENARIOS[scenario]()
        rng = random.Random(seed)
        event = _random_event(rng, ctx.cluster)
        try:
            result = repair(ctx, event)
        except PartitioningError:
            # the survivors genuinely cannot host the model; the error
            # must propagate rather than yield an unverified plan
            return
        report = check_plan(result.plan, graph)
        assert report.ok and not report.violations
        assert result.cluster.total_devices >= (
            result.plan.replica_factor
            * sum(s.devices_per_pipeline for s in result.plan.stages)
        )
        if result.migrated_pairs == 0 and not result.used_full_replan:
            try:
                expected = replan(ctx, cluster=event.apply(ctx.cluster))
            except PartitioningError:
                # the from-scratch search needs pipeline node counts to
                # tile the cluster; the in-place repair may keep a plan
                # alive where no cold plan exists -- nothing to compare
                return
            assert [s.block_range for s in result.plan.stages] == (
                [s.block_range for s in expected.stages]
            )
            assert result.plan.replica_factor == expected.replica_factor
            assert (
                result.plan.num_microbatches == expected.num_microbatches
            )
            assert result.plan.iteration_time == expected.iteration_time
        assert result.repair_latency > 0

    def test_mixed_cluster_events(self):
        graph = build_mlp((256,) + (4096,) * 6 + (10,))
        cluster = tiny_mixed_cluster()
        config = PlannerConfig(batch_size=16, num_blocks=8)
        ctx = PlanningContext(graph, cluster, config)
        ctx.run()
        for seed in range(3):
            rng = random.Random(seed)
            event = _random_event(rng, cluster)
            try:
                result = repair(ctx, event)
            except PartitioningError:
                continue
            report = check_plan(result.plan, graph)
            assert report.ok and not report.violations

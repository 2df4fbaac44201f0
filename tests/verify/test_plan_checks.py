"""Unit tests for the plan-integrity checker (``repro.verify``).

Strategy: plan a real model with the real planner, assert the fresh plan
verifies cleanly, then tamper with one aspect at a time and assert the
checker pins the damage to the right invariant family -- collecting ALL
violations instead of stopping at the first.
"""

import dataclasses

import pytest

from repro.hardware import paper_cluster, tiny_cluster
from repro.models.random_dag import build_random_dag
from repro.partitioner import auto_partition
from repro.verify import (
    PlanVerificationError,
    check_budget,
    check_plan,
    verify_plan,
)
from repro.verify.plan_checks import without_budget


@pytest.fixture(scope="module")
def pipelined():
    """A REAL multi-stage plan: memory-starved devices force a pipeline
    split, exercising checkpointing and the differential checks."""
    cluster = tiny_cluster(num_nodes=1, devices_per_node=4,
                           memory_bytes=256 * 1024)
    for seed in range(8):
        graph = build_random_dag(seed=seed, num_nodes=14, width=64)
        plan = auto_partition(graph, cluster, 32, num_blocks=8)
        if plan.num_stages >= 2:
            return graph, cluster, plan
    raise AssertionError("no seed in 0..7 produced a multi-stage plan")


@pytest.fixture(scope="module")
def replicated():
    """A single-stage data-parallel plan on the paper cluster."""
    from repro.models import BertConfig, build_bert

    graph = build_bert(
        BertConfig(hidden_size=32, num_layers=2, num_heads=4, seq_len=16,
                   vocab_size=101)
    )
    cluster = paper_cluster()
    plan = auto_partition(graph, cluster, 64)
    return graph, cluster, plan


def violations_of(report, invariant):
    return [v for v in report.violations if v.invariant == invariant]


def retask(plan, stage_idx, tasks):
    """Copy ``plan`` with one stage's task tuple replaced."""
    stages = list(plan.stages)
    stages[stage_idx] = dataclasses.replace(stages[stage_idx], tasks=tasks)
    return dataclasses.replace(plan, stages=stages)


class TestCleanPlans:
    def test_pipelined_plan_verifies(self, pipelined):
        graph, cluster, plan = pipelined
        report = verify_plan(plan, graph, cluster)
        assert report.ok
        assert report.invariants_checked > len(graph.tasks)
        assert report.stats["sim_rel_err"] <= 1e-6
        assert report.stats["max_mem_rel_err"] <= 1e-6

    def test_replicated_plan_verifies(self, replicated):
        graph, cluster, plan = replicated
        report = verify_plan(plan, graph, cluster)
        assert report.ok

    def test_cluster_defaults_to_plans(self, replicated):
        graph, _, plan = replicated
        assert check_plan(plan, graph).ok


class TestCoverage:
    def test_dropped_stage(self, pipelined):
        graph, cluster, plan = pipelined
        broken = dataclasses.replace(plan, stages=list(plan.stages[:-1]))
        report = check_plan(broken, graph, cluster)
        missing = violations_of(report, "coverage")
        assert missing, "dropping a stage must orphan its tasks"
        assert any("not assigned to any stage" in v.message for v in missing)

    def test_duplicated_task(self, pipelined):
        from repro.partitioner.atomic import classify_tasks

        graph, cluster, plan = pipelined
        # graft a stage-1 NON-CONSTANT task into stage 0 as well (cloning
        # a constant task would be legal)
        non_constant = classify_tasks(graph)
        stolen = next(
            t for t in plan.stages[1].tasks if non_constant[t]
        )
        broken = retask(plan, 0, plan.stages[0].tasks + (stolen,))
        report = check_plan(broken, graph, cluster)
        assert any(
            "exactly one" in v.message
            for v in violations_of(report, "coverage")
        )

    def test_task_listed_twice_in_one_stage(self, pipelined):
        graph, cluster, plan = pipelined
        t = plan.stages[0].tasks[0]
        broken = retask(plan, 0, plan.stages[0].tasks + (t,))
        report = check_plan(broken, graph, cluster)
        assert any(
            "twice" in v.message for v in violations_of(report, "coverage")
        )

    def test_unknown_task(self, pipelined):
        graph, cluster, plan = pipelined
        broken = retask(plan, 0, plan.stages[0].tasks + ("ghost_task",))
        report = check_plan(broken, graph, cluster)
        assert any(
            "unknown task" in v.message
            for v in violations_of(report, "coverage")
        )

    def test_empty_plan(self, pipelined):
        graph, cluster, plan = pipelined
        report = check_plan(
            dataclasses.replace(plan, stages=[]), graph, cluster
        )
        assert any(
            "no stages" in v.message
            for v in violations_of(report, "coverage")
        )


class TestTopology:
    def test_swapped_stages_create_backward_edges(self, pipelined):
        graph, cluster, plan = pipelined
        stages = list(plan.stages)
        s0, s1 = stages[0], stages[1]
        stages[0] = dataclasses.replace(s0, tasks=s1.tasks)
        stages[1] = dataclasses.replace(s1, tasks=s0.tasks)
        report = check_plan(
            dataclasses.replace(plan, stages=stages), graph, cluster
        )
        assert any(
            "backward" in v.message
            for v in violations_of(report, "topology")
        )

    def test_broken_block_chain(self, pipelined):
        graph, cluster, plan = pipelined
        stages = list(plan.stages)
        lo, hi = stages[0].block_range
        stages[0] = dataclasses.replace(stages[0], block_range=(lo + 1, hi))
        report = check_plan(
            dataclasses.replace(plan, stages=stages), graph, cluster
        )
        assert any(
            "contiguously" in v.message
            for v in violations_of(report, "topology")
        )


class TestDevicesAndDivisibility:
    def test_device_overflow(self, replicated):
        graph, cluster, plan = replicated
        broken = dataclasses.replace(
            plan, replica_factor=plan.replica_factor * 100
        )
        report = check_plan(broken, graph, cluster)
        assert any(
            "cluster has" in v.message
            for v in violations_of(report, "devices")
        )

    def test_zero_replica_factor(self, replicated):
        graph, cluster, plan = replicated
        report = check_plan(
            dataclasses.replace(plan, replica_factor=0), graph, cluster
        )
        assert violations_of(report, "devices")

    def test_microbatch_size_mismatch(self, pipelined):
        graph, cluster, plan = pipelined
        stages = list(plan.stages)
        stages[0] = dataclasses.replace(
            stages[0], microbatch_size=stages[0].microbatch_size + 1
        )
        report = check_plan(
            dataclasses.replace(plan, stages=stages), graph, cluster
        )
        assert any(
            "microbatch_size" in v.message
            for v in violations_of(report, "divisibility")
        )

    def test_zero_microbatches(self, pipelined):
        graph, cluster, plan = pipelined
        report = check_plan(
            dataclasses.replace(plan, num_microbatches=0), graph, cluster
        )
        assert violations_of(report, "divisibility")


class TestMemoryAndDifferential:
    def test_over_memory_stage(self, pipelined):
        graph, cluster, plan = pipelined
        stages = list(plan.stages)
        prof = dataclasses.replace(
            stages[0].profile, memory=stages[0].profile.memory * 1e4
        )
        stages[0] = dataclasses.replace(stages[0], profile=prof)
        report = check_plan(
            dataclasses.replace(plan, stages=stages), graph, cluster
        )
        mem = violations_of(report, "memory")
        assert any("usable device memory" in v.message for v in mem)
        assert any("re-deriving" in v.message for v in mem)

    def test_tampered_stage_time(self, pipelined):
        graph, cluster, plan = pipelined
        stages = list(plan.stages)
        prof = dataclasses.replace(
            stages[0].profile, time_fwd=stages[0].profile.time_fwd * 3.0
        )
        stages[0] = dataclasses.replace(stages[0], profile=prof)
        report = check_plan(
            dataclasses.replace(plan, stages=stages), graph, cluster
        )
        diff = violations_of(report, "differential")
        # both layers catch it: profile re-derivation and re-simulation
        # against the recorded pipeline makespan
        assert any("re-derived" in v.message for v in diff)
        assert any("re-simulating" in v.message for v in diff)

    def test_dp_estimate_disagreement(self, pipelined):
        graph, cluster, plan = pipelined
        report = check_plan(
            plan, graph, cluster,
            expected_iteration_time=plan.diagnostics.pipeline_time * 2.0,
        )
        assert any(
            "DP estimated" in v.message
            for v in violations_of(report, "differential")
        )


class TestMemoryBudget:
    def test_plan_over_the_runs_budget_fails(self):
        """A plan made without a budget, checked by a run whose budget is
        below the plan's peak stage memory, reports a memory violation;
        a run whose budget is the peak passes it."""
        from repro.planner import PlannerConfig, PlanningContext

        graph = build_random_dag(seed=0, num_nodes=14, width=64)
        cluster = tiny_cluster(num_nodes=1, devices_per_node=4)

        def run(budget):
            config = PlannerConfig(batch_size=32, num_blocks=8,
                                   memory_budget=budget)
            return PlanningContext(graph, cluster, config)

        plan = run(None).run()
        peak = max(s.profile.memory for s in plan.stages)
        report = run(0.75 * peak).check_plan(plan)
        assert [v.message for v in violations_of(report, "memory")
                if "memory budget" in v.message]
        assert run(peak).check_plan(plan).ok
        assert check_plan(plan, graph, cluster).ok
        assert not check_plan(
            plan, graph, cluster, memory_budget=0.75 * peak
        ).ok

    @pytest.mark.parametrize("fraction", [None, 0.75, 1.0, 2.0])
    def test_budget_check_on_its_own(self, pipelined, fraction):
        """The budget check completes a budget-free report into exactly
        the report of a check under the budget, and a passing report
        splits back into its budget-free part."""
        graph, cluster, plan = pipelined
        peak = max(s.profile.memory for s in plan.stages)
        budget = None if fraction is None else fraction * peak
        free = check_plan(plan, graph, cluster)
        whole = check_plan(plan, graph, cluster, memory_budget=budget)
        composed = check_budget(free, plan, budget)
        assert composed == whole
        assert composed is not free and free == check_plan(plan, graph, cluster)
        if whole.ok:
            assert without_budget(whole, plan, budget) == free
        else:
            assert [v.invariant for v in whole.violations] == ["memory"] * len(
                whole.violations
            )
            with pytest.raises(ValueError):
                without_budget(whole, plan, budget)


class TestCollectThenRaise:
    def test_all_violations_reported(self, pipelined):
        """Two independent tamperings -> one error listing both."""
        graph, cluster, plan = pipelined
        stages = list(plan.stages)
        prof = dataclasses.replace(
            stages[0].profile, memory=stages[0].profile.memory * 1e4
        )
        stages[0] = dataclasses.replace(stages[0], profile=prof)
        broken = dataclasses.replace(
            plan, stages=stages, num_microbatches=plan.num_microbatches + 1
        )
        with pytest.raises(PlanVerificationError) as exc_info:
            verify_plan(broken, graph, cluster)
        err = exc_info.value
        families = {v.invariant for v in err.violations}
        assert "memory" in families
        assert "divisibility" in families
        # the message renders every violation, one per line
        assert str(err).count("- [") == len(err.violations)
        assert isinstance(err, ValueError)  # cache loads treat it as a miss

    def test_verify_plan_returns_report_when_clean(self, replicated):
        graph, cluster, plan = replicated
        assert verify_plan(plan, graph, cluster).ok

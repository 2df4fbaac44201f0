"""Tests for the pass manager: artifact invariants, event log, skip
logic, error reporting, and the default ``auto_partition`` pipeline."""

import pytest

from repro.hardware import paper_cluster
from repro.partitioner import PartitioningError, auto_partition
from repro.planner import (
    CoarsenPass,
    PassError,
    PassManager,
    PlannerConfig,
    PlannerPass,
    PlanningContext,
    ValidatePass,
    default_passes,
    plan_graph,
)


def make_ctx(graph, cluster, **config_kwargs):
    config_kwargs.setdefault("batch_size", 64)
    return PlanningContext(graph, cluster, PlannerConfig(**config_kwargs))


class TestPassManager:
    def test_duplicate_pass_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PassManager([ValidatePass(), ValidatePass()])

    def test_missing_requirement_names_pass_and_artifact(self, tiny_bert):
        ctx = make_ctx(tiny_bert, paper_cluster())
        manager = PassManager([ValidatePass(), CoarsenPass()])
        with pytest.raises(PassError, match="'coarsen'.*'components'"):
            manager.run(ctx)

    def test_undelivered_artifact_reported(self, tiny_bert):
        class LazyPass(PlannerPass):
            name = "lazy"
            produces = ("never_made",)

            def run(self, ctx):
                return {}

        ctx = make_ctx(tiny_bert, paper_cluster())
        with pytest.raises(PassError, match="'lazy'.*'never_made'"):
            PassManager([LazyPass()]).run(ctx)

    def test_crashing_pass_wrapped_with_name(self, tiny_bert):
        class BoomPass(PlannerPass):
            name = "boom"

            def run(self, ctx):
                raise RuntimeError("kaput")

        ctx = make_ctx(tiny_bert, paper_cluster())
        with pytest.raises(PassError, match="'boom'.*kaput"):
            PassManager([BoomPass()]).run(ctx)
        event = ctx.events.find("boom")
        assert event.status == "failed"
        assert "kaput" in event.detail["error"]

    def test_domain_errors_keep_their_type(self, tiny_bert):
        ctx = make_ctx(tiny_bert, paper_cluster(), batch_size=0)
        with pytest.raises(ValueError, match="batch size"):
            PassManager([ValidatePass()]).run(ctx)
        assert ctx.events.find("validate").status == "failed"

    def test_event_per_pass_with_timings(self, tiny_bert):
        ctx = make_ctx(tiny_bert, paper_cluster())
        ctx.run()
        names = [e.name for e in ctx.events]
        assert names == [
            "validate", "atomic_partition", "coarsen", "profile_tensors",
            "stage_search", "evaluate", "verify",
        ]
        assert all(e.status == "ok" for e in ctx.events)
        search = ctx.events.find("stage_search")
        assert search.wall_time > 0
        assert search.detail["dp_calls"] > 0

    def test_coarsen_reports_what_each_step_did(self, tiny_bert):
        ctx = make_ctx(tiny_bert, paper_cluster(), num_blocks=4)
        ctx.run()
        detail = ctx.events.find("coarsen").detail
        assert detail["num_blocks"] == 4
        assert detail["levels"] >= 1
        assert detail["merges"] >= detail["levels"]
        assert detail["moves"] >= 0
        assert detail["compaction"] in ("none", "exact", "packed", "greedy")


class TestDefaultPipeline:
    def test_default_passes_cover_all_phases(self):
        names = [p.name for p in default_passes()]
        assert names == [
            "validate", "atomic_partition", "coarsen", "profile_tensors",
            "stage_search", "evaluate", "verify",
        ]

    def test_plan_has_pass_timings(self, tiny_bert, cluster):
        plan = auto_partition(tiny_bert, cluster, 64, verify=False)
        timings = plan.diagnostics.pass_timings
        assert "stage_search" in timings and timings["stage_search"] > 0
        assert "coarsen" in timings
        # skipped passes record no timing
        assert "verify" not in timings
        flat = plan.diagnostics.as_dict()
        assert flat["pass_time.stage_search"] == pytest.approx(
            timings["stage_search"]
        )

    def test_plan_records_memo_hit_rate(self, tiny_bert, cluster):
        plan = auto_partition(tiny_bert, cluster, 64)
        assert 0.0 < plan.diagnostics.profiler_memo_hit_rate < 1.0

    def test_infeasible_raises_partitioning_error(self):
        from repro.hardware import tiny_cluster
        from repro.models import build_mlp

        starved = tiny_cluster(num_nodes=1, devices_per_node=2,
                               memory_bytes=1024**2)
        g = build_mlp((256, 1024, 1024, 256))
        ctx = make_ctx(g, starved, batch_size=8)
        with pytest.raises(PartitioningError, match="no feasible"):
            ctx.run()
        assert ctx.events.find("stage_search").status == "failed"

    def test_evaluate_pass_matches_legacy_evaluate(self, tiny_bert, cluster):
        config = PlannerConfig(batch_size=64)
        plan = plan_graph(tiny_bert, cluster, config)
        assert plan.throughput > 0
        assert plan.diagnostics.pipeline_time > 0
        assert plan.diagnostics.as_dict()["pipeline_time"] == pytest.approx(
            plan.diagnostics.pipeline_time
        )

"""End-to-end tracing through the planning pipeline: pass spans, DP
spans/counters, the parenting of DP spans under Algorithm 2's level
spans, and the evaluate pass's pipeline gauges."""

from repro.hardware import paper_cluster
from repro.planner import PlannerConfig, PlanningContext, ensure_store
from repro.planner.events import PASS_CATEGORY


def run_plan(graph, **config_kwargs):
    config_kwargs.setdefault("batch_size", 64)
    ctx = PlanningContext(
        graph, paper_cluster(), PlannerConfig(**config_kwargs)
    )
    plan = ctx.run()
    return ctx, plan


class TestPassSpans:
    def test_pass_spans_mirror_event_log(self, tiny_bert):
        ctx, _ = run_plan(tiny_bert)
        pass_spans = ctx.tracer.spans(PASS_CATEGORY)
        assert [s.name for s in pass_spans] == [e.name for e in ctx.events]
        by_name = {s.name: s for s in pass_spans}
        assert by_name["stage_search"].attrs["status"] == "ok"
        assert by_name["stage_search"].duration > 0

    def test_trace_off_records_no_fine_grained_spans(self, tiny_bert):
        ctx, _ = run_plan(tiny_bert, trace=False)
        assert ctx.tracer.spans("partitioner.dp") == []
        assert ctx.tracer.spans("partitioner.search") == []
        # coarse pass spans and DP counters stay on regardless
        assert len(ctx.tracer.spans(PASS_CATEGORY)) > 0
        assert ctx.metrics.counter("dp.calls").value > 0


class TestProfilerBuildSpan:
    def test_cold_plan_builds_profiler_inside_coarsen(self, tiny_bert):
        ctx, _ = run_plan(tiny_bert, trace=True)
        builds = ctx.tracer.spans("profiler")
        assert [s.name for s in builds] == ["profiler.build"]
        build = builds[0]
        assert build.attrs["tasks"] == len(tiny_bert.tasks)
        assert build.attrs["values"] == len(tiny_bert.values)
        assert build.attrs["ms"] == build.duration * 1e3 > 0
        coarsen = next(
            s for s in ctx.tracer.spans(PASS_CATEGORY) if s.name == "coarsen"
        )
        assert coarsen.start <= build.start
        assert build.end <= coarsen.end
        detail = ctx.events.find("coarsen").detail
        assert build.attrs["ms"] <= detail["profiler_build_ms"]

    def test_delta_replan_reuses_the_stored_profiler(self, tiny_bert):
        prev, _ = run_plan(tiny_bert, trace=True)
        ctx = PlanningContext(
            tiny_bert, paper_cluster(2), prev.config, store=ensure_store(prev)
        )
        ctx.run()
        assert ctx.events.find("coarsen").status == "skipped"
        assert ctx.profiler is prev.profiler
        assert ctx.tracer.spans("profiler") == []


class TestDPInstrumentation:
    def test_candidate_spans_match_dp_calls(self, tiny_bert):
        ctx, _ = run_plan(tiny_bert, trace=True)
        dp_spans = ctx.tracer.spans("partitioner.dp")
        assert len(dp_spans) == ctx.metrics.counter("dp.calls").value
        assert len(dp_spans) == ctx.events.find("stage_search").detail[
            "dp_calls"
        ]
        for span in dp_spans:
            assert {"S", "MB"} <= set(span.attrs)
            assert "feasible" in span.attrs

    def test_band_width_and_cells_reported(self, tiny_bert):
        ctx, _ = run_plan(tiny_bert, trace=True)
        dp_spans = ctx.tracer.spans("partitioner.dp")
        snap = ctx.metrics.snapshot()
        assert sum(s.attrs["cells_reduced"] for s in dp_spans) == snap[
            "dp.cells_reduced"
        ] > 0
        dp_ctx = ctx.require("dp_context")
        detail = ctx.events.find("stage_search").detail
        assert detail["cells_reduced"] == snap["dp.cells_reduced"]
        assert detail["band_width_max"] == max(
            s.attrs["band_width"] for s in dp_spans
        ) >= 1
        assert detail["band_bytes"] == dp_ctx.band_bytes
        assert snap["profiler.band_bytes"] == dp_ctx.band_bytes > 0

    def test_per_point_state_counters(self, tiny_bert):
        ctx, _ = run_plan(tiny_bert)
        snap = ctx.metrics.snapshot()
        points = {
            k: v for k, v in snap.items()
            if k.startswith("dp.states_evaluated[")
        }
        assert points, f"no per-(S,MB) counters in {sorted(snap)}"
        assert sum(points.values()) == snap["dp.states_evaluated"]
        assert snap["dp.states_per_call"]["count"] == snap["dp.calls"]

    def test_profiler_gauges_exported(self, tiny_bert):
        ctx, _ = run_plan(tiny_bert)
        snap = ctx.metrics.snapshot()
        assert snap["profiler.memo_hits"] == snap["profiler.table_hits"]
        assert snap["profiler.band_builds"] >= 1


    def test_level_span_reports_ranking(self, tiny_bert):
        ctx, plan = run_plan(tiny_bert, trace=True)
        levels = ctx.tracer.spans("partitioner.search")
        assert sum(s.attrs["candidates"] for s in levels) == (
            plan.diagnostics.candidates_tried
        ) > 0
        # only the winning level ranks its candidates
        ranked = [s for s in levels if "rank_ms" in s.attrs]
        assert len(ranked) == 1 and ranked[0] is levels[-1]
        assert 0.0 <= ranked[0].attrs["rank_ms"] <= ranked[0].duration * 1e3
        assert ranked[0].attrs["winner_stages"] == plan.num_stages


class TestParallelSearchTracing:
    def test_cross_thread_parenting(self, tiny_bert, monkeypatch):
        # the search must not depend on the host's core count
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        ctx, _ = run_plan(tiny_bert, trace=True)
        level_spans = ctx.tracer.spans("partitioner.search")
        dp_spans = ctx.tracer.spans("partitioner.dp")
        assert level_spans and dp_spans
        level_ids = {s.span_id for s in level_spans}
        # every DP candidate span hangs off a search-level span
        for span in dp_spans:
            assert span.parent_id in level_ids

    def test_parallel_counters_match_serial(self, tiny_bert, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        serial, plan_s = run_plan(tiny_bert)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        par, plan_p = run_plan(tiny_bert)
        keys = ("dp.calls", "dp.states_evaluated", "dp.infeasible")
        for key in keys:
            assert (
                serial.metrics.counter(key).value
                == par.metrics.counter(key).value
            )
        assert plan_s.num_stages == plan_p.num_stages


class TestEvaluateGauges:
    def test_bubble_and_utilization_gauges(self, tiny_bert):
        ctx, plan = run_plan(tiny_bert)
        snap = ctx.metrics.snapshot()
        bubble = snap["stage.bubble_frac"]
        assert 0.0 <= bubble < 1.0
        for s in range(plan.num_stages):
            util = snap[f"stage.{s}.utilization"]
            assert 0.0 < util <= 1.0
        assert ctx.events.find("evaluate").detail["bubble_frac"] == bubble

    def test_sync_plan_simulated_once(self, tiny_bert, monkeypatch):
        """The evaluate pass takes the makespan and the busy times from
        one flush simulation; both equal separate simulations bit for
        bit."""
        from repro.pipeline import hybrid, simulator, timeline
        from repro.planner import default_passes
        from repro.planner.manager import PassManager

        ctx = PlanningContext(
            tiny_bert, paper_cluster(), PlannerConfig(batch_size=64)
        )
        passes = default_passes()
        names = [p.name for p in passes]
        PassManager(passes[:names.index("evaluate")]).run(ctx)
        calls = []
        real = simulator.flush_schedule

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (simulator, hybrid, timeline):
            monkeypatch.setattr(module, "flush_schedule", counting)
        PassManager([passes[names.index("evaluate")]]).run(ctx)
        monkeypatch.undo()
        assert len(calls) == 1
        plan = ctx.require("evaluated")
        tf = [s.time_fwd for s in plan.stages]
        tb = [s.time_bwd for s in plan.stages]
        assert plan.diagnostics.pipeline_time == (
            simulator.simulate_sync_pipeline(tf, tb, plan.num_microbatches)
        )
        timing = timeline.plan_flush_timing(plan)
        snap = ctx.metrics.snapshot()
        for s in range(plan.num_stages):
            assert snap[f"stage.{s}.utilization"] == timing.utilization(s)
        assert snap["stage.bubble_frac"] == timing.bubble_fraction()

"""Unit tests for the transport-independent plan engine.

Coalescing semantics (N identical concurrent requests -> one pipeline
run, N-1 coalesced followers), cold/warm/delta classification against
the shared artifact store, the ``replan`` base contract, the verify
round trip, and the stats surface.
"""

import concurrent.futures
import dataclasses
import errno
import json
import os
import threading

import pytest

from repro.service import PlanEngine, ServiceError

#: small-but-real model: plans in well under a second, exercises every
#: pipeline pass (the module-scoped engine below keeps it warm)
MODEL = {"family": "bert", "hidden": 256, "layers": 4, "heads": 8}
PARAMS = {"model": MODEL, "cluster": {"preset": "v100x8"}, "batch_size": 64}


@pytest.fixture(scope="module")
def warm_engine():
    """One engine that has already served PARAMS cold."""
    engine = PlanEngine(workers=2)
    engine.plan(dict(PARAMS))
    return engine


class TestClassification:
    def test_cold_then_warm_then_delta(self):
        engine = PlanEngine(workers=2)

        cold = engine.plan(dict(PARAMS))
        assert cold["meta"]["cache"] == "cold"
        assert cold["meta"]["reused_passes"] == []
        assert cold["meta"]["verified"] is True
        assert cold["plan"]["stages"]

        warm = engine.plan(dict(PARAMS))
        assert warm["meta"]["cache"] == "warm"
        assert warm["plan"] == cold["plan"]

        delta = engine.plan(dict(PARAMS, cluster={"preset": "v100x16"}))
        assert delta["meta"]["cache"] == "delta"
        # a cluster resize keeps the model-side artifacts
        assert "profile_tensors" in delta["meta"]["reused_passes"]
        assert delta["meta"]["fingerprint"] != cold["meta"]["fingerprint"]

    def test_option_change_is_a_new_fingerprint(self, warm_engine):
        capped = warm_engine.plan(
            dict(PARAMS, options={"max_microbatches": 2})
        )
        assert capped["meta"]["cache"] in ("cold", "delta")


class TestFullDisk:
    def test_plans_verified_when_the_cache_disk_is_full(
        self, tmp_path, monkeypatch
    ):
        """A disk that refuses every write fails the persist, not the
        request; the store reports the refused writes."""
        engine = PlanEngine(cache_dir=tmp_path, workers=1)

        def full(relpath, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), relpath)

        monkeypatch.setattr(engine.store.disk, "write_bytes", full)
        out = engine.plan(dict(PARAMS))
        assert out["meta"]["verified"] is True
        assert out["plan"]["stages"]
        assert engine.stats()["store"]["write_errors"] > 0


class TestReplanContract:
    def test_replan_without_a_base_is_409(self):
        engine = PlanEngine(workers=1)
        with pytest.raises(ServiceError) as ei:
            engine.replan(dict(PARAMS))
        assert ei.value.code == "no_base"
        assert ei.value.status == 409

    def test_replan_with_a_base_serves_the_delta(self, warm_engine):
        out = warm_engine.replan(
            dict(PARAMS, cluster={"preset": "v100x16"})
        )
        assert out["meta"]["cache"] in ("warm", "delta")


class TestCoalescing:
    def test_n_identical_concurrent_requests_run_once(self):
        engine = PlanEngine(workers=4)
        n = 5
        calls = []
        release = threading.Event()
        real_execute = engine._execute

        def gated_execute(req):
            calls.append(req.key)
            # hold the leader until the followers have all coalesced,
            # so the test is deterministic rather than racy
            assert release.wait(timeout=30)
            return real_execute(req)

        engine._execute = gated_execute
        with concurrent.futures.ThreadPoolExecutor(n) as pool:
            futures = [
                pool.submit(engine.plan, dict(PARAMS)) for _ in range(n)
            ]
            deadline = threading.Event()
            for _ in range(300):
                coalesced = engine.stats()["counters"].get(
                    "service.coalesced", 0
                )
                if coalesced >= n - 1:
                    break
                deadline.wait(0.05)
            release.set()
            results = [f.result() for f in futures]

        assert len(calls) == 1  # one pipeline run
        metas = [r["meta"] for r in results]
        assert sum(1 for m in metas if m.get("coalesced")) == n - 1
        assert len({m["fingerprint"] for m in metas}) == 1
        docs = [r["plan"] for r in results]
        assert all(doc == docs[0] for doc in docs)

    def test_infeasible_leader_fails_and_clears_the_key(self):
        engine = PlanEngine(workers=2)
        # an impossibly small memory budget: the leader's pipeline run
        # fails, and the failure must reach every coalesced waiter
        params = dict(PARAMS, options={"memory_budget_gb": 1e-6})
        with pytest.raises(ServiceError) as ei:
            engine.plan(params)
        assert ei.value.code == "infeasible"
        assert ei.value.status == 422
        # the key is no longer in flight: a retry fails the same way
        # rather than hanging on a dead future
        with pytest.raises(ServiceError):
            engine.plan(params)


class TestVerifyEndpoint:
    def test_round_trip(self, warm_engine):
        doc = warm_engine.plan(dict(PARAMS))["plan"]
        out = warm_engine.verify(
            {
                "plan": doc,
                "model": MODEL,
                "cluster": PARAMS["cluster"],
            }
        )
        assert out["verified"] is True
        assert out["num_stages"] == len(doc["stages"])

    def test_mutilated_document_fails(self, warm_engine):
        doc = dict(warm_engine.plan(dict(PARAMS))["plan"])
        doc["stages"] = []
        with pytest.raises(ServiceError) as ei:
            warm_engine.verify(
                {"plan": doc, "model": MODEL, "cluster": PARAMS["cluster"]}
            )
        assert ei.value.code == "verification_failed"
        assert ei.value.status == 422

    def test_missing_fields(self, warm_engine):
        with pytest.raises(ServiceError):
            warm_engine.verify({"plan": {}})


class TestSimulate:
    def test_timeline_summary(self, warm_engine):
        out = warm_engine.simulate(dict(PARAMS))
        timeline = out["timeline"]
        assert timeline["makespan"] > 0
        assert 0 <= timeline["bubble_fraction"] < 1
        assert len(timeline["stage_utilization"]) == timeline["num_stages"]


    def test_cold_simulate_runs_the_pipeline_once(self, monkeypatch):
        # the timeline is simulated from the deployment document: one
        # pipeline run, and the numbers of the live plan's flush timing
        from repro.pipeline.timeline import plan_flush_timing
        from repro.planner import PlanningContext
        from repro.planner.manager import PassManager
        from repro.service.protocol import normalize_plan_request

        runs = []
        run = PassManager.run

        def counting(self, ctx):
            runs.append(ctx)
            return run(self, ctx)

        # a tight budget forces a two-stage pipeline with a bubble
        params = {
            "model": {"family": "mlp",
                      "widths": [512, 4096, 4096, 4096, 512]},
            "cluster": {"preset": "v100x8"},
            "batch_size": 64,
            "options": {"memory_budget_gb": 0.3},
        }
        monkeypatch.setattr(PassManager, "run", counting)
        out = PlanEngine(workers=1).simulate(params)
        assert len(runs) == 1
        monkeypatch.undo()

        req = normalize_plan_request(params)
        plan = PlanningContext(req.graph, req.cluster, req.config).run()
        timing = plan_flush_timing(plan)
        assert plan.num_stages == 2 and timing.bubble_fraction() > 0
        assert out["timeline"] == {
            "makespan": timing.makespan,
            "bubble_fraction": timing.bubble_fraction(),
            "num_stages": plan.num_stages,
            "stage_utilization": [
                timing.utilization(s) for s in range(plan.num_stages)
            ],
            "iteration_time": plan.iteration_time,
            "throughput": plan.throughput,
        }


class TestStats:
    def test_surface(self, warm_engine):
        warm_engine.plan(dict(PARAMS))
        stats = warm_engine.stats()
        assert stats["counters"]["service.requests"] >= 2
        assert stats["models_planned"] >= 1
        assert "warm" in stats["latency_ms"]
        assert stats["latency_ms"]["warm"]["p50_ms"] > 0
        assert stats["store"]["entries"] > 0
        assert stats["draining"] is False

    def test_span_count_does_not_copy_the_span_list(
        self, warm_engine, monkeypatch
    ):
        expected = len(warm_engine.tracer)
        assert expected > 0

        def no_copy(*args, **kwargs):
            raise AssertionError("stats() copied the tracer's spans")

        monkeypatch.setattr(warm_engine.tracer, "spans", no_copy)
        assert warm_engine.stats()["spans"] == expected

    def test_dropped_spans_reported(self, monkeypatch, tmp_path):
        import repro.obs.tracer as tracer_mod

        # a tiny ring: every request records at least one span
        monkeypatch.setattr(tracer_mod, "MAX_SPANS", 2)
        engine = PlanEngine(workers=1)
        for _ in range(4):
            engine.plan(dict(PARAMS))
        stats = engine.stats()
        assert stats["spans"] == 2
        assert stats["dropped_spans"] >= 2
        engine.export_trace(tmp_path / "trace.json")
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["dropped_spans"] == engine.tracer.dropped_spans

    def test_unknown_method(self, warm_engine):
        with pytest.raises(ServiceError) as ei:
            warm_engine.handle("explode", {})
        assert ei.value.code == "not_found"


class TestWarmPath:
    TIMINGS = ("normalize_ms", "pipeline_ms", "encode_ms")

    @pytest.mark.parametrize("method", ["plan", "replan"])
    def test_every_response_has_a_phase_breakdown(self, warm_engine, method):
        meta = getattr(warm_engine, method)(dict(PARAMS))["meta"]
        timings = meta["timings"]
        assert sorted(timings) == sorted(self.TIMINGS)
        assert all(v >= 0 for v in timings.values())
        assert sum(timings.values()) <= meta["wall_ms"]

    def test_coalesced_follower_has_a_phase_breakdown(self):
        engine = PlanEngine(workers=2)
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            metas = [r["meta"] for r in pool.map(engine.plan, [PARAMS] * 4)]
        for meta in metas:
            assert sorted(meta["timings"]) == sorted(self.TIMINGS)
            assert sum(meta["timings"].values()) <= meta["wall_ms"]

    def test_one_normalize_span_per_request(self):
        """A cold request is normalized in the pool, a warm repeat on the
        loop, and a delta whose graph is built on the loop too: each
        records one ``service.normalize`` span."""
        engine = PlanEngine(workers=1)

        def normalize_spans():
            return [s for s in engine.tracer.spans("service")
                    if s.name == "service.normalize"]

        requests = [
            PARAMS, PARAMS, dict(PARAMS, cluster={"preset": "v100x16"}),
        ]
        for n, params in enumerate(requests, 1):
            engine.plan(dict(params))
            spans = normalize_spans()
            assert len(spans) == n
            assert spans[-1].duration > 0
        assert len({s.attrs["fingerprint"] for s in spans}) == 2

    def test_sweeps_reused_in_stats(self):
        """A budget that masks the same band entries as the base plan's
        reuses its Algorithm-1 sweeps (DESIGN.md D2d), and ``/v1/stats``
        counts them."""
        engine = PlanEngine(workers=1)
        engine.plan(dict(PARAMS))
        assert engine.stats()["counters"].get("search.sweeps_reused", 0) == 0
        delta = engine.plan(dict(PARAMS, options={"memory_budget_gb": 16}))
        assert delta["meta"]["cache"] == "delta"
        assert engine.stats()["counters"]["search.sweeps_reused"] > 0

    def test_seeds_and_skips_in_stats(self):
        """A cold plan skips sweeps with no layout (DESIGN.md D2e); a
        budget delta's node level is seeded by a stored answer that
        still fits (D2f) and falls back to no unseeded rerun.
        ``/v1/stats`` counts all three."""
        engine = PlanEngine(workers=1)
        engine.plan(dict(PARAMS))
        counters = engine.stats()["counters"]
        assert counters.get("search.levels_seeded", 0) == 0
        skipped = counters["search.sweeps_skipped"]
        assert skipped > 0
        engine.plan(dict(PARAMS, options={"memory_budget_gb": 16}))
        counters = engine.stats()["counters"]
        assert counters["search.levels_seeded"] > 0
        assert counters["search.seed_fallbacks"] == 0
        assert counters["search.sweeps_skipped"] >= skipped

    def test_memo_counters_in_stats(self):
        engine = PlanEngine(workers=1)
        for _ in range(3):
            engine.plan(dict(PARAMS))
        counters = engine.stats()["counters"]
        # the cold plan's verify pass recorded its check: both hits
        # reuse that record
        assert counters["verify.memo_hits"] == 2
        assert counters["validate.memo_hits"] == 2

    def test_memory_and_disk_hits_serve_identical_documents(self, tmp_path):
        first = PlanEngine(workers=1, cache_dir=tmp_path)
        cold = first.plan(dict(PARAMS))
        memory = first.plan(dict(PARAMS))
        disk = PlanEngine(workers=1, cache_dir=tmp_path).plan(dict(PARAMS))
        assert memory["meta"]["cache"] == disk["meta"]["cache"] == "warm"
        body = json.dumps(cold["plan"], sort_keys=True)
        assert json.dumps(memory["plan"], sort_keys=True) == body
        assert json.dumps(disk["plan"], sort_keys=True) == body
        assert (
            memory["meta"]["iteration_time"]
            == disk["meta"]["iteration_time"]
            == cold["meta"]["iteration_time"]
        )

    def test_bad_memory_entry_is_replanned_not_an_error(self):
        from repro.planner import EVALUATED

        engine = PlanEngine(workers=1)
        cold = engine.plan(dict(PARAMS))
        engine.plan(dict(PARAMS))  # a hit on the recorded entry
        (art,) = [
            a for a in engine.store._mem.values() if a.name == EVALUATED
        ]
        stage = art.payload.stages[0]
        art.payload.stages[0] = dataclasses.replace(
            stage, tasks=stage.tasks[:-2]
        )
        fresh = engine.plan(dict(PARAMS))
        assert fresh["meta"]["cache"] != "warm"
        assert fresh["meta"]["verified"] is True
        assert fresh["plan"] == cold["plan"]
        assert engine.plan(dict(PARAMS))["meta"]["cache"] == "warm"


class TestRepairContract:
    EVENT = {"type": "node_loss", "node_index": 0}

    def test_repair_without_a_base_is_409(self):
        engine = PlanEngine(workers=1)
        with pytest.raises(ServiceError) as ei:
            engine.repair(dict(PARAMS, event=dict(self.EVENT)))
        assert ei.value.code == "no_base"
        assert ei.value.status == 409

    def test_repair_after_plan_returns_repaired_plan(self, warm_engine):
        # the pre-event cluster must have a node to lose: v100x16 is
        # two 8-device nodes (v100x8 is a single node)
        out = warm_engine.repair(
            dict(PARAMS, cluster={"preset": "v100x16"},
                 event=dict(self.EVENT))
        )
        assert out["plan"]["stages"]
        info = out["repair"]
        assert info["event"] == "NodeLoss"
        assert isinstance(info["used_full_replan"], bool)
        assert info["migrated_pairs"] >= 0
        assert info["surviving_devices"] == 8  # 2 nodes - 1, x8 devices
        assert out["meta"]["fingerprint"]
        stats = warm_engine.stats()
        assert stats["counters"]["service.repair_requests"] >= 1

    def test_bad_event_is_bad_request(self, warm_engine):
        with pytest.raises(ServiceError) as ei:
            warm_engine.repair(dict(PARAMS, event={"type": "flood"}))
        assert ei.value.code == "bad_request"

    def test_missing_event_is_bad_request(self, warm_engine):
        with pytest.raises(ServiceError) as ei:
            warm_engine.repair(dict(PARAMS))
        assert ei.value.code == "bad_request"


def mlp_params(width):
    return dict(PARAMS, model={"family": "mlp", "widths": [8, width, 4]})


class TestGraphCache:
    def test_keeps_the_most_recent_specs(self, monkeypatch):
        from repro.service import engine as engine_module

        monkeypatch.setattr(engine_module, "GRAPH_CACHE_MAX", 2)
        engine = PlanEngine(workers=1)
        graphs = [engine._normalize(mlp_params(w)).graph for w in (8, 16, 32)]
        assert len(engine._graph_cache) == 2
        # the oldest spec was dropped and is rebuilt; the others are kept
        assert engine._normalize(mlp_params(32)).graph is graphs[2]
        assert engine._normalize(mlp_params(16)).graph is graphs[1]
        assert engine._normalize(mlp_params(8)).graph is not graphs[0]

    def test_warm_lookup_does_not_wait_on_a_cold_build(self, monkeypatch):
        from repro.service import protocol

        engine = PlanEngine(workers=1)
        engine._normalize(mlp_params(8))
        building, release = threading.Event(), threading.Event()
        build = protocol.build_model

        def blocked_build(spec):
            building.set()
            release.wait(30)
            return build(spec)

        monkeypatch.setattr(protocol, "build_model", blocked_build)
        cold = threading.Thread(
            target=engine._normalize, args=(mlp_params(16),)
        )
        cold.start()
        try:
            assert building.wait(30)
            warm = concurrent.futures.ThreadPoolExecutor(1)
            done = warm.submit(engine._normalize, mlp_params(8))
            # the cold build is still blocked while the warm lookup ends
            assert done.result(timeout=10).graph is not None
            assert cold.is_alive()
            warm.shutdown()
        finally:
            release.set()
            cold.join()


class TestUptimeClock:
    def test_uptime_is_monotonic_not_wall_clock(self):
        # regression: uptime_s used to be time.time() deltas, so an NTP
        # step or DST change could report negative uptime; the unix
        # timestamp now travels in its own field
        engine = PlanEngine(workers=1)
        stats = engine.stats()
        assert stats["uptime_s"] >= 0.0
        assert stats["started_at_unix"] > 1.6e9  # a real wall-clock date
        later = engine.stats()
        assert later["uptime_s"] >= stats["uptime_s"]

"""A warm hit is verified once per content address and validated once
per graph.

The verify pass of the run that stores a plan records its passed
:mod:`repro.verify` check on the plan's layout, keyed by what the check
reads and the plan digest.  A hit whose key matches builds no profiler
and calls neither ``check_plan`` nor ``validate_graph``; a changed
plan, a version bump or an evicted entry forces a fresh check, and a
hit that fails it is a miss in both tiers.  Every reader gets a view of
the stored plan, so nothing a caller does to a returned plan reaches a
later hit.
"""

import concurrent.futures
import dataclasses
import json
import sys

import pytest

import repro.verify
from repro.hardware import paper_cluster
from repro.partitioner.deployment import graph_fingerprint, plan_to_json
from repro.planner import (
    EVALUATED,
    VERIFIED,
    ArtifactStore,
    DiskBackend,
    PlannerConfig,
    PlanningContext,
)
from repro.planner import passes as planner_passes
from repro.profiler.profiler import GraphProfiler
from repro.verify import plan_checks


@pytest.fixture
def calls(monkeypatch):
    """Count ``GraphProfiler`` constructions, ``check_plan`` calls and
    ``validate_graph`` calls."""
    counts = {"profiler": 0, "check_plan": 0, "validate_graph": 0}
    real_init = GraphProfiler.__init__
    real_check = repro.verify.check_plan
    real_validate = planner_passes.validate_graph

    def init(self, *args, **kwargs):
        counts["profiler"] += 1
        real_init(self, *args, **kwargs)

    def check(*args, **kwargs):
        counts["check_plan"] += 1
        return real_check(*args, **kwargs)

    def validate(*args, **kwargs):
        counts["validate_graph"] += 1
        return real_validate(*args, **kwargs)

    monkeypatch.setattr(GraphProfiler, "__init__", init)
    monkeypatch.setattr(repro.verify, "check_plan", check)
    monkeypatch.setattr(planner_passes, "validate_graph", validate)
    return counts


def run(graph, store, **overrides):
    """One planning run against ``store``; returns ``(plan, ctx)``."""
    config = PlannerConfig(**{"batch_size": 64, **overrides})
    ctx = PlanningContext(graph, paper_cluster(), config, store=store)
    return ctx.run(), ctx


def entry(store, ctx):
    """The memory-tier ``evaluated`` entry a run was served or stored."""
    return store.get(EVALUATED, ctx.artifact_fps[EVALUATED])


def drop_tasks(plan):
    """Break coverage: stage 0 loses its last two tasks."""
    stage = plan.stages[0]
    plan.stages[0] = dataclasses.replace(stage, tasks=stage.tasks[:-2])


class TestVerifyOnce:
    def test_memoized_hit_builds_no_profiler_and_checks_nothing(
        self, tiny_bert, calls
    ):
        store = ArtifactStore()
        cold, _ = run(tiny_bert, store)
        run(tiny_bert, store)  # first hit: the cold run's record serves
        before = dict(calls)
        warm, ctx = run(tiny_bert, store)
        assert warm.diagnostics.cache_hit
        assert calls == before
        assert ctx.profiler is None
        assert ctx.metrics.get("verify.memo_hits").value == 1
        assert ctx.metrics.get("validate.memo_hits").value == 1
        assert ctx.events.find("verify").detail["checked_at_probe"]
        assert ctx.get(VERIFIED).ok
        assert ctx.plan_document == plan_to_json(cold, tiny_bert)

    def test_fresh_plan_is_checked_once(self, tiny_bert, calls):
        """The verify pass of the run that stores a plan records its
        check on the entry and keeps the document the record key
        encodes: no hit checks the plan again."""
        store = ArtifactStore()
        cold, ctx = run(tiny_bert, store)
        assert calls["check_plan"] == 1
        assert entry(store, ctx).layout.verified.report == ctx.get(VERIFIED)
        assert ctx.plan_document == plan_to_json(cold, tiny_bert)
        run(tiny_bert, store)
        run(tiny_bert, store)
        assert calls["check_plan"] == 1

    def test_tampered_memory_payload_is_rechecked(self, tiny_bert, calls):
        store = ArtifactStore()
        _, ctx = run(tiny_bert, store)
        run(tiny_bert, store)
        # a change check_plan accepts, so the hit is served after the check
        entry(store, ctx).payload.model_name = "renamed"
        checks = calls["check_plan"]
        warm, _ = run(tiny_bert, store)
        assert calls["check_plan"] == checks + 1
        assert warm.diagnostics.cache_hit
        assert warm.model_name == "renamed"

    def test_tampered_disk_payload_is_rechecked(
        self, tiny_bert, calls, tmp_path
    ):
        run(tiny_bert, ArtifactStore(disk=DiskBackend(tmp_path)))
        reader = ArtifactStore(disk=DiskBackend(tmp_path))
        _, ctx = run(tiny_bert, reader)  # disk hit: the decode checks
        fp = ctx.artifact_fps[EVALUATED]
        path = tmp_path / reader._relpath(EVALUATED, fp)
        doc = json.loads(path.read_text())
        doc["model_name"] = "renamed"
        path.write_text(json.dumps(doc, sort_keys=True))
        reader.evict(EVALUATED, fp)
        checks = calls["check_plan"]
        warm, warm_ctx = run(tiny_bert, reader)
        assert calls["check_plan"] == checks + 1
        assert warm.diagnostics.cache_hit
        assert warm_ctx.plan_document == path.read_text()

    def test_verifier_version_bump_invalidates_records(
        self, tiny_bert, calls, monkeypatch
    ):
        store = ArtifactStore()
        run(tiny_bert, store)
        run(tiny_bert, store)
        checks = calls["check_plan"]
        monkeypatch.setattr(
            plan_checks, "VERIFIER_VERSION", plan_checks.VERIFIER_VERSION + 1
        )
        run(tiny_bert, store)
        assert calls["check_plan"] == checks + 1
        run(tiny_bert, store)
        assert calls["check_plan"] == checks + 1

    def test_record_goes_with_its_evicted_entry(
        self, tiny_bert, calls, tmp_path
    ):
        store = ArtifactStore(disk=DiskBackend(tmp_path))
        _, ctx = run(tiny_bert, store)
        run(tiny_bert, store)
        assert entry(store, ctx).layout.verified is not None
        store.memory_budget_bytes = 1
        store.put("blocks", "filler", ["x"])  # the LRU drops every older entry
        assert f"{EVALUATED}:{ctx.artifact_fps[EVALUATED]}" not in store
        # the bytes survive on disk, the record does not: the next hit
        # is checked again
        checks = calls["check_plan"]
        warm, _ = run(tiny_bert, store)
        assert warm.diagnostics.cache_hit
        assert calls["check_plan"] == checks + 1

    def test_verify_false_neither_checks_nor_records(self, tiny_bert):
        store = ArtifactStore()
        _, ctx = run(tiny_bert, store, verify=False)
        warm, warm_ctx = run(tiny_bert, store, verify=False)
        assert warm.diagnostics.cache_hit
        assert entry(store, ctx).layout.verified is None
        assert warm_ctx.plan_report is None
        assert not warm_ctx.has(VERIFIED)


    def test_concurrent_hits_share_one_entry(self, tiny_bert):
        """Threads racing on one entry's record all get a verified,
        identical plan, and the entry ends with a matching record."""
        store = ArtifactStore()
        cold, ctx = run(tiny_bert, store)
        served = plan_to_json(cold, tiny_bert)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                results = list(pool.map(
                    lambda _: run(tiny_bert, store), range(16)
                ))
        finally:
            sys.setswitchinterval(interval)
        for plan, hit_ctx in results:
            assert plan.diagnostics.cache_hit
            assert hit_ctx.plan_report.ok
            assert hit_ctx.plan_document == served
        assert entry(store, ctx).layout.verified.report.ok


class TestFailuresAreMisses:
    def test_invariant_violating_memory_entry_is_miss(self, tiny_bert):
        """The memory-tier twin of ``test_invariant_violating_entry_is_miss``:
        a stored plan that drops tasks is replanned, not served, and the
        replanned entry serves every later hit."""
        store = ArtifactStore()
        cold, ctx = run(tiny_bert, store)
        drop_tasks(entry(store, ctx).payload)
        warm, warm_ctx = run(tiny_bert, store)
        assert not warm.diagnostics.cache_hit
        assert warm_ctx.events.find("evaluate").status == "ok"
        assert warm_ctx.events.find("verify").status == "ok"
        assert plan_to_json(warm, tiny_bert) == plan_to_json(cold, tiny_bert)
        again, _ = run(tiny_bert, store)
        assert again.diagnostics.cache_hit
        assert plan_to_json(again, tiny_bert) == plan_to_json(cold, tiny_bert)

    def test_recorded_entry_tampered_later_is_miss(self, tiny_bert):
        store = ArtifactStore()
        cold, ctx = run(tiny_bert, store)
        run(tiny_bert, store)
        drop_tasks(entry(store, ctx).payload)
        warm, warm_ctx = run(tiny_bert, store)
        assert not warm.diagnostics.cache_hit
        assert warm_ctx.events.find("evaluate").status == "ok"
        assert warm_ctx.events.find("verify").status == "ok"
        assert plan_to_json(warm, tiny_bert) == plan_to_json(cold, tiny_bert)


class TestIsolation:
    def test_mutating_the_returned_plan_does_not_reach_the_store(
        self, tiny_bert
    ):
        store = ArtifactStore()
        cold, _ = run(tiny_bert, store)
        served = plan_to_json(cold, tiny_bert)
        iteration_time = cold.iteration_time
        cold.iteration_time = 123.0
        drop_tasks(cold)
        warm, ctx = run(tiny_bert, store)
        assert warm.diagnostics.cache_hit
        assert ctx.plan_document == served
        assert plan_to_json(warm, tiny_bert) == served
        assert warm.iteration_time == iteration_time

    def test_every_reader_gets_a_view(self, tiny_bert):
        """The probe, the event loop's lookup and a warm run each get a
        plan of their own, and nothing stamped on one reaches the entry
        or its layout."""
        store = ArtifactStore()
        _, ctx = run(tiny_bert, store)
        fp = ctx.artifact_fps[EVALUATED]
        stored = entry(store, ctx)
        warm, _ = run(tiny_bert, store)
        served = [
            store.verified_plan(fp, ctx)[0],
            store.recorded_plan(fp, ctx)[0],
            warm,
        ]
        for plan in served:
            for shared in (stored.payload, stored.layout.plan):
                assert plan is not shared
                assert plan.stages is not shared.stages
                assert plan.diagnostics is not shared.diagnostics
        assert warm.diagnostics.cache_hit
        assert not stored.payload.diagnostics.cache_hit
        assert stored.payload.diagnostics.pass_timings == {}

    def test_stamped_diagnostics_stay_with_the_run(self, tiny_bert):
        store = ArtifactStore()
        _, ctx = run(tiny_bert, store)
        assert entry(store, ctx).payload.diagnostics.pass_timings == {}


class TestValidateOnce:
    def test_one_validation_per_graph_per_store(self, tiny_bert, calls):
        store = ArtifactStore()
        run(tiny_bert, store)
        run(tiny_bert, store, batch_size=32)  # another plan, same graph
        assert calls["validate_graph"] == 1
        assert store.graph_validated(graph_fingerprint(tiny_bert))
        run(tiny_bert, ArtifactStore())
        assert calls["validate_graph"] == 2

    def test_storeless_run_always_validates(self, tiny_bert, calls):
        for _ in range(2):
            run(tiny_bert, None)
        assert calls["validate_graph"] == 2

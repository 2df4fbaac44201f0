"""``VerifyPass`` wiring: on by default after evaluate, disabled by
``PlannerConfig.verify``, reporting (not repeating) the probe's check of
a stored plan from either store tier; the store treats truncated or
invariant-violating plan entries as misses and repairs them with an
atomic write."""

import json

import pytest

from repro.hardware import paper_cluster
from repro.planner import (
    EVALUATED,
    VERIFIED,
    ArtifactStore,
    DiskBackend,
    PlannerConfig,
    PlanningContext,
    default_passes,
)
from repro.verify import VerificationReport


def plan_with_ctx(graph, cluster, batch_size, cache_dir=None, **kwargs):
    """Plan with a fresh store over ``cache_dir`` (a new process, in
    effect), or store-less without one."""
    store = (
        ArtifactStore(disk=DiskBackend(cache_dir))
        if cache_dir is not None else None
    )
    ctx = PlanningContext(
        graph, cluster, PlannerConfig(batch_size=batch_size, **kwargs),
        store=store,
    )
    return ctx.run(), ctx


def plan_entry(ctx):
    """The on-disk whole-plan entry of a store-backed run."""
    fp = ctx.artifact_fps[EVALUATED]
    return ctx.store.disk.path(ctx.store._relpath(EVALUATED, fp))


def count_checks(monkeypatch):
    """The plans :meth:`PlanningContext.check_plan` is called on from
    now on."""
    calls = []
    check = PlanningContext.check_plan

    def counting(self, plan, expected_iteration_time=None):
        calls.append(plan)
        return check(self, plan, expected_iteration_time)

    monkeypatch.setattr(PlanningContext, "check_plan", counting)
    return calls


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "deployments"


class TestVerifyPassWiring:
    def test_verify_is_a_default_pass_after_evaluate(self):
        names = [p.name for p in default_passes()]
        assert "verify" in names
        assert names.index("verify") == names.index("evaluate") + 1

    def test_runs_by_default(self, tiny_bert):
        _, ctx = plan_with_ctx(tiny_bert, paper_cluster(), 64)
        event = ctx.events.find("verify")
        assert event.status == "ok"
        assert event.detail["violations"] == 0
        assert event.detail["invariants_checked"] > 0
        report = ctx.get(VERIFIED)
        assert isinstance(report, VerificationReport)
        assert report.ok

    def test_records_metrics_and_span(self, tiny_bert):
        _, ctx = plan_with_ctx(tiny_bert, paper_cluster(), 64)
        assert "verify.violations" in ctx.metrics
        assert "verify.invariants_checked" in ctx.metrics
        assert ctx.metrics.snapshot()["verify.violations"] == 0
        assert any(s.name == "verify.plan" for s in ctx.tracer.spans())

    def test_config_verify_false_skips(self, tiny_bert):
        _, ctx = plan_with_ctx(tiny_bert, paper_cluster(), 64, verify=False)
        event = ctx.events.find("verify")
        assert event.status == "skipped"
        assert "config.verify" in event.detail["reason"]
        assert not ctx.has(VERIFIED)


class TestCacheLoadVerification:
    def test_cache_hit_skips_duplicate_verification(
        self, tiny_bert, cache_dir, monkeypatch
    ):
        cluster = paper_cluster()
        plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        calls = count_checks(monkeypatch)
        warm, ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        # the probe verified the plan read from disk once; VerifyPass
        # reports that report and does not re-check
        assert len(calls) == 1
        assert isinstance(ctx.get(VERIFIED), VerificationReport)
        verify = ctx.events.find("verify")
        assert verify.status == "ok"
        assert verify.detail["checked_at_probe"] is True
        assert warm.diagnostics.cache_hit

    def test_disk_and_memory_hits_verify_alike(
        self, tiny_bert, cache_dir, monkeypatch
    ):
        """Both tiers serve a plan verified once per content address: the
        memory entry carries the record of the cold run's verify pass,
        so its hit checks nothing and reports that check; the entry
        promoted from disk carries no record and is checked at the
        probe."""
        cluster = paper_cluster()
        _, first = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        calls = count_checks(monkeypatch)
        seen = {}
        # the cold run's store serves from memory; a fresh store over
        # the same cache_dir serves from disk
        for tier, store in (
            ("memory", first.store),
            ("disk", ArtifactStore(disk=DiskBackend(cache_dir))),
        ):
            calls.clear()
            ctx = PlanningContext(tiny_bert, cluster, first.config, store=store)
            assert ctx.run().diagnostics.cache_hit
            disk_hits = ctx.metrics.snapshot()["planner.store.disk_hits"]
            assert disk_hits == (tier == "disk")
            assert len(calls) == (tier == "disk"), tier
            event = ctx.events.find("verify")
            seen[tier] = (event.status, event.detail)
        cold = dict(first.events.find("verify").detail, checked_at_probe=True)
        assert seen["memory"] == ("ok", cold)
        # the probe has no search estimate to hold the plan to: one
        # invariant fewer, every statistic the same
        assert seen["disk"] == (
            "ok",
            dict(cold, invariants_checked=cold["invariants_checked"] - 1),
        )

    def test_memory_hit_is_verified_by_the_pass(self, tiny_bert, cache_dir):
        cluster = paper_cluster()
        _, first = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        config = first.config
        ctx = PlanningContext(tiny_bert, cluster, config, store=first.store)
        warm = ctx.run()
        assert warm.diagnostics.cache_hit
        assert ctx.events.find("verify").status == "ok"

    def test_half_written_entry_is_miss_then_repaired(
        self, tiny_bert, cache_dir
    ):
        cluster = paper_cluster()
        _, ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        path = plan_entry(ctx)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # simulate a crash mid-write

        warm, warm_ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        assert not warm.diagnostics.cache_hit
        # the run replaced the truncated entry with a valid one
        assert warm_ctx.events.find("evaluate").status == "ok"
        repaired = json.loads(path.read_text())
        assert repaired["version"] == 1

        third, third_ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        assert third_ctx.events.find("evaluate").detail["reuse"] is True
        assert third.diagnostics.cache_hit

    def test_invariant_violating_entry_is_miss(self, tiny_bert, cache_dir):
        """A cached deployment that drops a stage fails verification on
        load and is replanned, not deployed."""
        cluster = paper_cluster()
        _, ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        path = plan_entry(ctx)
        doc = json.loads(path.read_text())
        doc["stages"][0]["tasks"] = doc["stages"][0]["tasks"][:-2]
        path.write_text(json.dumps(doc))

        warm, warm_ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        assert not warm.diagnostics.cache_hit
        assert warm_ctx.events.find("evaluate").status == "ok"
        assert warm_ctx.events.find("verify").status == "ok"
        assert json.loads(path.read_text()) != doc

    def test_verify_false_restores_legacy_load(self, tiny_bert, cache_dir):
        """With verification off, a structurally valid but tampered
        entry loads (the pre-verifier behaviour callers opt back into)."""
        cluster = paper_cluster()
        _, ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir,
                               verify=False)
        path = plan_entry(ctx)
        doc = json.loads(path.read_text())
        doc["stages"][0]["tasks"] = doc["stages"][0]["tasks"][:-2]
        path.write_text(json.dumps(doc))
        warm, warm_ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir,
                                       verify=False)
        assert warm_ctx.events.find("evaluate").detail["reuse"] is True
        assert warm.diagnostics.cache_hit
        assert not warm_ctx.has(VERIFIED)

    def test_store_leaves_no_temp_files(self, tiny_bert, cache_dir):
        _, ctx = plan_with_ctx(tiny_bert, paper_cluster(), 64, cache_dir)
        leftovers = [p for p in cache_dir.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []
        assert plan_entry(ctx).exists()

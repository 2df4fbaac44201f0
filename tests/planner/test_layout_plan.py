"""Finished plans addressed by their layout.

Algorithm 1 reads the memory budget only as a feasibility mask, so most
budgets give back a layout the store has already evaluated.  The
evaluate pass addresses its plan by that layout too
(:meth:`~repro.planner.passes.EvaluatePass.layout_key`): a known layout
takes the stored plan, its deployment JSON and its budget-free
verification report, and the run stores its ``evaluated`` entry as a
view of the same plan.  These tests hold that path to the plan a
fresh store makes, to a budget check on every run, to the key the
budget-free report is reused under, and to run-local diagnostics.
"""

import concurrent.futures
import dataclasses
import sys
import threading

import pytest

import repro.verify
from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner.deployment import plan_to_json
from repro.planner import (
    DP_CONTEXT,
    EVALUATED,
    SEARCH_RESULT,
    VERIFIED,
    ArtifactStore,
    DiskBackend,
    PlannerConfig,
    PlanningContext,
)
from repro.planner import passes as planner_passes
from repro.profiler.memory import OptimizerKind
from repro.verify import PlanVerificationError

GiB = 2**30


@pytest.fixture(scope="module")
def graph():
    return build_bert(BertConfig(hidden_size=64, num_layers=4, num_heads=4))


@pytest.fixture
def checks(monkeypatch):
    """Count full :func:`repro.verify.check_plan` calls."""
    calls = []
    real = repro.verify.check_plan

    def counting(*args, **kwargs):
        calls.append(kwargs.get("memory_budget"))
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.verify, "check_plan", counting)
    return calls


def run(graph, store, budget=None, cluster=None, **overrides):
    """One planning run against ``store``; returns ``(plan, ctx)``."""
    config = PlannerConfig(
        batch_size=64,
        memory_budget=None if budget is None else budget * GiB,
        **overrides,
    )
    ctx = PlanningContext(
        graph, cluster or paper_cluster(1), config, store=store
    )
    return ctx.run(), ctx


def layout_hits(ctx):
    return ctx.events.find("evaluate").detail["layout_hits"]


class TestKnownLayout:
    def test_budget_on_a_known_layout_takes_the_stored_plan(
        self, graph, checks
    ):
        store = ArtifactStore()
        base, base_ctx = run(graph, store)
        assert layout_hits(base_ctx) == 0
        delta, ctx = run(graph, store, budget=8)
        assert ctx.events.find("stage_search").status == "ok"
        assert layout_hits(ctx) == 1
        assert ctx.metrics.get("evaluate.layout_hits").value == 1
        assert ctx.layout is base_ctx.layout
        # the plan a fresh store makes at the same budget, byte for byte
        fresh, fresh_ctx = run(graph, ArtifactStore(), budget=8)
        assert layout_hits(fresh_ctx) == 0
        assert plan_to_json(delta, graph) == plan_to_json(fresh, graph)
        assert ctx.plan_document == plan_to_json(fresh, graph)
        assert delta.iteration_time == fresh.iteration_time
        assert delta.throughput == fresh.throughput
        # the same verification, without a second full check
        assert checks == [None, 8 * GiB]
        report, fresh_report = ctx.get(VERIFIED), fresh_ctx.get(VERIFIED)
        assert report.invariants_checked == fresh_report.invariants_checked
        assert report.stats == fresh_report.stats
        assert ctx.events.find("verify").detail == (
            fresh_ctx.events.find("verify").detail
        )

    def test_a_new_layout_is_built(self, graph):
        store = ArtifactStore()
        _, base_ctx = run(graph, store)
        _, ctx = run(graph, store, budget=0.5)
        assert ctx.layout is not base_ctx.layout
        assert layout_hits(ctx) == 0

    def test_no_store_builds_no_layout(self, graph):
        _, ctx = run(graph, None, budget=8)
        assert ctx.layout is None
        assert "layout_hits" not in ctx.events.find("evaluate").detail
        assert ctx.metrics.get("evaluate.layout_hits") is None

    def test_known_layout_in_a_run_with_a_disk_tier(self, graph, tmp_path):
        """An alias writes its layout's deployment JSON to disk, and a
        restarted process reads it back as the plan of that budget."""
        store = ArtifactStore(disk=DiskBackend(tmp_path))
        run(graph, store)
        delta, ctx = run(graph, store, budget=8)
        fp = ctx.artifact_fps[EVALUATED]
        path = tmp_path / store._relpath(EVALUATED, fp)
        assert path.read_text() == plan_to_json(delta, graph)
        restarted, warm_ctx = run(
            graph, ArtifactStore(disk=DiskBackend(tmp_path)), budget=8
        )
        assert restarted.diagnostics.cache_hit
        assert warm_ctx.plan_document == path.read_text()


class TestBudgetCheckEveryRun:
    def test_known_layout_over_the_runs_budget_fails(
        self, graph, monkeypatch
    ):
        """A run whose search returns a known layout is still held to its
        own budget: here the search is made to return the unbudgeted
        layout under a budget below its peak stage memory."""
        store = ArtifactStore()
        base, base_ctx = run(graph, store)
        stored = base_ctx.get(SEARCH_RESULT)
        peak = max(s.profile.memory for s in base.stages)
        monkeypatch.setattr(
            planner_passes, "form_stage", lambda *a, **k: stored
        )
        with pytest.raises(PlanVerificationError) as ei:
            run(graph, store, budget=0.75 * peak / GiB)
        messages = [v.message for v in ei.value.violations]
        assert messages and all(
            "exceeding the run's memory budget" in m for m in messages
        )
        # the failed run's entry is gone; the layout still serves
        _, ctx = run(graph, store, budget=peak / GiB)
        assert layout_hits(ctx) == 1

    @pytest.mark.parametrize("reader", ["verified_plan", "recorded_plan"])
    def test_a_record_is_held_to_the_readers_budget(
        self, graph, checks, reader
    ):
        """The probe and the event loop serve a stored plan on its
        layout's record only under the reader's own budget: a reader
        whose budget the plan exceeds gets a miss, made without a full
        check, and the failure evicts the entry."""
        store = ArtifactStore()
        base, base_ctx = run(graph, store)
        fp = base_ctx.artifact_fps[EVALUATED]
        peak = max(s.profile.memory for s in base.stages)
        tight = PlanningContext(
            graph,
            paper_cluster(1),
            PlannerConfig(batch_size=64, memory_budget=0.75 * peak),
            store=store,
        )
        assert getattr(store, reader)(fp, tight) is None
        assert len(checks) == 1  # the base run's own check
        assert f"{EVALUATED}:{fp}" not in store

    def test_budget_check_counts_like_a_full_check(self, graph, checks):
        store = ArtifactStore()
        run(graph, store)
        _, ctx = run(graph, store, budget=8)
        _, unbudgeted = run(graph, ArtifactStore())
        stages = len(ctx.get(EVALUATED).stages)
        assert ctx.get(VERIFIED).invariants_checked == (
            unbudgeted.get(VERIFIED).invariants_checked + stages
        )


class TestReportKey:
    """The budget-free report is reused only under the inputs the
    budget-free checks read."""

    @pytest.fixture
    def primed(self, graph):
        store = ArtifactStore()
        _, ctx = run(graph, store)
        return store, ctx

    def reverify(self, store, base_ctx, graph, cluster=None, **overrides):
        """Verify the base run's layout plan as another run would."""
        _, other = run(graph, ArtifactStore(), cluster=cluster, **overrides)
        other.layout = base_ctx.layout
        search = base_ctx.get(SEARCH_RESULT)
        return store.verify_layout(
            "unstored",
            base_ctx.layout.plan.view(),
            other,
            search.solution.estimated_iteration_time(),
        )

    def test_same_inputs_reuse_it(self, primed, graph, checks):
        store, ctx = primed
        report, document = self.reverify(store, ctx, graph, budget=8)
        assert len(checks) == 1  # the other run's own plan only
        assert report.ok
        assert document == ctx.plan_document

    @pytest.mark.parametrize(
        "change",
        [
            {"graph": build_bert(
                BertConfig(hidden_size=64, num_layers=2, num_heads=4)
            )},
            {"cluster": paper_cluster(2)},
            {"optimizer": OptimizerKind.SGD},
        ],
        ids=["graph", "cluster", "optimizer"],
    )
    def test_other_inputs_check_in_full(self, primed, graph, checks, change):
        store, ctx = primed
        other_graph = change.pop("graph", graph)
        self.reverify(store, ctx, other_graph, **change)
        assert len(checks) == 2  # the other run's plan, then this one

    def test_a_record_without_expected_time_checks_a_search_in_full(
        self, primed, graph, checks
    ):
        """A record made with no expected iteration time (a stored
        plan's check) serves lookups without one, never a verify pass
        that has one."""
        store, ctx = primed
        record = ctx.layout.verified
        ctx.layout.verified = dataclasses.replace(record, expected=None)
        assert store.verified_plan(ctx.artifact_fps[EVALUATED], ctx)
        assert len(checks) == 0
        self.reverify(store, ctx, graph, budget=8)
        assert len(checks) == 2  # the other run's plan, then this one
        assert ctx.layout.verified.expected == record.expected

    @pytest.mark.parametrize("field", ["stages", "model_name", "timing"])
    def test_changed_plan_checks_in_full(self, primed, graph, checks, field):
        store, ctx = primed
        plan = ctx.layout.plan.view()
        if field == "stages":
            plan.stages.pop()
        elif field == "model_name":
            plan.model_name = "renamed"
        else:
            plan.iteration_time *= 2
        _, other = run(graph, ArtifactStore(), budget=8)
        other.layout = ctx.layout
        search = ctx.get(SEARCH_RESULT)
        report, document = store.verify_layout(
            "unstored", plan, other, search.solution.estimated_iteration_time()
        )
        assert len(checks) == 2
        assert document == plan_to_json(plan, graph)
        assert report.ok == (field != "stages")


class TestRunLocalDiagnostics:
    def test_each_run_keeps_its_own_diagnostics(self, graph):
        store = ArtifactStore()
        base, base_ctx = run(graph, store)
        base_search = dict(base.diagnostics.search)
        base_timings = dict(base.diagnostics.pass_timings)
        delta, ctx = run(graph, store, budget=8)
        assert layout_hits(ctx) == 1
        totals = {
            k: v for k, v in ctx.events.find("stage_search").detail.items()
            if k in delta.diagnostics.search
        }
        assert delta.diagnostics.search == totals
        assert delta.diagnostics.search != base_search
        assert not delta.diagnostics.cache_hit
        # nothing this run stamped reached the base run, the shared plan
        # or either entry
        assert base.diagnostics.search == base_search
        assert base.diagnostics.pass_timings == base_timings
        shared = ctx.layout.plan.diagnostics
        assert shared.search == {} and shared.pass_timings == {}
        entry = store.get(EVALUATED, ctx.artifact_fps[EVALUATED]).payload
        assert entry.diagnostics.search == delta.diagnostics.search
        assert entry.diagnostics.pass_timings == {}
        base_entry = store.get(
            EVALUATED, base_ctx.artifact_fps[EVALUATED]
        ).payload
        assert base_entry.diagnostics.search == base_search
        # a warm repeat of either budget reports its own run's search
        warm, _ = run(graph, store, budget=8)
        assert warm.diagnostics.cache_hit
        assert warm.diagnostics.search == delta.diagnostics.search

    def test_mutating_a_run_plan_leaves_the_layout(self, graph):
        store = ArtifactStore()
        base, _ = run(graph, store)
        served = plan_to_json(base, graph)
        base.stages.pop()
        base.iteration_time = 1.0
        delta, ctx = run(graph, store, budget=8)
        assert layout_hits(ctx) == 1
        assert plan_to_json(delta, graph) == served
        assert delta.iteration_time != 1.0


class TestReadOnlyAssignment:
    def test_editing_a_returned_plans_ranks_raises(self, graph):
        """Every view of a stored plan shares its device assignment, so
        the assignment is read-only: an edit raises instead of reaching
        the next probe hit or layout hit."""
        store = ArtifactStore()
        base, _ = run(graph, store)
        ranks = dict(base.assignment.ranks)
        key = next(iter(ranks))
        with pytest.raises(TypeError):
            base.assignment.ranks[key] = tuple(reversed(ranks[key]))
        warm, _ = run(graph, store)
        delta, ctx = run(graph, store, budget=20)
        assert warm.diagnostics.cache_hit and layout_hits(ctx) == 1
        for plan in (warm, delta):
            assert dict(plan.assignment.ranks) == ranks


def weight(store):
    """The memory tier's bytes but the DP context's, which grows with
    every search."""
    return sum(
        art.nbytes for art in store._mem.values() if art.name != DP_CONTEXT
    )


class TestAliasAccounting:
    def test_an_alias_weighs_only_its_own_view(self, graph):
        store = ArtifactStore()
        run(graph, store)
        before = weight(store)
        _, ctx = run(graph, store, budget=8)
        entry = store.get(EVALUATED, ctx.artifact_fps[EVALUATED])
        assert entry.layout is ctx.layout
        assert entry.payload is not ctx.layout.plan
        assert entry.payload.stages[0] is ctx.layout.plan.stages[0]
        assert entry.nbytes < ctx.layout.nbytes
        search = store.get(SEARCH_RESULT, ctx.artifact_fps[SEARCH_RESULT])
        added = weight(store) - before
        assert added == entry.nbytes + search.nbytes
        assert store.counters()["memory_bytes"] == sum(
            art.nbytes for art in store._mem.values()
        )

    def test_the_layout_weight_passes_to_the_next_entry(self, graph):
        store = ArtifactStore()
        _, base_ctx = run(graph, store)
        _, ctx = run(graph, store, budget=8)
        layout = ctx.layout
        owner, alias = (
            store.get(EVALUATED, c.artifact_fps[EVALUATED])
            for c in (base_ctx, ctx)
        )
        alias_weight = alias.nbytes
        store.evict(EVALUATED, base_ctx.artifact_fps[EVALUATED])
        assert alias.nbytes == alias_weight + layout.nbytes
        assert store.layout_plan(layout.key) is layout
        assert store.counters()["memory_bytes"] == sum(
            art.nbytes for art in store._mem.values()
        )
        store.evict(EVALUATED, ctx.artifact_fps[EVALUATED])
        assert store.layout_plan(layout.key) is None
        assert layout.holders == []
        # a layout no entry holds is built again
        _, again = run(graph, store, budget=4)
        assert layout_hits(again) == 0
        assert owner.layout is layout

    def test_unverified_layout_is_not_indexed(self, graph):
        store = ArtifactStore()
        _, ctx = run(graph, store, verify=False)
        assert store.layout_plan(ctx.layout.key) is None
        _, again = run(graph, store, budget=8, verify=False)
        assert layout_hits(again) == 0


class TestConcurrentLayouts:
    def test_concurrent_deltas_and_evictions_keep_the_accounting(
        self, graph
    ):
        """Threads planning budget deltas over one store while another
        thread evicts their entries: every run serves the plan a fresh
        store makes, and the tier's bytes, the holders and the index
        agree at the end."""
        budgets = [None, 0.5, 0.7, 1.0, 2.0, 4.0, 8.0, 16.0]
        fresh = {
            b: plan_to_json(run(graph, ArtifactStore(), budget=b)[0], graph)
            for b in budgets
        }
        store = ArtifactStore()
        stop = threading.Event()
        errors = []

        def planner(worker):
            try:
                for i in range(12):
                    budget = budgets[(worker + i) % len(budgets)]
                    plan, _ = run(graph, store, budget=budget)
                    assert plan_to_json(plan, graph) == fresh[budget]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def evictor():
            while not stop.is_set():
                with store._lock:
                    keys = [a.fingerprint for a in store._mem.values()
                            if a.name == EVALUATED]
                for fp in keys[::2]:
                    store.evict(EVALUATED, fp)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sweeper = threading.Thread(target=evictor)
            sweeper.start()
            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                list(pool.map(planner, range(6), timeout=300))
        finally:
            stop.set()
            sweeper.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not sweeper.is_alive()
        assert errors == []
        live = list(store._mem.values())
        assert store._mem_bytes == sum(art.nbytes for art in live)
        for art in live:
            if art.layout is not None:
                assert any(held is art for held in art.layout.holders)
        for layout in store._layouts.values():
            assert layout.holders and layout.verified is not None
            for held in layout.holders:
                assert store._mem.get(held.key) is held
                assert held.layout is layout

"""Budget deltas that land on a known layout, as the plan service sees
them.

A delta whose stage search returns a layout the store already evaluated
takes the stored plan (``evaluate.layout_hits``) but searched, so it is
labelled ``delta``; its answer is the one a fresh engine gives.  The
request's ``service.plan`` span holds its passes and the engine's own
steps as children.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.obs.tracer import Tracer
from repro.planner import ArtifactStore, PlannerConfig, PlanningContext
from repro.planner.events import OK, PassEvent
from repro.service import PlanEngine, ServiceError

MODEL = {"family": "bert", "hidden": 64, "layers": 4, "heads": 4}
PARAMS = {"model": MODEL, "cluster": {"preset": "v100x8"}, "batch_size": 64}
#: budgets (GiB) over this model's layouts: infeasible, microbatch counts
#: 4, 2 and 1 (the unbudgeted layout), and repeats of each
BUDGETS = [None, 0.05, 0.5, 0.7, 1.0, 1.5, 2.0, 4.0, 8.0]


def request(budget):
    if budget is None:
        return dict(PARAMS)
    return dict(PARAMS, options={"memory_budget_gb": budget})


def answer(engine, budget):
    """``(plan JSON, label, verified)`` of one request, or its error."""
    try:
        result = engine.handle("plan", request(budget))
    except ServiceError as exc:
        return ("error", exc.code)
    meta = result["meta"]
    return (result["plan"].text, meta["cache"], meta["verified"])


class TestLabels:
    def test_a_delta_on_a_known_layout_stays_a_delta(self):
        engine = PlanEngine(workers=1)
        assert engine.plan(request(None))["meta"]["cache"] == "cold"
        delta = engine.plan(request(8.0))
        assert delta["meta"]["cache"] == "delta"
        assert delta["meta"]["verified"] is True
        counters = engine.stats()["counters"]
        assert counters["evaluate.layout_hits"] == 1
        assert counters["service.delta_results"] == 1
        # its repeat is warm, and a new layout is no hit
        assert engine.plan(request(8.0))["meta"]["cache"] == "warm"
        assert engine.plan(request(0.5))["meta"]["cache"] == "delta"
        assert engine.stats()["counters"]["evaluate.layout_hits"] == 1

    def test_a_run_that_searched_is_no_warm_hit(self):
        def ctx(*events):
            return mock.Mock(events=list(events))

        reused = {"reuse": True}
        searched = PassEvent("stage_search", OK)
        # a reused evaluate does not make a run that searched warm
        assert PlanEngine._classify(ctx(
            PassEvent("coarsen", "skipped", detail=reused),
            searched,
            PassEvent("evaluate", "skipped", detail=reused),
        ))[0] == "delta"
        assert PlanEngine._classify(ctx(
            PassEvent("coarsen", "skipped", detail=reused),
            PassEvent("stage_search", "skipped", detail=reused),
            PassEvent("evaluate", "skipped", detail=reused),
            PassEvent("verify", OK),
        ))[0] == "warm"
        assert PlanEngine._classify(ctx(searched))[0] == "cold"


#: a fresh engine's answer per budget: the first request a new engine
#: serves, so its label is ``cold``
_FRESH = {}


def fresh_answer(budget):
    if budget not in _FRESH:
        _FRESH[budget] = answer(PlanEngine(workers=1), budget)
    return _FRESH[budget]


class TestSharedEngineEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(st.sampled_from(BUDGETS), min_size=1, max_size=6))
    def test_budget_sequences(self, budgets):
        """One shared engine answers every request of a budget sequence
        with the plan and ``verified`` a fresh engine gives, and labels
        it as an engine without the layout index does."""
        shared = PlanEngine(workers=1)
        unindexed = PlanEngine(workers=1)
        got = [answer(shared, b) for b in budgets]
        with mock.patch.object(
            ArtifactStore, "layout_plan", lambda self, key: None
        ):
            reference = [answer(unindexed, b) for b in budgets]
        assert got == reference
        for budget, mine in zip(budgets, got):
            fresh = fresh_answer(budget)
            if fresh[0] == "error":
                assert mine == fresh
            else:
                assert (mine[0], mine[2]) == (fresh[0], fresh[2])


class TestSpans:
    def test_a_delta_request_is_traced_under_its_plan_span(self):
        engine = PlanEngine(workers=1)
        engine.plan(request(None))
        engine.tracer.clear()
        engine.plan(request(8.0))
        spans = engine.tracer.spans()
        (plan,) = [s for s in spans if s.name == "service.plan"]
        children = [s for s in spans if s.parent_id == plan.span_id]
        names = [s.name for s in children]
        for name in ("planner.probe", "stage_search", "planner.put",
                     "evaluate", "verify", "planner.finish",
                     "service.classify", "service.fold", "service.encode"):
            assert name in names
        end = plan.start + plan.duration
        assert all(
            plan.start <= s.start and s.start + s.duration <= end
            for s in children
        )
        (evaluate,) = [s for s in children if s.name == "evaluate"]
        assert evaluate.attrs["layout_hits"] == 1
        (probe,) = [s for s in children if s.name == "planner.probe"]
        assert probe.attrs["hit"] is False

    def test_the_event_log_is_the_runs_own(self):
        """Runs that share one tracer (as the engine's requests do) each
        read their own passes from their event log."""
        graph = build_bert(BertConfig(hidden_size=64, num_layers=2,
                                      num_heads=4))
        tracer, store = Tracer(), ArtifactStore()
        runs = []
        for budget in (None, 8 * 2**30):
            ctx = PlanningContext(
                graph, paper_cluster(1),
                PlannerConfig(batch_size=64, memory_budget=budget),
                tracer=tracer, store=store,
            )
            ctx.run()
            runs.append(ctx)
        passes = [e.name for e in runs[0].events]
        assert passes == [e.name for e in runs[1].events]
        assert len(passes) == len(set(passes))
        assert [e.status for e in runs[1].events if e.detail.get("reuse")]
        assert not [e for e in runs[0].events if e.detail.get("reuse")]
        assert len(tracer.spans("planner.pass")) == 2 * len(passes)

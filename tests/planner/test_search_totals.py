"""The stage search's accounting: the run's sweep and level records are
the one source of every search total, and each sink -- the
``stage_search`` detail, the run's metrics, ``--explain`` and the plan
service's ``/v1/stats`` -- reads the same values.  Also the two planner
hooks the benchmark ledger wraps: ``search.form_stage_dp`` as a module
attribute and the pass's flat numeric detail."""

from unittest import mock

from repro.cli import _render_events
from repro.hardware import paper_cluster
from repro.partitioner import search
from repro.partitioner.search import form_stage
from repro.partitioner.stage_dp import TOTAL_METRICS, DPRun
from repro.planner import PlannerConfig, PlanningContext, ensure_store
from repro.planner.context import DP_CONTEXT
from repro.planner.store import ArtifactStore
from repro.service import PlanEngine
from repro.service.protocol import normalize_plan_request

#: bert-base on two nodes at 20 GiB, then at 8 GiB on the same store:
#: the second search reuses, skips and prunes sweeps and seeds a level
REQUESTS = [
    {
        "model": {"preset": "bert-base"},
        "cluster": {"preset": "v100x16"},
        "batch_size": 256,
        "options": {"memory_budget_gb": gb},
    }
    for gb in (20, 8)
]


def planned(requests):
    """Each request planned in order on one store, as the plan service
    plans it: the run contexts."""
    store = ArtifactStore()
    contexts = []
    for params in requests:
        req = normalize_plan_request(params)
        ctx = PlanningContext(req.graph, req.cluster, req.config, store=store)
        ctx.run()
        contexts.append(ctx)
    return contexts


def test_every_total_is_a_sum_over_the_records():
    ctx = planned(REQUESTS[:1])[0]
    run = DPRun(ctx.require(DP_CONTEXT), ctx.cluster,
                ctx.config.memory_budget)
    result = form_stage(run)
    totals = run.totals()
    assert set(totals) == set(TOTAL_METRICS)
    assert result.totals == totals
    assert totals["dp_calls"] == len(run.sweeps) > 0
    assert totals["states_evaluated"] == sum(s.states for s in run.sweeps)
    assert totals["candidates_tried"] == sum(
        lv.candidates for lv in run.levels
    ) == result.candidates_tried
    assert len(run.levels) in (1, 2)   # two nodes: n = 1, then n = 2
    # each total reads as an attribute of the run
    assert all(getattr(run, name) == totals[name] for name in TOTAL_METRICS)
    assert run.sweep_bounds == [s.bound for s in run.sweeps]


def test_every_total_reaches_every_sink():
    """Two budgets on one store: every total of the run's records shows
    with one value in the detail, the run's metrics and ``--explain``,
    and the plan service's ``/v1/stats`` sums them over both runs."""
    contexts = planned(REQUESTS)
    runs = []
    for ctx in contexts:
        detail = ctx.events.find("stage_search").detail
        totals = {name: detail[name] for name in TOTAL_METRICS}
        snapshot = ctx.metrics.snapshot()
        explain = _render_events(ctx)
        for name, metric in TOTAL_METRICS.items():
            assert snapshot[metric] == totals[name], name
            assert f"{name}={totals[name]}," in explain, name
        runs.append(totals)
    # the delta exercises every cut but a fallback
    assert all(
        runs[1][name] > 0 for name in TOTAL_METRICS
        if name not in ("cells_reduced", "band_builds", "seed_fallbacks")
    ), runs[1]

    engine = PlanEngine(workers=1)
    try:
        metas = [engine.plan(dict(params))["meta"] for params in REQUESTS]
        counters = engine.stats()["counters"]
    finally:
        engine.drain()
    assert [meta["cache"] for meta in metas] == ["cold", "delta"]
    for name, metric in TOTAL_METRICS.items():
        if name == "band_width_max":
            # a gauge: the latest run's widest slab
            assert counters[metric] == runs[-1][name]
        else:
            assert counters[metric] == sum(run[name] for run in runs), name


def test_an_infeasible_search_publishes_its_totals():
    from repro.hardware import tiny_cluster
    from repro.models import build_mlp
    from repro.planner import PartitioningError

    ctx = PlanningContext(
        build_mlp((256, 1024, 1024, 256)),
        tiny_cluster(num_nodes=1, devices_per_node=2, memory_bytes=1024**2),
        PlannerConfig(batch_size=8),
    )
    try:
        ctx.run()
    except PartitioningError:
        pass
    else:
        raise AssertionError("the tiny cluster fits the model")
    snapshot = ctx.metrics.snapshot()
    assert set(TOTAL_METRICS.values()) <= set(snapshot)
    assert snapshot["search.candidates_tried"] == 0


# ----------------------------------------------------------------------
# the hooks the benchmark ledger wraps


def test_a_wrapped_form_stage_dp_sees_every_sweep(tiny_bert):
    """A wrapper installed on ``search.form_stage_dp`` sees each sweep
    of the search, and the search's ``dp.calls`` counts exactly those."""
    sweep = search.form_stage_dp
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    base = PlanningContext(tiny_bert, paper_cluster(),
                           PlannerConfig(batch_size=64))
    base.run()
    with mock.patch.object(search, "form_stage_dp", wrapped):
        for budget in (None, 2 * 1024**3):
            calls.clear()
            ctx = PlanningContext(
                tiny_bert, paper_cluster(2),
                PlannerConfig(batch_size=64, memory_budget=budget),
                store=ensure_store(base),
            )
            ctx.run()
            detail = ctx.events.find("stage_search").detail
            assert len(calls) == detail["dp_calls"] == (
                ctx.metrics.counter("dp.calls").value
            ) > 0


def test_flat_states_equal_the_traced_sweeps(tiny_bert):
    """The ``stage_search`` detail's flat ``states_evaluated`` (the
    ledger's ``stage_dp.states``) is the sum over the traced
    ``dp.form_stage_dp`` spans."""
    ctx = PlanningContext(tiny_bert, paper_cluster(),
                          PlannerConfig(batch_size=64, trace=True))
    ctx.run()
    detail = ctx.events.find("stage_search").detail
    spans = [s for s in ctx.tracer.spans("partitioner.dp")
             if s.name == "dp.form_stage_dp"]
    assert isinstance(detail["states_evaluated"], int)
    assert isinstance(detail["dp_calls"], int)
    assert detail["states_evaluated"] == sum(
        s.attrs["states_evaluated"] for s in spans
    ) > 0
    assert detail["dp_calls"] == len(spans)

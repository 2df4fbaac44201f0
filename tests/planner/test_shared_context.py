"""Concurrent runs share one DP context.

A stored ``dp_context`` is a content-addressed memo: every run that
reaches it through an :class:`ArtifactStore` keeps its cluster, memory
budget and search counters in a ``DPRun`` of its own, and the memo's
fills are idempotent.  So same-model deltas may run at once -- library
threads and plan-engine requests over one store -- and each must plan
exactly what it plans alone: the cold plan from a fresh store.  A delta
may be seeded by the answers the shared context stored (DESIGN.md D2f),
so it ranks at least one and at most the cold run's candidates, and it
makes the cold run's sweeps unless a seeded level fell back.
"""

import concurrent.futures
import json
import sys
import threading

import pytest

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner.deployment import plan_to_json
from repro.planner import (
    DP_CONTEXT,
    EVALUATED,
    PlannerConfig,
    PlanningContext,
    plan_graph,
)
from repro.service.engine import PlanEngine

THREADS = 8
BATCH = 256
CLUSTERS = {"v100x8": 1, "v100x16": 2, "v100x32": 4}
BUDGETS_GB = (None, 2, 4, 8)
#: every (cluster, budget) delta; the ones at budgets None and 4 GiB
#: go through ``PlanEngine.handle``, the others through the library
JOBS = [(name, gb) for name in CLUSTERS for gb in BUDGETS_GB]
ENGINE_BUDGETS = (None, 4)
#: bound on every wait of the concurrent test
TIMEOUT_S = 120


def bert_base():
    return build_bert(BertConfig(hidden_size=768, num_layers=12, num_heads=12))


def config(gb):
    return PlannerConfig(
        batch_size=BATCH, memory_budget=None if gb is None else gb * 2**30
    )


def outcome(plan, graph):
    """Deployment JSON, throughput and search counters of a plan."""
    diag = plan.diagnostics
    return (
        json.loads(plan_to_json(plan, graph)),
        plan.throughput,
        (diag.dp_calls, diag.candidates_tried, diag.states_evaluated),
    )


def fallbacks(metrics):
    """The seeded levels that fell back, in a metrics registry."""
    counter = metrics.get("search.seed_fallbacks")
    return 0 if counter is None else counter.value


def library_job(graph, store, name, gb, fell_back):
    ctx = PlanningContext(
        graph, paper_cluster(CLUSTERS[name]), config(gb), store=store
    )
    plan = ctx.run()
    fell_back.append(fallbacks(ctx.metrics))
    return outcome(plan, graph)


def engine_job(graph, engine, name, gb):
    params = {
        "model": {"preset": "bert-base"},
        "cluster": {"preset": name},
        "batch_size": BATCH,
    }
    if gb is not None:
        params["options"] = {"memory_budget_gb": gb}
    result = engine.plan(params)
    # the stored plan carries the run's counters
    stored = engine.store.get(EVALUATED, result["meta"]["fingerprint"])
    assert result["plan"] == outcome(stored.payload, graph)[0]
    assert result["meta"]["throughput"] == stored.payload.throughput
    return outcome(stored.payload, graph)


def seeded(graph):
    """An engine whose store holds one cold plan of bert-base on
    v100x8, and that run's context."""
    engine = PlanEngine(workers=THREADS)
    seed = PlanningContext(
        graph, paper_cluster(1), config(None), store=engine.store
    )
    seed.run()
    return engine, seed


def run_job(graph, engine, job, fell_back):
    """The job's outcome; a library job appends its fallbacks to
    ``fell_back`` (the engine counts those of its own runs)."""
    name, gb = job
    if gb in ENGINE_BUDGETS:
        return engine_job(graph, engine, name, gb)
    return library_job(graph, engine.store, name, gb, fell_back)


def assert_cold(got, want, fell_back):
    """A delta's outcome against the cold one: the same plan and
    throughput, at least one and at most the cold candidates, and the
    cold ``dp_calls`` and ``states_evaluated`` when no level fell
    back."""
    (doc, throughput, (calls, tried, states)), want_counters = got, want[2]
    assert (doc, throughput) == want[:2]
    assert 1 <= tried <= want_counters[1]
    if not fell_back:
        assert (calls, states) == (want_counters[0], want_counters[2])


@pytest.fixture(scope="module")
def graph():
    return bert_base()


@pytest.fixture(scope="module")
def cold(graph):
    """Each job's plan from a fresh store."""
    return {
        job: outcome(
            plan_graph(graph, paper_cluster(CLUSTERS[job[0]]), config(job[1])),
            graph,
        )
        for job in JOBS
    }


@pytest.fixture(scope="module")
def serial(graph):
    """Each job's outcome when the jobs run one after another over a
    seeded store, and the levels that fell back."""
    engine, _ = seeded(graph)
    fell_back = []
    outcomes = {job: run_job(graph, engine, job, fell_back) for job in JOBS}
    return outcomes, sum(fell_back) + fallbacks(engine.metrics)


def test_serial_deltas_match_cold_plans(cold, serial):
    outcomes, fell_back = serial
    for job in JOBS:
        assert_cold(outcomes[job], cold[job], fell_back)


@pytest.mark.parametrize("round_", range(3))
def test_concurrent_deltas_match_cold_and_serial(graph, cold, serial, round_):
    engine, seed = seeded(graph)
    store = engine.store
    memo = seed.require(DP_CONTEXT)
    fp = seed.artifact_fps[DP_CONTEXT]
    barrier = threading.Barrier(THREADS, timeout=TIMEOUT_S)
    done = threading.Event()
    refreshes = [0]

    fell_back = []

    def worker(jobs):
        barrier.wait()
        return {job: run_job(graph, engine, job, fell_back) for job in jobs}

    def refresher():
        # re-weigh the shared context while the runs insert bands and
        # time prefixes into it
        while not done.is_set():
            # (each walks the caches another run may be inserting into)
            store.refresh(DP_CONTEXT, fp, seed)
            memo.band_bytes
            refreshes[0] += 1

    shares = [JOBS[i::THREADS] for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the runs finely
    try:
        with concurrent.futures.ThreadPoolExecutor(THREADS + 1) as pool:
            watcher = pool.submit(refresher)
            try:
                parts = list(pool.map(worker, shares, timeout=TIMEOUT_S))
            finally:
                done.set()
            watcher.result(timeout=TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)

    results = {job: out for part in parts for job, out in part.items()}
    assert set(results) == set(JOBS)
    fell_back = sum(fell_back) + fallbacks(engine.metrics)
    for job in JOBS:
        assert_cold(results[job], cold[job], fell_back)
        assert results[job][:2] == serial[0][job][:2], job
    # every run read the one shared context, which grew by their bands
    assert store.get(DP_CONTEXT, fp).payload is memo
    assert {R for _, R, _ in memo._band_cache} == {1, 2, 4}
    assert refreshes[0] > 0
    store.refresh(DP_CONTEXT, fp, seed)
    assert store.counters()["memory_bytes"] == sum(
        art.nbytes for art in store._mem.values()
    )

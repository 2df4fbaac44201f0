"""Warm plan hits answered on the event loop.

A repeated ``plan`` whose graph is built and validated and whose stored
plan carries a matching verification record is answered by
``PlanEngine.warm_plan`` on the server's event loop: no worker pool
hand-off, no pass, no plan copy, and the stored deployment document
written into the response as it stands.  The cold run's verify pass
records its check on the entry it stores, so the first repeat is such
an answer.  Every other request -- a cold graph, an entry without a
record (one promoted from disk), an entry tampered after its record --
goes to the pool exactly as before, and so does every request while the
engine drains.
"""

import concurrent.futures
import copy
import dataclasses
import http.client
import json
import threading
import time

import pytest

from repro.partitioner.deployment import plan_to_json
from repro.planner import EVALUATED, PlanningContext, default_passes
from repro.planner.manager import PassManager
from repro.service import PlanEngine, PlanServer, ServiceError
from repro.service import engine as engine_module

MODEL = {"family": "bert", "hidden": 256, "layers": 4, "heads": 8}
PARAMS = {"model": MODEL, "cluster": {"preset": "v100x8"}, "batch_size": 64}


@pytest.fixture
def server():
    server = PlanServer(workers=2).start_in_thread()
    yield server
    server.stop()


class PoolSpy:
    """Counts the server's worker-pool submissions; ``refuse`` makes
    every submission fail the test's request instead."""

    def __init__(self, server, monkeypatch):
        self.calls = 0
        self.refuse = False
        real_submit = server._pool.submit

        def submit(fn, *args, **kwargs):
            if self.refuse:
                raise AssertionError("the request entered the worker pool")
            self.calls += 1
            return real_submit(fn, *args, **kwargs)

        monkeypatch.setattr(server._pool, "submit", submit)


@pytest.fixture
def pool(server, monkeypatch):
    return PoolSpy(server, monkeypatch)


def request(server, verb, path, params=None):
    """``(status, raw body)`` of one HTTP exchange."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        body = json.dumps(params).encode() if params is not None else None
        headers = {"Content-Length": str(len(body))} if body else {}
        conn.request(verb, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def plan(server, params=PARAMS):
    status, body = request(server, "POST", "/v1/plan", params)
    return status, json.loads(body)


def stats(server):
    status, body = request(server, "GET", "/v1/stats")
    assert status == 200
    return json.loads(body)["result"]


def warmed(server, params=PARAMS):
    """Plan ``params`` cold, then once more (a warm hit on the record the
    cold run's verify pass made); returns the cold result."""
    status, cold = plan(server, params)
    assert status == 200 and cold["result"]["meta"]["cache"] == "cold"
    status, first_hit = plan(server, params)
    assert status == 200 and first_hit["result"]["meta"]["cache"] == "warm"
    return cold["result"]


def stored_entry(engine):
    (art,) = [a for a in engine.store._mem.values() if a.name == EVALUATED]
    return art


class TestLoopAnswer:
    def test_repeat_is_answered_without_the_pool(self, server, pool):
        cold = warmed(server)
        pool.refuse = True
        for _ in range(3):
            status, doc = plan(server)
            assert status == 200
            meta = doc["result"]["meta"]
            assert meta["cache"] == "warm"
            assert meta["verified"] is True
            assert doc["result"]["plan"] == cold["plan"]

    def test_body_is_the_stored_document_as_it_stands(self, server, pool):
        warmed(server)
        pool.refuse = True
        status, body = request(server, "POST", "/v1/plan", PARAMS)
        assert status == 200
        stored = plan_to_json(stored_entry(server.engine).payload,
                              server.engine._graph_cache.get(
                                  json.dumps(MODEL, sort_keys=True)))
        assert body.startswith(b'{"ok": true, "result": {"plan": '
                               + stored.encode() + b', "meta": ')
        assert json.dumps(json.loads(body)).encode() == body

    def test_meta_matches_a_pool_hit(self, server, pool, tmp_path):
        warmed(server)
        _, loop_hit = plan(server, dict(PARAMS))
        PlanEngine(workers=1, cache_dir=tmp_path).plan(dict(PARAMS))
        # a new engine has not built the graph: its hit runs in the pool
        pool_meta = PlanEngine(workers=1, cache_dir=tmp_path).plan(
            dict(PARAMS)
        )["meta"]
        assert pool_meta["cache"] == "warm"
        loop_meta = loop_hit["result"]["meta"]
        timed = ("plan_ms", "wall_ms", "timings")
        assert {k: v for k, v in loop_meta.items() if k not in timed} == {
            k: v for k, v in pool_meta.items() if k not in timed
        }
        assert list(loop_meta) == list(pool_meta)
        assert list(loop_meta["timings"]) == list(pool_meta["timings"])
        assert loop_meta["reused_passes"] == [
            p.name for p in default_passes() if p.skip_when_planned
        ]
        assert sum(loop_meta["timings"].values()) <= loop_meta["wall_ms"]

    def test_fresh_plan_is_checked_once_and_its_repeat_is_a_loop_answer(
        self, monkeypatch
    ):
        """The cold run's verify pass checks the plan it stores and
        records the check on the entry, so the first repeat is answered
        by ``warm_plan`` and nothing checks the plan again."""
        checks = []
        check = PlanningContext.check_plan

        def counting(self, plan, expected_iteration_time=None):
            checks.append(plan)
            return check(self, plan, expected_iteration_time)

        monkeypatch.setattr(PlanningContext, "check_plan", counting)
        engine = PlanEngine(workers=1)
        cold = engine.plan(dict(PARAMS))
        assert cold["meta"]["cache"] == "cold"
        assert len(checks) == 1
        before = engine.stats()["counters"].get("service.loop_answers", 0)
        result, work = engine.warm_plan(dict(PARAMS))
        assert work is None
        assert result["meta"]["cache"] == "warm"
        assert json.loads(result["plan"].text) == cold["plan"]
        assert engine.stats()["counters"]["service.loop_answers"] == before + 1
        assert len(checks) == 1

    def test_stats_count_loop_answers(self, server, pool):
        warmed(server)
        before = stats(server)
        pool.refuse = True
        for _ in range(5):
            assert plan(server)[0] == 200
        pool.refuse = False
        after = stats(server)
        counters = after["counters"]

        def grew(name):
            return counters[name] - before["counters"].get(name, 0)

        assert grew("service.requests") == 5
        assert grew("service.warm_results") == 5
        assert grew("service.loop_answers") == 5
        assert grew("verify.memo_hits") == 5
        assert grew("validate.memo_hits") == 5
        warm = after["latency_ms"]["warm"]
        assert warm["count"] - before["latency_ms"]["warm"]["count"] == 5


class TestPoolFallback:
    def test_cold_graph_and_unrecorded_entry_go_to_the_pool(
        self, tmp_path, monkeypatch
    ):
        """A cold graph goes to the pool, and so does an entry without a
        verification record: here the plan promoted from disk once the
        memory tier dropped it, as after a restart.  The pool's probe
        checks and records it; the repeat after that is a loop answer."""
        server = PlanServer(workers=2, cache_dir=tmp_path).start_in_thread()
        try:
            pool = PoolSpy(server, monkeypatch)
            status, cold = plan(server)
            assert status == 200
            assert cold["result"]["meta"]["cache"] == "cold"
            assert pool.calls == 1  # the graph was not built yet
            server.engine.store.evict(
                EVALUATED, cold["result"]["meta"]["fingerprint"]
            )
            status, hit = plan(server)
            assert status == 200
            assert hit["result"]["meta"]["cache"] == "warm"
            assert pool.calls == 2  # the entry had no verification record
            assert hit["result"]["plan"] == cold["result"]["plan"]
            assert plan(server)[0] == 200
            assert pool.calls == 2
        finally:
            server.stop()

    def test_entry_tampered_after_its_record_is_replanned_in_the_pool(
        self, server, pool
    ):
        """The HTTP twin of ``test_recorded_entry_tampered_later_is_miss``:
        the per-hit digest no longer matches the record, so the loop
        does not answer and the pool replans and verifies the plan."""
        cold = warmed(server)
        art = stored_entry(server.engine)
        stage = art.payload.stages[0]
        art.payload.stages[0] = dataclasses.replace(
            stage, tasks=stage.tasks[:-2]
        )
        calls = pool.calls
        status, doc = plan(server)
        assert status == 200
        assert pool.calls == calls + 1
        meta = doc["result"]["meta"]
        assert meta["cache"] != "warm"
        assert meta["verified"] is True
        assert doc["result"]["plan"] == cold["plan"]

    def test_pool_queue_wait_is_not_in_wall_ms(self):
        """A miss the loop normalized counts its clock from when a
        worker picks it up, as a request normalized in the pool does:
        ``wall_ms`` never includes the wait in the pool's queue."""
        engine = PlanEngine(workers=1)
        engine.plan(dict(PARAMS))  # the graph is built and cached
        result, work = engine.warm_plan(dict(PARAMS, batch_size=32))
        assert result is None and work.req is not None
        time.sleep(1.0)  # queued behind other work
        meta = engine.handle("plan", work)["meta"]
        assert meta["timings"]["normalize_ms"] == work.normalize_ms
        assert sum(meta["timings"].values()) <= meta["wall_ms"]
        assert meta["wall_ms"] < sum(meta["timings"].values()) + 500

    def test_miss_is_normalized_once(self, server, pool, monkeypatch):
        warmed(server)  # the graph is built and cached
        calls = []
        real = engine_module.normalize_plan_request

        def counting(*args, **kwargs):
            calls.append(kwargs.get("build_graph", True))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "normalize_plan_request", counting)
        status, doc = plan(server, dict(PARAMS, batch_size=32))
        assert status == 200
        assert doc["result"]["meta"]["verified"] is True
        assert calls == [False]


class TestDrain:
    def test_loop_hit_during_drain_is_503(self, server, pool):
        warmed(server)
        assert server.engine.drain(timeout=1.0) is True
        status, doc = plan(server)
        assert status == 503
        assert doc["error"]["code"] == "shutting_down"

    def test_hit_during_drain_is_left_to_the_pool(self):
        """While draining the loop answers nothing: the pool joins a run
        of the same plan in flight, as for any request, and refuses a
        key nobody is computing."""
        engine = PlanEngine(workers=2)
        engine.plan(dict(PARAMS))
        engine.plan(dict(PARAMS))  # recorded: later hits are loop answers
        key = engine._normalize(dict(PARAMS)).key
        engine._closing.set()
        engine._inflight[key] = concurrent.futures.Future()
        result, work = engine.warm_plan(dict(PARAMS))
        assert result is None and work.req.key == key
        del engine._inflight[key]
        result, work = engine.warm_plan(dict(PARAMS))
        assert result is None and work.req.key == key
        with pytest.raises(ServiceError) as ei:
            engine.plan(dict(PARAMS))
        assert ei.value.code == "shutting_down"


class TestInProcess:
    def test_plan_runs_the_warm_path_first(self, monkeypatch):
        engine = PlanEngine(workers=1)
        cold = engine.plan(dict(PARAMS))
        engine.plan(dict(PARAMS))

        def no_run(self, ctx):
            raise AssertionError("a warm answer ran the pass manager")

        monkeypatch.setattr(PassManager, "run", no_run)
        warm = engine.plan(dict(PARAMS))
        assert warm["meta"]["cache"] == "warm"
        assert warm["plan"] == cold["plan"]
        assert isinstance(warm["plan"], dict)

    def test_warm_plan_builds_no_graph(self, monkeypatch):
        from repro.service import protocol

        def no_build(spec):
            raise AssertionError("the warm path built a graph")

        monkeypatch.setattr(protocol, "build_model", no_build)
        engine = PlanEngine(workers=1)
        params = dict(PARAMS)
        assert engine.warm_plan(params) == (None, params)

    def test_loop_answer_shares_the_stored_plan_and_reads_no_disk(
        self, tmp_path, monkeypatch
    ):
        engine = PlanEngine(workers=1, cache_dir=tmp_path)
        engine.plan(dict(PARAMS))
        engine.plan(dict(PARAMS))

        def no_read(relpath):
            raise AssertionError("the warm path read the disk")

        def no_copy(*args, **kwargs):
            raise AssertionError("the warm path copied the stored plan")

        monkeypatch.setattr(engine.store.disk, "read_bytes", no_read)
        monkeypatch.setattr(copy, "deepcopy", no_copy)
        result, work = engine.warm_plan(dict(PARAMS))
        assert work is None
        assert result["meta"]["cache"] == "warm"

    def test_a_declined_lookup_counts_one_store_hit(self, monkeypatch):
        """The loop counts a store hit only when it answers: a lookup
        whose record no longer serves is left to the pool, whose probe
        counts it once (the store's ``hits``, which every run copies
        into ``planner.store.hits``)."""
        from repro.verify import plan_checks

        engine = PlanEngine(workers=1)
        engine.plan(dict(PARAMS))
        engine.plan(dict(PARAMS))
        counters = engine.metrics.snapshot
        loop = counters()["service.loop_answers"]
        hits = engine.stats()["store"]["hits"]
        monkeypatch.setattr(
            plan_checks, "VERIFIER_VERSION", plan_checks.VERIFIER_VERSION + 1
        )
        assert engine.plan(dict(PARAMS))["meta"]["cache"] == "warm"
        assert counters()["service.loop_answers"] == loop
        assert engine.stats()["store"]["hits"] == hits + 1
        # the probe recorded its check: the next repeat is a loop answer
        engine.plan(dict(PARAMS))
        assert counters()["service.loop_answers"] == loop + 1
        assert engine.stats()["store"]["hits"] == hits + 2

    def test_concurrent_loop_and_pool_hits_agree(self):
        engine = PlanEngine(workers=2)
        cold = engine.plan(dict(PARAMS))
        engine.plan(dict(PARAMS))
        results = []

        def hit():
            results.append(engine.plan(dict(PARAMS))["plan"])

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [cold["plan"]] * 8

"""Unit tests for the content-addressed artifact store.

Covers the :class:`Artifact` value type, the size estimator behind the
memory LRU, the byte-budgeted :class:`DiskBackend`, every disk codec's
round trip, and the views every reader of a stored plan gets.
"""

import errno
import os

import numpy as np
import pytest

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.planner import (
    ArtifactStore,
    DiskBackend,
    PlannerConfig,
    PlanningContext,
)
from repro.planner.context import (
    BLOCKS,
    DP_CONTEXT,
    EVALUATED,
    VERIFIED,
)
from repro.partitioner.deployment import plan_to_json
from repro.partitioner.stage_dp import DPContext, DPRun
from repro.planner.store import (
    CODECS,
    Artifact,
    _estimate_nbytes,
)


@pytest.fixture(scope="module")
def planned_ctx():
    """One finished store-less planning run to harvest artifacts from."""
    graph = build_bert(
        BertConfig(hidden_size=256, num_layers=4, num_heads=8)
    )
    ctx = PlanningContext(
        graph, paper_cluster(1), PlannerConfig(batch_size=64)
    )
    ctx.run()
    return ctx


class TestArtifact:
    def test_key_is_name_and_fingerprint(self):
        art = Artifact(name="blocks", fingerprint="abcd")
        assert art.key == "blocks:abcd"

    def test_estimate_nbytes(self):
        assert _estimate_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert _estimate_nbytes("hello") == 5
        assert _estimate_nbytes([np.zeros(4, dtype=np.float32)]) == 64 + 16
        # opaque objects get a flat charge, never zero
        assert _estimate_nbytes(object()) > 0


class TestDiskBackend:
    def test_round_trip_and_counters(self, tmp_path):
        backend = DiskBackend(tmp_path)
        assert backend.read_bytes("missing.json") is None
        assert backend.misses == 1
        backend.write_bytes("a.json", b"payload")
        assert backend.read_bytes("a.json") == b"payload"
        assert backend.hits == 1

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.write_bytes("sub/dir/x.bin", b"\x00" * 64)
        names = [p.name for p in (tmp_path / "sub" / "dir").iterdir()]
        assert names == ["x.bin"]

    def test_budget_evicts_least_recently_used(self, tmp_path):
        backend = DiskBackend(tmp_path, byte_budget=250)
        backend.write_bytes("old.bin", b"a" * 100)
        os.utime(tmp_path / "old.bin", (1, 1))  # make it ancient
        backend.write_bytes("mid.bin", b"b" * 100)
        os.utime(tmp_path / "mid.bin", (2, 2))
        backend.write_bytes("new.bin", b"c" * 100)
        assert not (tmp_path / "old.bin").exists()
        assert (tmp_path / "mid.bin").exists()
        assert (tmp_path / "new.bin").exists()
        assert backend.evictions == 1
        assert backend.bytes_used() <= 250

    def test_read_refreshes_recency(self, tmp_path):
        backend = DiskBackend(tmp_path, byte_budget=250)
        backend.write_bytes("a.bin", b"a" * 100)
        backend.write_bytes("b.bin", b"b" * 100)
        for rel in ("a.bin", "b.bin"):
            os.utime(tmp_path / rel, (1, 1))
        backend.read_bytes("a.bin")  # touch: a becomes the youngest
        backend.write_bytes("c.bin", b"c" * 100)
        assert (tmp_path / "a.bin").exists()
        assert not (tmp_path / "b.bin").exists()

    def test_never_evicts_entry_being_written(self, tmp_path):
        backend = DiskBackend(tmp_path, byte_budget=50)
        backend.write_bytes("big.bin", b"x" * 100)
        # over budget but protected: the fresh write must survive
        assert (tmp_path / "big.bin").exists()

    def test_stats_shape(self, tmp_path):
        backend = DiskBackend(tmp_path, byte_budget=1000)
        backend.write_bytes("a.bin", b"a" * 10)
        stats = backend.stats()
        assert stats["bytes"] == 10.0
        assert stats["budget_bytes"] == 1000.0


class TestCodecs:
    @pytest.mark.parametrize("name", [BLOCKS])
    def test_json_round_trip(self, planned_ctx, name):
        codec = CODECS[name]
        original = planned_ctx.require(name)
        restored = codec.decode(
            codec.encode(original, planned_ctx), planned_ctx
        )
        assert restored == original

    def test_plan_round_trip_re_evaluates_without_checking(
        self, planned_ctx, monkeypatch
    ):
        """Decoding restores and re-prices the plan and checks nothing:
        the whole-plan probe verifies a served plan, whichever tier
        served it."""
        codec = CODECS[EVALUATED]
        original = planned_ctx.require(EVALUATED)
        ctx = PlanningContext(
            planned_ctx.graph, planned_ctx.cluster, planned_ctx.config
        )
        data = codec.encode(original, ctx)

        def no_check(*args, **kwargs):
            raise AssertionError("decode must not call check_plan")

        monkeypatch.setattr(PlanningContext, "check_plan", no_check)
        restored = codec.decode(data, ctx)
        assert plan_to_json(restored, ctx.graph) == plan_to_json(
            original, ctx.graph
        )
        assert restored.iteration_time == original.iteration_time
        assert not ctx.has(VERIFIED)

    def test_store_backed_run_holds_one_plan_entry(self, planned_ctx):
        """One pass builds the finished plan: the store holds a single
        ``evaluated`` entry and no intermediate ``plan:`` entry."""
        ctx = PlanningContext(
            planned_ctx.graph,
            planned_ctx.cluster,
            planned_ctx.config,
            store=ArtifactStore(),
        )
        ctx.run()
        keys = list(ctx.store._mem)
        assert not [k for k in keys if k.startswith("plan:")]
        assert [k for k in keys if k.startswith(EVALUATED + ":")] == [
            f"{EVALUATED}:{ctx.artifact_fps[EVALUATED]}"
        ]

class TestArtifactStore:
    def test_put_get_and_lru_order(self):
        store = ArtifactStore()
        store.put("blocks", "f1", ["b"])
        art = store.get("blocks", "f1")
        assert art is not None and art.payload == ["b"]
        assert store.get("blocks", "f2") is None
        assert store.hits == 1 and store.misses == 1

    def test_memory_budget_evicts_oldest(self):
        store = ArtifactStore(memory_budget_bytes=250)
        store.put("blocks", "f1", "a" * 100)
        store.put("blocks", "f2", "b" * 100)
        store.put("blocks", "f3", "c" * 100)
        assert store.get("blocks", "f1") is None
        assert store.get("blocks", "f3") is not None
        assert store.memory_evictions >= 1

    def test_last_entry_never_evicted(self):
        store = ArtifactStore(memory_budget_bytes=10)
        store.put("blocks", "f1", "x" * 1000)
        assert store.get("blocks", "f1") is not None

    def test_disk_promotion(self, planned_ctx, tmp_path):
        disk = DiskBackend(tmp_path)
        writer = ArtifactStore(disk=disk)
        writer.put(BLOCKS, "fp01", planned_ctx.require(BLOCKS), planned_ctx)
        reader = ArtifactStore(disk=disk)
        art = reader.get(BLOCKS, "fp01", planned_ctx)
        assert art is not None
        assert art.payload == planned_ctx.require(BLOCKS)
        assert reader.disk_hits == 1
        # promoted into memory: the second get is a pure memory hit
        reader.get(BLOCKS, "fp01", planned_ctx)
        assert reader.disk_hits == 1

    def test_stats_keep_store_and_backend_hits_apart(self, tmp_path):
        store = ArtifactStore(disk=DiskBackend(tmp_path))
        stats = store.stats()
        assert "disk_hits" in stats and "backend_hits" in stats


def _plan_into(store, graph):
    ctx = PlanningContext(
        graph, paper_cluster(1), PlannerConfig(batch_size=64), store=store
    )
    ctx.run()
    return ctx


class TestMemoryAccounting:
    """``memory_bytes`` is what the memory tier holds, so the budget
    bounds it."""

    def test_memory_bytes_is_the_sum_of_the_entries(self, planned_ctx):
        store = ArtifactStore()
        other = build_bert(
            BertConfig(hidden_size=128, num_layers=2, num_heads=4)
        )
        for graph in (planned_ctx.graph, other):
            _plan_into(store, graph)
        assert store.stats()["memory_bytes"] == sum(
            art.nbytes for art in store._mem.values()
        )

    def test_dp_context_weighs_its_bands(self, planned_ctx):
        store = ArtifactStore()
        ctx = _plan_into(store, planned_ctx.graph)
        art = store.get(DP_CONTEXT, ctx.artifact_fps[DP_CONTEXT])
        assert art.payload.band_bytes > 0
        assert art.nbytes == art.payload.nbytes() >= art.payload.band_bytes

    def test_refresh_applies_the_budget(self, planned_ctx):
        warm = planned_ctx.require(DP_CONTEXT)
        fresh = DPContext(
            warm.graph, warm.blocks, warm.profiler, warm.batch_size
        )
        store = ArtifactStore(memory_budget_bytes=warm.band_bytes - 1)
        store.put(BLOCKS, "older", warm.blocks)
        store.put(DP_CONTEXT, "fp", fresh)
        assert store.memory_evictions == 0  # both fit before the bands
        run = DPRun(fresh, planned_ctx.cluster)
        for (D, R, MB), band in warm._band_cache.items():
            run.profile_bands(D, R, MB, band.span)
        assert fresh.band_bytes == warm.band_bytes

        store.refresh(DP_CONTEXT, "fp", planned_ctx)

        assert f"{BLOCKS}:older" not in store
        assert f"{DP_CONTEXT}:fp" in store  # over budget on its own
        assert store.memory_evictions == 1
        assert store.stats()["memory_bytes"] == fresh.nbytes()


class FullDisk(DiskBackend):
    """A backend on a full disk: every write fails with ``ENOSPC``."""

    def write_bytes(self, relpath, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), relpath)


class TestFullDisk:
    def test_failed_persist_keeps_the_memory_entry(
        self, planned_ctx, tmp_path
    ):
        blocks = planned_ctx.require(BLOCKS)
        store = ArtifactStore(disk=FullDisk(tmp_path))
        store.put(BLOCKS, "fp01", blocks, ctx=planned_ctx)
        assert store.get(BLOCKS, "fp01").payload == blocks
        assert store.write_errors == 1
        assert store.stats()["write_errors"] == 1.0

    def test_plan_graph_over_a_full_disk(self, planned_ctx, tmp_path):
        """The plan is computed before it is persisted: a failing
        backend leaves the same plan as a run with no store."""
        graph = planned_ctx.graph
        store = ArtifactStore(disk=FullDisk(tmp_path))
        ctx = PlanningContext(
            graph, planned_ctx.cluster, planned_ctx.config, store=store
        )
        plan = ctx.run()
        assert plan_to_json(plan, graph) == plan_to_json(
            planned_ctx.require(EVALUATED), graph
        )
        assert store.write_errors > 0
        assert ctx.metrics.snapshot()["planner.store.write_errors"] == (
            store.write_errors
        )
        assert not any(tmp_path.rglob("*.*"))


class TestReadersGetViews:
    """A stored plan is read through views: the entry and every reader
    get a plan of their own that shares the frozen stages."""

    @pytest.fixture
    def seeded(self, planned_ctx):
        """A store seeded with the store-less run's plan, and what the
        probe serves from it."""
        store = ArtifactStore()
        store.put(EVALUATED, "fp", planned_ctx.require(EVALUATED), planned_ctx)
        served, _, report = store.verified_plan("fp", planned_ctx)
        assert report.ok
        return store.get(EVALUATED, "fp").payload, served

    def test_plan_is_a_view(self, planned_ctx, seeded):
        plan = planned_ctx.require(EVALUATED)
        stored, served = seeded
        assert served is not stored and stored is not plan
        assert served.stages == plan.stages
        assert plan_to_json(served, planned_ctx.graph) == plan_to_json(
            plan, planned_ctx.graph
        )

    def test_view_shares_the_frozen_stages(self, planned_ctx, seeded):
        plan = planned_ctx.require(EVALUATED)
        stored, served = seeded
        assert served.stages is not stored.stages
        assert stored.stages is not plan.stages
        assert all(a is b for a, b in zip(served.stages, plan.stages))
        assert served.diagnostics is not stored.diagnostics
        assert stored.diagnostics is not plan.diagnostics

    def test_blocks_pass_through(self, planned_ctx):
        store = ArtifactStore()
        runs = []
        for budget in (None, 16 * 2**30):
            ctx = PlanningContext(
                planned_ctx.graph,
                planned_ctx.cluster,
                PlannerConfig(batch_size=64, memory_budget=budget),
                store=store,
            )
            ctx.run()
            runs.append(ctx)
        first, delta = runs
        assert delta.events.find("coarsen").detail["reuse"]
        assert delta.require(BLOCKS) is first.require(BLOCKS)

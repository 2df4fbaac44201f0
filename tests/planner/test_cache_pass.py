"""Whole-plan caching through the artifact store: a repeated run is
served the stored plan with zero DP work, from memory or from disk;
any change to the graph, the cluster, or the planner config changes the
plan's address; a corrupt file of any artifact kind is a miss that the
run repairs."""

import json

import pytest

from repro.hardware import paper_cluster, tiny_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner.deployment import plan_to_json
from repro.planner import (
    EVALUATED,
    ArtifactStore,
    DiskBackend,
    PlannerConfig,
    PlanningContext,
    plan_graph,
)
from repro.planner.store import CODECS

COMPUTE_PASSES = [
    "atomic_partition", "coarsen", "profile_tensors", "stage_search",
    "evaluate",
]


def plan_with_ctx(graph, cluster, batch_size, cache_dir, **kwargs):
    """Plan with a fresh store over ``cache_dir`` (a new process, in
    effect)."""
    ctx = PlanningContext(
        graph, cluster, PlannerConfig(batch_size=batch_size, **kwargs),
        store=ArtifactStore(disk=DiskBackend(cache_dir)),
    )
    return ctx.run(), ctx


def entry_path(ctx, name=EVALUATED):
    """The on-disk file of one of ``ctx``'s artifacts."""
    return ctx.store.disk.path(
        ctx.store._relpath(name, ctx.artifact_fps[name])
    )


def reused(ctx):
    return [e.name for e in ctx.events if e.detail.get("reuse")]


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "deployments"


class TestCacheHit:
    def test_second_call_loads_identical_plan(self, tiny_bert, cache_dir):
        cluster = paper_cluster()
        cold, cold_ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        assert reused(cold_ctx) == []
        assert entry_path(cold_ctx).exists()
        assert not cold.diagnostics.cache_hit

        warm, warm_ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        assert reused(warm_ctx) == COMPUTE_PASSES
        assert warm.diagnostics.cache_hit
        # plan identity: boundaries, devices, microbatches, replicas
        assert [s.block_range for s in warm.stages] == [
            s.block_range for s in cold.stages
        ]
        assert [s.devices_per_pipeline for s in warm.stages] == [
            s.devices_per_pipeline for s in cold.stages
        ]
        assert [s.tasks for s in warm.stages] == [s.tasks for s in cold.stages]
        assert warm.num_microbatches == cold.num_microbatches
        assert warm.replica_factor == cold.replica_factor
        assert warm.throughput == pytest.approx(cold.throughput)

    def test_cached_run_performs_zero_dp_calls(
        self, tiny_bert, cache_dir, monkeypatch
    ):
        cluster = paper_cluster()
        plan_with_ctx(tiny_bert, cluster, 64, cache_dir)

        def _forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("form_stage_dp called on a cache hit")

        import repro.partitioner.search as search_mod

        monkeypatch.setattr(search_mod, "form_stage_dp", _forbidden)
        reads = []
        read_bytes = DiskBackend.read_bytes

        def _recording(self, relpath):
            reads.append(relpath)
            return read_bytes(self, relpath)

        monkeypatch.setattr(DiskBackend, "read_bytes", _recording)
        warm, ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        assert warm.diagnostics.dp_calls == 0
        assert ctx.events.find("stage_search").status == "skipped"
        assert "pass_time.stage_search" not in warm.diagnostics.as_dict()
        # a whole-plan hit reads the one plan entry, no intermediate
        # artifact
        assert len(reads) == 1 and reads[0].startswith("artifacts/evaluated-")

    def test_stale_entry_treated_as_miss(self, tiny_bert, cache_dir):
        cluster = paper_cluster()
        _, ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        path = entry_path(ctx)
        path.write_text(path.read_text().replace('"version": 1', '"version": 9'))
        warm, warm_ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        assert "evaluate" not in reused(warm_ctx)
        assert warm_ctx.events.find("evaluate").status == "ok"
        assert not warm.diagnostics.cache_hit
        # the run overwrote the stale entry with a current one
        assert json.loads(path.read_text())["version"] == 1


class TestCacheInvalidation:
    def test_mutated_graph_replans(self, tiny_bert, cache_dir):
        cluster = paper_cluster()
        _, ctx1 = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        other = build_bert(
            BertConfig(hidden_size=32, num_layers=3, num_heads=4,
                       seq_len=16, vocab_size=101)
        )
        _, ctx2 = plan_with_ctx(other, cluster, 64, cache_dir)
        assert entry_path(ctx1) != entry_path(ctx2)
        assert reused(ctx2) == []
        assert ctx2.events.find("stage_search").status == "ok"

    def test_changed_cluster_replans(self, tiny_bert, cache_dir):
        _, ctx1 = plan_with_ctx(tiny_bert, paper_cluster(), 64, cache_dir)
        _, ctx2 = plan_with_ctx(
            tiny_bert, paper_cluster(num_nodes=2), 64, cache_dir
        )
        assert entry_path(ctx1) != entry_path(ctx2)
        assert "evaluate" not in reused(ctx2)
        assert ctx2.events.find("stage_search").status == "ok"

    def test_changed_planner_config_replans(self, tiny_bert, cache_dir):
        cluster = paper_cluster()
        _, ctx1 = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        _, ctx2 = plan_with_ctx(
            tiny_bert, cluster, 64, cache_dir, num_blocks=16
        )
        assert entry_path(ctx1) != entry_path(ctx2)
        assert "evaluate" not in reused(ctx2)
        assert ctx2.events.find("stage_search").status == "ok"

    def test_no_cache_dir_disables_both_passes(self, tiny_bert):
        """Without a cache directory nothing is loaded or stored."""
        cluster = paper_cluster()
        ctx = PlanningContext(
            tiny_bert, cluster, PlannerConfig(batch_size=64)
        )
        ctx.run()
        assert ctx.store is None
        assert reused(ctx) == []
        assert "planner.store.hits" not in ctx.metrics


class TestStoreOwnsTheCache:
    def test_context_writes_only_to_its_store_root(
        self, tiny_bert, tmp_path, monkeypatch
    ):
        """A run persists through the store it is handed and nowhere
        else; a memory-only store (a delta run's) stays memory-only."""
        monkeypatch.chdir(tmp_path)
        cluster = paper_cluster()
        first, second = tmp_path / "first", tmp_path / "second"
        plan_with_ctx(tiny_bert, cluster, 64, first)
        kept = {p: p.read_bytes() for p in first.rglob("*") if p.is_file()}
        assert kept

        _, ctx = plan_with_ctx(tiny_bert, cluster, 64, second, num_blocks=16)
        assert ctx.store.disk.root == second
        assert ctx.store.write_errors == 0
        files = {p for p in tmp_path.rglob("*") if p.is_file()}
        written = {p for p in files if second in p.parents}
        assert written
        assert files == set(kept) | written
        assert {p: p.read_bytes() for p in kept} == kept

        memory = ArtifactStore()
        PlanningContext(
            tiny_bert, cluster, PlannerConfig(batch_size=32), store=memory
        ).run()
        assert memory.disk is None
        assert {p for p in tmp_path.rglob("*") if p.is_file()} == files


class TestStoreRoundTrip:
    """A served plan keeps the cold plan's iteration time, from either
    store tier."""

    def test_hits_keep_the_cold_iteration_time(self, tmp_path):
        # tight memory forces a 2-stage, 16-microbatch pipeline
        graph = build_bert(
            BertConfig(hidden_size=256, num_layers=4, num_heads=8)
        )
        cluster = tiny_cluster(
            num_nodes=1, devices_per_node=4, memory_bytes=512 * 2**20
        )
        config = PlannerConfig(batch_size=64)
        cold = plan_graph(graph, cluster, config)
        first = PlanningContext(
            graph, cluster, config,
            store=ArtifactStore(disk=DiskBackend(tmp_path)),
        )
        first.run()

        memory_ctx = PlanningContext(graph, cluster, config, store=first.store)
        memory_hit = memory_ctx.run()
        disk_ctx = PlanningContext(
            graph, cluster, config,
            store=ArtifactStore(disk=DiskBackend(tmp_path)),
        )
        disk_hit = disk_ctx.run()

        for ctx, plan in ((memory_ctx, memory_hit), (disk_ctx, disk_hit)):
            assert plan.diagnostics.cache_hit
            assert reused(ctx) == COMPUTE_PASSES
            assert plan.iteration_time == cold.iteration_time
            assert plan.throughput == cold.throughput
        assert memory_ctx.metrics.snapshot()["planner.store.disk_hits"] == 0
        assert disk_ctx.metrics.snapshot()["planner.store.disk_hits"] == 1


def _truncated(data: bytes, name: str) -> bytes:
    return data[: len(data) // 2]


def _wrong_shape(data: bytes, name: str) -> bytes:
    """Well-formed JSON holding the wrong thing."""
    return b"5"


class TestCorruptArtifacts:
    @pytest.mark.parametrize("corrupt", [_truncated, _wrong_shape],
                             ids=["truncated", "wrong_shape"])
    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_corrupt_file_is_a_miss_then_rewritten(
        self, tiny_bert, cache_dir, name, corrupt
    ):
        cluster = paper_cluster()
        cold, ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        path = entry_path(ctx, name)
        bad = corrupt(path.read_bytes(), name)
        path.write_bytes(bad)
        if name != EVALUATED:
            # make the next run look past the whole-plan entry
            entry_path(ctx).unlink()

        warm, warm_ctx = plan_with_ctx(tiny_bert, cluster, 64, cache_dir)
        assert plan_to_json(warm, tiny_bert) == plan_to_json(cold, tiny_bert)
        assert not warm.diagnostics.cache_hit
        assert path.read_bytes() != bad
        CODECS[name].decode(path.read_bytes(), warm_ctx)  # valid again

"""Property tests for the vectorized candidate-stage builders and the
vectorized Algorithm-1 evaluator against their per-entry / pure-Python
oracles.

The vectorized code must be *exactly* equal (not approximately): the
band builders reproduce the per-entry float64 arithmetic operation by
operation, and the DP keeps the reference's ``(b', d')`` tie-break
order, so every comparison below uses strict equality.  The reference
applies the paper's ``d_min`` rule and the DP does not; the rule skips
only cells no answer passes through, so the answers agree.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partitioner.stage_dp as stage_dp_mod
from repro.graph.builder import GraphBuilder
from repro.hardware import tiny_cluster
from repro.models import build_mlp
from repro.models.gpt import gpt3_like
from repro.models.random_dag import build_random_dag
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import Block, block_partition
from repro.partitioner.search import form_stage
from repro.partitioner.stage_dp import DPContext, DPRun, form_stage_dp
from repro.profiler import GraphProfiler
from tests.partitioner.oracles import (
    profile_tensors_reference,
    range_meta,
    range_meta_reference,
    reference_dp_visits,
    reference_form_stage_dp,
    stage_profile_reference,
    summed_stage_profile_reference,
    time_prefix_reference,
)
from tests.partitioner.test_band_width import (
    cluster_with,
    make_ctx as dag_ctx,
    whole_model_memory,
)


def make_ctx(k=6, batch_size=32, num_nodes=1, devices_per_node=4,
             memory_bytes=4 * 1024**3):
    """A run on a tiny cluster over a fresh context (``run.memo``)."""
    graph = build_mlp((32, 64, 64, 64, 64, 16))
    cluster = tiny_cluster(num_nodes=num_nodes,
                           devices_per_node=devices_per_node,
                           memory_bytes=memory_bytes)
    profiler = GraphProfiler(graph, cluster)
    blocks = block_partition(graph, atomic_partition(graph), profiler,
                             cluster, num_blocks=k)
    return DPRun(DPContext(graph, blocks, profiler, batch_size), cluster)


def dense_bands(ctx, D, R, MB):
    """The full-width (checkpointed) bands of ``ctx`` scattered into the
    dense ``(k+1, k+1, D+1)`` layout of :func:`profile_tensors_reference`:
    entry ``[lo, hi, r]`` profiles blocks ``(lo, hi]`` on ``r`` replicas,
    +inf where there is no stage."""
    k = ctx.memo.k
    bands = ctx.profile_bands(D, R, MB, k)
    dense = [np.full((k + 1, k + 1, D + 1), np.inf) for _ in range(3)]
    hi, lo = np.broadcast_arrays(
        np.arange(k + 1)[:, None],
        np.arange(k + 1)[:, None] - 1 - np.arange(bands.span),
    )
    valid = lo >= 0
    for r in range(1, D + 1):
        p = int(bands.plane_of_r[r])
        if p < 0:
            continue
        for out, band in zip(dense, (bands.tf, bands.tb, bands.mem)):
            out[lo[valid], hi[valid], r] = band[p][valid]
    return dense


def kernel_tensors(ctx, D, R, MB, ckpt):
    """What ``ctx`` prices every ``(lo, hi, r)`` stage at, in the dense
    layout of :func:`dense_bands`: its bands with checkpointing, its
    scalar ``stage_profile`` without (only a one-stage layout is priced
    so, never a band)."""
    if ckpt:
        return dense_bands(ctx, D, R, MB)
    return profile_tensors_reference(
        ctx, D, R, MB, False,
        stage_profile=lambda run, *args: run.memo.stage_profile(*args),
    )


def solution_key(sol):
    """Every observable field of a DPSolution, ready for == comparison.

    Profiles are compared as field tuples: two runs build distinct
    StageProfile instances and dataclass ``__eq__`` requires identical
    classes, while the engines must agree on the *values*.
    """
    if sol is None:
        return None
    return (
        sol.boundaries,
        sol.device_counts,
        sol.num_microbatches,
        sol.num_stages,
        sol.replica_factor,
        sol.objective,
        sol.max_tf,
        sol.max_tb,
        [dataclasses.astuple(p)[:7] for p in sol.stage_profiles],
    )


class TestTimePrefixes:
    #: block sizes around numpy's 8-way unrolled and 128-element
    #: pairwise summation blocks
    SIZES = (1, 3, 7, 8, 9, 64, 127, 128, 129, 200, 300)

    def ctx(self):
        graph = gpt3_like(depth=60)
        profiler = GraphProfiler(graph, tiny_cluster())
        order = list(graph.tasks)
        blocks, start = [], 0
        for i, size in enumerate(self.SIZES * 3):
            if start + size > len(order):
                break
            blocks.append(Block(
                index=i, atomic_indices=(i,),
                tasks=tuple(order[start:start + size]),
            ))
            start += size
        assert len(blocks) > len(self.SIZES)
        return DPContext(graph, blocks, profiler, 256)

    def test_batched_prefixes_match_per_block_sums(self):
        """One ``take`` per block over every batch size equals one 1-D
        sum per block and batch size, bit for bit."""
        ctx = self.ctx()
        sizes = (256, 128, 37, 5, 1)
        ctx.fill_time_prefixes(sizes)
        for bs in sizes:
            ref = time_prefix_reference(ctx, bs)
            got = ctx._time_prefix_at(bs)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref)), bs

    def test_single_batch_size_and_profiler_counters(self):
        """A lone batch size takes the same path; each batch size asks
        the profiler's time table once, however it is requested."""
        ctx = self.ctx()
        calls = ctx.profiler.table_calls
        got = ctx._time_prefix_at(64)
        ctx.fill_time_prefixes((64, 32, 32))
        ctx._time_prefix_at(32)
        assert ctx.profiler.table_calls - calls == 2
        ref = time_prefix_reference(ctx, 64)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))


class TestRangeMatrices:
    def test_all_ranges_match_reference(self):
        ctx = make_ctx().memo
        for lo in range(ctx.k):
            for hi in range(lo + 1, ctx.k + 1):
                assert range_meta(ctx, lo, hi) == \
                    range_meta_reference(ctx, lo, hi), (lo, hi)

    def test_all_ranges_match_reference_bert(self, tiny_bert, cluster):
        profiler = GraphProfiler(tiny_bert, cluster)
        blocks = block_partition(
            tiny_bert, atomic_partition(tiny_bert), profiler, cluster,
            num_blocks=8,
        )
        ctx = DPContext(tiny_bert, blocks, profiler, 32)
        for lo in range(ctx.k):
            for hi in range(lo + 1, ctx.k + 1):
                assert range_meta(ctx, lo, hi) == \
                    range_meta_reference(ctx, lo, hi), (lo, hi)


    def test_all_ranges_match_reference_on_shared_values(self):
        """Graph outputs also consumed inside the graph, PARAM and CONST
        inputs, and a value consumed by several later blocks: every
        rectangle of the difference-array builder, one block per task."""
        b = GraphBuilder("shared")
        x = b.input("x", (1, 32))
        scale = b.const("scale", (1, 32))
        h1 = b.op("relu", [b.linear(x, 32, name="fc1")])
        h2 = b.op("mul", [h1, scale])
        h3 = b.linear(h2, 32, name="fc2")
        h5 = b.op("relu", [b.op("add", [h3, h1])])
        h6 = b.op("add", [h5, h1])
        h7 = b.linear(h6, 32, name="fc3")
        loss = b.op("mse_loss", [h7, b.input("y", (1, 32))])
        graph = b.finish(outputs=[loss, h3, h1])
        profiler = GraphProfiler(graph, tiny_cluster())
        blocks = [
            Block(index=i, atomic_indices=(i,), tasks=c.tasks)
            for i, c in enumerate(atomic_partition(graph))
        ]
        ctx = DPContext(graph, blocks, profiler, 8)
        assert ctx.k == len(graph.tasks)
        for lo in range(ctx.k):
            for hi in range(lo + 1, ctx.k + 1):
                assert range_meta(ctx, lo, hi) == \
                    range_meta_reference(ctx, lo, hi), (lo, hi)


class TestProfileTensors:
    @pytest.mark.parametrize(
        "D,R,MB,ckpt",
        [(4, 1, 1, False), (4, 1, 2, True), (3, 2, 4, True), (4, 2, 8, True),
         (2, 1, 16, True)],
    )
    def test_vectorized_matches_per_entry(self, D, R, MB, ckpt):
        ctx = make_ctx()
        fast = kernel_tensors(ctx, D, R, MB, ckpt)
        slow = profile_tensors_reference(ctx, D, R, MB, ckpt)
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)  # bit-exact, inf pattern included

    def test_dispatch_uses_vectorized_builder(self):
        # the sweep reads the very bands that match the oracle
        ctx = make_ctx()
        form_stage_dp(ctx, range(2, 3), 4, 1, 2)[2]
        (key, bands), = ctx.memo._band_cache.items()
        assert key == (4, 1, 2)
        assert bands is ctx.profile_bands(4, 1, 2, ctx.memo.k - 1)
        TF, TB, MEM = dense_bands(ctx, 4, 1, 2)
        ref = profile_tensors_reference(ctx, 4, 1, 2, True)
        assert np.array_equal(TF, ref[0])
        assert np.array_equal(TB, ref[1])
        assert np.array_equal(MEM, ref[2])

    def test_tensor_and_mask_caches_reused(self):
        # one band build per key, whatever the memory budget: the cap is
        # applied per sweep, never baked into a cache
        ctx = make_ctx()
        a = ctx.profile_bands(4, 1, 2, ctx.memo.k)
        tight = DPRun(ctx.memo, ctx.cluster, memory_budget=1.0)
        b = tight.profile_bands(4, 1, 2, ctx.memo.k)
        assert a is b

    def test_range_costs_override_used(self):
        """A subclass that overrides the stage-cost kernel gets its own
        profiles in the DP's bands and in its backtracked stages."""
        class Doubled(DPContext):
            def _range_costs(self, lo, hi, bs, MB, checkpointing):
                t_f, *rest = super()._range_costs(
                    lo, hi, bs, MB, checkpointing
                )
                return (t_f * 2, *rest)

        def doubled_reference(ctx, *args):
            prof = stage_profile_reference(ctx, *args)
            if prof is None:
                return None
            return dataclasses.replace(prof, time_fwd=prof.time_fwd * 2)

        base = make_ctx()
        memo = base.memo
        ctx = DPRun(
            Doubled(memo.graph, memo.blocks, memo.profiler, memo.batch_size),
            base.cluster,
        )
        TF, _, _ = dense_bands(ctx, 4, 1, 1)
        ref = profile_tensors_reference(
            ctx, 4, 1, 1, True, stage_profile=doubled_reference
        )
        assert np.array_equal(TF, ref[0])  # the subclass's doubled times
        assert not np.array_equal(TF, dense_bands(base, 4, 1, 1)[0])
        k = memo.k
        bands = ctx.profile_bands(4, 1, 1, k)
        assert bands.tf[0, k, k - 1] == ref[0][0, k, 1]
        # and the DP table is filled from them: two stages on one device
        # each carry the doubled forward times, and so do the profiles
        # the backtrack attaches to them
        sol = form_stage_dp(ctx, range(2, 3), 2, 1, 1)[2]
        lo, hi = 0, sol.boundaries[0]
        assert sol.stage_profiles[0].time_fwd == ref[0][lo, hi, 1]
        assert sol.max_tf == max(p.time_fwd for p in sol.stage_profiles)
        # a lone stage over all blocks is priced by the same kernel
        one = profile_tensors_reference(
            ctx, 1, 1, 1, False, stage_profile=doubled_reference
        )
        sol = form_stage_dp(ctx, range(1, 2), 1, 1, 1)[1]
        assert sol.max_tf == one[0][0, k, 1]
        assert sol.stage_profiles[0].time_fwd == sol.max_tf


class TestDPEngineEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        S=st.integers(min_value=1, max_value=4),
        D=st.integers(min_value=1, max_value=4),
        MB=st.sampled_from([1, 2, 4, 8]),
        R=st.sampled_from([1, 2]),
    )
    def test_full_engine_matches_reference(self, S, D, MB, R):
        ctx = make_ctx()
        fast = form_stage_dp(ctx, range(S, S + 1), D, R, MB)[S]
        ref = reference_form_stage_dp(ctx, S, D, 32, R, MB)
        assert solution_key(fast) == solution_key(ref)

    @settings(max_examples=10, deadline=None)
    @given(
        S=st.integers(min_value=1, max_value=4),
        MB=st.sampled_from([1, 2, 4]),
        mem_mib=st.sampled_from([8, 16, 32, 64]),
    )
    def test_tight_memory_matches_reference(self, S, MB, mem_mib):
        """Small memory caps, equal answers."""
        ctx = make_ctx(memory_bytes=mem_mib * 1024**2)
        fast = form_stage_dp(ctx, range(S, S + 1), 4, 1, MB)[S]
        ref = reference_form_stage_dp(ctx, S, 4, 32, 1, MB)
        assert solution_key(fast) == solution_key(ref)

    def test_row_engine_matches_full_engine(self, monkeypatch):
        """Reducing one replica plane per pass (as large bands do, where
        a chunk holds only a few planes) must not change any field of any
        solution or the visited-state count."""
        expected = {}
        ctx = make_ctx()
        for S, MB in itertools.product((1, 2, 3, 4), (1, 2, 4)):
            expected[(S, MB)] = solution_key(
                form_stage_dp(ctx, range(S, S + 1), 4, 1, MB)[S]
            )
        full_states = ctx.states_evaluated

        monkeypatch.setattr(stage_dp_mod, "PLANE_CHUNK_CELLS", 1)
        ctx2 = make_ctx()
        for (S, MB), want in expected.items():
            got = solution_key(
                form_stage_dp(ctx2, range(S, S + 1), 4, 1, MB)[S]
            )
            assert got == want, (S, MB)
        assert ctx2.states_evaluated == full_states

    def test_dmin_pruning_reduces_states(self):
        """With tight memory the reference's ``d_min`` loop must visit no
        more cells than the engine counts and return the same objective."""
        pruned = make_ctx(memory_bytes=48 * 1024**2)
        unpruned = make_ctx(memory_bytes=48 * 1024**2)
        a, visited = reference_dp_visits(pruned, 2, 4, 32, 1, 2)
        b = form_stage_dp(unpruned, range(2, 3), 4, 1, 2)[2]
        assert (a is None) == (b is None)
        if a is not None:
            assert a.objective == b.objective
        assert visited <= unpruned.states_evaluated

    def test_matches_pruned_reference(self):
        """Memory-tight random DAGs, where the reference's ``d_min`` loop
        skips cells: the engine, which evaluates every cell of the
        sweep's bounds, must still answer field for field like it, and
        the loop must visit fewer cells than the engine counts on some
        instances."""
        pruned = []

        @settings(max_examples=15, deadline=None, database=None)
        @given(
            seed=st.integers(min_value=0, max_value=2_000),
            frac=st.floats(min_value=0.15, max_value=0.45),
            S=st.integers(min_value=2, max_value=4),
            MB=st.sampled_from([1, 2, 4]),
        )
        def check(seed, frac, S, MB):
            graph = build_random_dag(seed=seed, num_nodes=40)
            cap = frac * whole_model_memory(graph, k=8, batch_size=32)
            ctx = dag_ctx(graph, cluster_with(cap), k=8, batch_size=32)
            fast = form_stage_dp(ctx, range(S, S + 1), 4, 1, MB)[S]
            ref, visited = reference_dp_visits(ctx, S, 4, 32, 1, MB)
            assert solution_key(fast) == solution_key(ref)
            assert visited <= ctx.states_evaluated
            pruned.append(visited < ctx.states_evaluated)

        check()
        assert any(pruned)


class TestAlgorithm2:
    def test_parallel_search_is_deterministic(self, monkeypatch):
        serial = make_ctx(num_nodes=2, batch_size=32)
        threaded = make_ctx(num_nodes=2, batch_size=32)
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        a = form_stage(serial)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        b = form_stage(threaded)
        assert (a is None) == (b is None)
        assert solution_key(a.solution) == solution_key(b.solution)
        assert a.num_pipeline_nodes == b.num_pipeline_nodes
        assert a.devices_per_pipeline == b.devices_per_pipeline
        assert a.replica_factor == b.replica_factor
        assert a.candidates_tried == b.candidates_tried
        assert a.dp_calls == b.dp_calls
        assert serial.dp_calls == threaded.dp_calls
        assert serial.states_evaluated == threaded.states_evaluated

    def test_non_divisor_node_count_is_skipped(self):
        """3 nodes at n=2 used to raise ValueError mid-search; the level
        must be skipped and the search continue."""
        ctx = make_ctx(num_nodes=3, batch_size=48)
        result = form_stage(ctx)
        assert result is not None
        assert result.num_pipeline_nodes == 1
        assert result.replica_factor == 3

    def test_estimated_iteration_time_memoized(self, monkeypatch):
        ctx = make_ctx()
        sol = form_stage_dp(ctx, range(2, 3), 4, 1, 2)[2]
        assert sol is not None

        import repro.pipeline.simulator as sim_mod

        calls = {"n": 0}
        original = sim_mod.simulate_sync_pipeline

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sim_mod, "simulate_sync_pipeline", counting)
        first = sol.estimated_iteration_time()
        second = sol.estimated_iteration_time()
        assert first == second > 0
        assert calls["n"] == 1


class TestSummedAtomicContext:
    def test_vectorized_planes_match_per_entry(self, tiny_bert, cluster):
        """The ablation context overrides only the stage-cost kernel;
        its bands must equal the scalar summed-atomic transcription entry
        for entry."""
        from repro.experiments.coarsening_ablation import SummedAtomicContext

        profiler = GraphProfiler(tiny_bert, cluster)
        comps = atomic_partition(tiny_bert)
        atom_blocks = [
            Block(index=i, atomic_indices=(i,), tasks=c.tasks)
            for i, c in enumerate(comps)
        ]
        ctx = DPRun(
            SummedAtomicContext(tiny_bert, atom_blocks, profiler, 32),
            cluster,
        )
        for D, R, MB, ckpt in [(4, 1, 2, True), (2, 2, 1, False),
                               (4, 2, 4, True)]:
            fast = kernel_tensors(ctx, D, R, MB, ckpt)
            slow = profile_tensors_reference(
                ctx, D, R, MB, ckpt,
                stage_profile=summed_stage_profile_reference,
            )
            for a, b in zip(fast, slow):
                assert np.array_equal(a, b)

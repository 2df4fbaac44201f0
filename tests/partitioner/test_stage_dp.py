"""Tests for Algorithm 1 (form_stage_dp): correctness, optimality on
brute-forceable instances, and engine equivalence."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware import paper_cluster, tiny_cluster, tiny_mixed_cluster
from repro.models import BertConfig, build_bert, build_mlp
from repro.models.random_dag import build_random_dag
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import block_partition
from repro.partitioner.stage_dp import DPContext, DPRun, form_stage_dp
from repro.profiler import GraphProfiler
from tests.partitioner.oracles import reference_form_stage_dp
from tests.partitioner.test_band_width import cluster_with, solution_key


def make_ctx(graph=None, k=6, batch_size=32, cluster=None,
             memory_budget=None):
    """A run over a fresh context (``run.memo``), and its cluster."""
    graph = graph or build_mlp((32, 64, 64, 64, 64, 16))
    cluster = cluster or tiny_cluster(num_nodes=1, devices_per_node=4,
                                      memory_bytes=4 * 1024**3)
    profiler = GraphProfiler(graph, cluster)
    blocks = block_partition(graph, atomic_partition(graph), profiler,
                             cluster, num_blocks=k)
    ctx = DPContext(graph, blocks, profiler, batch_size)
    return DPRun(ctx, cluster, memory_budget), cluster


class TestStageProfile:
    def test_microbatch_collapse_infeasible(self):
        ctx, _ = make_ctx(batch_size=4)
        # bs = 4/(1*4*2) < 1
        assert ctx.memo.stage_profile(0, 1, 2, 1, 4, True) is None

    def test_comm_included(self):
        ctx, cluster = make_ctx()
        prof = ctx.memo.stage_profile(0, 1, 1, 1, 1, False)
        # stage output must be sent: fwd time includes a p2p latency
        assert prof.time_fwd > cluster.comm_latency

    def test_checkpoint_recompute(self):
        ctx, _ = make_ctx()
        plain = ctx.memo.stage_profile(0, 2, 1, 1, 1, False)
        ckpt = ctx.memo.stage_profile(0, 2, 1, 1, 1, True)
        assert ckpt.time_bwd > plain.time_bwd

    def test_range_tasks_dedup(self, tiny_bert, cluster):
        profiler = GraphProfiler(tiny_bert, cluster)
        blocks = block_partition(
            tiny_bert, atomic_partition(tiny_bert), profiler, cluster,
            num_blocks=4,
        )
        ctx = DPContext(tiny_bert, blocks, profiler, 8)
        tasks = ctx.range_tasks(0, 4)
        assert len(tasks) == len(set(tasks))
        assert set(tasks) == set(tiny_bert.tasks)


class TestFormStageDP:
    def test_single_stage(self):
        ctx, _ = make_ctx()
        sol = form_stage_dp(ctx, range(1, 2), 4, 1, 1)[1]
        assert sol is not None
        assert sol.boundaries == [ctx.memo.k]
        assert sol.device_counts == [4]

    def test_full_coverage_and_devices(self):
        ctx, _ = make_ctx()
        for S in (2, 3, 4):
            sol = form_stage_dp(ctx, range(S, S + 1), 4, 1, 2)[S]
            if sol is None:
                continue
            assert sol.boundaries[-1] == ctx.memo.k
            assert len(sol.boundaries) == S
            assert sum(sol.device_counts) == 4
            assert all(d >= 1 for d in sol.device_counts)
            assert sorted(sol.boundaries) == sol.boundaries

    def test_infeasible_when_stages_exceed_blocks(self):
        ctx, _ = make_ctx(k=3)
        assert form_stage_dp(ctx, range(5, 6), 4, 1, 1)[5] is None

    def test_infeasible_when_stages_exceed_devices(self):
        ctx, _ = make_ctx()
        assert form_stage_dp(ctx, range(5, 6), 4, 1, 1)[5] is None

    def test_memory_infeasibility(self):
        cluster = tiny_cluster(num_nodes=1, devices_per_node=2,
                               memory_bytes=2 * 1024**2)  # 2 MiB
        g = build_mlp((256, 512, 512, 256))
        profiler = GraphProfiler(g, cluster)
        blocks = block_partition(g, atomic_partition(g), profiler, cluster,
                                 num_blocks=4)
        ctx = DPRun(DPContext(g, blocks, profiler, 8), cluster)
        assert form_stage_dp(ctx, range(1, 2), 2, 1, 1)[1] is None

    def test_objective_is_max_tf_plus_max_tb(self):
        ctx, _ = make_ctx()
        sol = form_stage_dp(ctx, range(2, 3), 4, 1, 2)[2]
        assert sol is not None
        tf = max(p.time_fwd for p in sol.stage_profiles)
        tb = max(p.time_bwd for p in sol.stage_profiles)
        assert sol.objective == pytest.approx(tf + tb)
        assert sol.max_tf == pytest.approx(tf)
        assert sol.max_tb == pytest.approx(tb)

    def test_optimal_vs_bruteforce(self):
        """Exhaustive check on a small instance: the DP objective equals
        the best over all boundary/device assignments."""
        ctx, _ = make_ctx(k=5, batch_size=16)
        S, D, MB = 2, 3, 1
        sol = form_stage_dp(ctx, range(S, S + 1), D, 1, MB)[S]
        assert sol is not None

        best = float("inf")
        memo = ctx.memo
        for b1 in range(1, memo.k):
            for d1 in range(1, D):
                profs = [
                    memo.stage_profile(0, b1, d1, 1, MB, True),
                    memo.stage_profile(b1, memo.k, D - d1, 1, MB, True),
                ]
                if any(p is None for p in profs):
                    continue
                M = ctx.cluster.device.usable_memory
                if any(p.memory > M for p in profs):
                    continue
                v = max(p.time_fwd for p in profs) + max(
                    p.time_bwd for p in profs
                )
                best = min(best, v)
        assert sol.objective == pytest.approx(best)

    def test_dmin_pruning_preserves_solution(self):
        """The reference loop skips cells by the ``d_min`` rule; the
        engine evaluates them all.  The answers must agree."""
        ctx1, _ = make_ctx()
        ctx2, _ = make_ctx()
        a = reference_form_stage_dp(ctx1, 3, 4, 32, 1, 2)
        b = form_stage_dp(ctx2, range(3, 4), 4, 1, 2)[3]
        assert (a is None) == (b is None)
        if a is not None:
            assert a.objective == pytest.approx(b.objective)

    def test_estimated_iteration_time_positive(self):
        ctx, _ = make_ctx()
        sol = form_stage_dp(ctx, range(2, 3), 4, 1, 2)[2]
        assert sol.estimated_iteration_time() > 0


class TestEngineEquivalence:
    @pytest.mark.parametrize("S,D,MB", [(1, 4, 1), (2, 4, 2), (3, 4, 1),
                                        (2, 3, 4), (4, 4, 1)])
    def test_matches_reference(self, S, D, MB):
        ctx, _ = make_ctx()
        fast = form_stage_dp(ctx, range(S, S + 1), D, 1, MB)[S]
        ref = reference_form_stage_dp(ctx, S, D, 32, 1, MB)
        assert (fast is None) == (ref is None)
        if fast is not None:
            assert fast.objective == pytest.approx(ref.objective)
            assert fast.boundaries == ref.boundaries
            assert fast.device_counts == ref.device_counts

    @settings(max_examples=12, deadline=None)
    @given(
        S=st.integers(min_value=1, max_value=4),
        D=st.integers(min_value=1, max_value=4),
        MB=st.sampled_from([1, 2, 4]),
        R=st.sampled_from([1, 2]),
    )
    def test_matches_reference_property(self, S, D, MB, R):
        ctx, _ = make_ctx(batch_size=32)
        fast = form_stage_dp(ctx, range(S, S + 1), D, R, MB)[S]
        ref = reference_form_stage_dp(ctx, S, D, 32, R, MB)
        assert (fast is None) == (ref is None)
        if fast is not None:
            assert fast.objective == pytest.approx(ref.objective)


class TestOnBert:
    def test_bert_multistage(self, tiny_bert, cluster):
        profiler = GraphProfiler(tiny_bert, cluster)
        blocks = block_partition(
            tiny_bert, atomic_partition(tiny_bert), profiler, cluster,
            num_blocks=8,
        )
        ctx = DPRun(DPContext(tiny_bert, blocks, profiler, 32), cluster)
        sol = form_stage_dp(ctx, range(4, 5), 8, 4, 2)[4]
        assert sol is not None
        assert len(sol.boundaries) == 4
        assert sum(sol.device_counts) == 8


KIB = 2**10


class TestOneStageAnswer:
    """``S = 1`` has one layout, blocks ``(0, k]`` on all ``D`` devices,
    priced without checkpointing and without a table; it must still be
    Algorithm 1's answer."""

    BS = 16

    @staticmethod
    def ctx_for(seed, kib, hetero, budget_kib):
        graph = build_random_dag(seed=seed, num_nodes=12)
        if hetero:
            cluster = tiny_mixed_cluster(
                small_memory_bytes=int(kib * KIB),
                big_memory_bytes=int(8 * kib * KIB),
                straggler_factor=1.5,
            )
        else:
            cluster = cluster_with(kib * KIB)
        ctx, _ = make_ctx(
            graph, k=5, batch_size=16, cluster=cluster,
            memory_budget=None if budget_kib is None else budget_kib * KIB,
        )
        return ctx

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        D=st.integers(min_value=1, max_value=4),
        R=st.sampled_from([1, 2]),
        MB=st.sampled_from([1, 2, 4, 8]),
        kib=st.floats(min_value=4.0, max_value=128.0),
        hetero=st.booleans(),
        budget_kib=st.one_of(st.none(), st.floats(4.0, 128.0)),
    )
    @example(seed=0, D=4, R=2, MB=8, kib=128.0, hetero=False, budget_kib=None)
    @example(seed=0, D=1, R=1, MB=1, kib=4.0, hetero=False, budget_kib=None)
    @example(seed=0, D=4, R=2, MB=1, kib=32.0, hetero=True, budget_kib=8.0)
    def test_matches_reference(self, seed, D, R, MB, kib, hetero,
                               budget_kib):
        ctx = self.ctx_for(seed, kib, hetero, budget_kib)
        got = form_stage_dp(ctx, range(1, 2), D, R, MB)[1]
        ref = reference_form_stage_dp(ctx, 1, D, self.BS, R, MB)
        assert solution_key(got) == solution_key(ref)

    def test_covers_collapse_memory_and_slots(self):
        # R * MB * D > BS: the microbatch collapses
        ctx = self.ctx_for(0, 128.0, False, None)
        assert ctx.memo.stage_profile(0, ctx.memo.k, 4, 2, 8, False) is None
        assert form_stage_dp(ctx, range(1, 2), 4, 2, 8)[1] is None
        # over the cap on every device count
        ctx = self.ctx_for(0, 4.0, False, None)
        assert ctx.memo.stage_profile(0, ctx.memo.k, 1, 1, 1, False) is not None
        assert form_stage_dp(ctx, range(1, 2), 1, 1, 1)[1] is None
        # heterogeneous: the budget, not the devices, decides, and the
        # answer runs at the straggler's pace
        roomy = self.ctx_for(0, 128.0, True, None)
        sol = form_stage_dp(roomy, range(1, 2), 4, 2, 1)[1]
        plain = roomy.memo.stage_profile(0, roomy.memo.k, 4, 2, 1, False)
        assert sol.stage_profiles[0].time_fwd == plain.time_fwd * 1.5
        assert sol.objective == sol.max_tf + sol.max_tb
        capped = self.ctx_for(0, 128.0, True, plain.memory / KIB / 2)
        assert form_stage_dp(capped, range(1, 2), 4, 2, 1)[1] is None

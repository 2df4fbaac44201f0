"""The band-width cut of Algorithm 1.

A sweep builds and reduces stage spans only up to the widest one that
fits in device memory: bands are sized for the device capacity, stage
slabs for the memory cap in force (capacity or budget).  Every wider
stage is over the cap on every plane, so the cut must change nothing:
every stage count of a sweep equals the pure-Python
``reference_form_stage_dp``, and the ``states_evaluated`` / ``dp_calls``
counters equal those of the uncut reduction (bands and slabs as wide as
the sweep's stage spans).  The width must actually engage under tight
caps, must be sound (no stage past it fits), and a reused context must
answer like a fresh one whatever budget or capacity the run that reads
it has.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partitioner.stage_dp as stage_dp
from repro.experiments.coarsening_ablation import SummedAtomicContext
from repro.hardware import tiny_cluster, tiny_mixed_cluster
from repro.models import build_mlp
from repro.models.random_dag import build_random_dag
from repro.obs import MetricsRegistry
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import Block, block_partition
from repro.partitioner.stage_dp import DPContext, DPRun, form_stage_dp
from repro.profiler import GraphProfiler
from tests.partitioner.oracles import (
    profile_tensors_reference,
    reference_form_stage_dp,
)

MIB = 2**20
RESERVE = tiny_cluster().device.memory_reserve_fraction


@contextmanager
def uncut():
    """Bands and slabs as wide as the sweep's stage spans."""
    with mock.patch.object(
        DPContext, "_fit_width", lambda self, bs, capacity: self.k
    ), mock.patch.object(
        stage_dp, "_slab_width", lambda over, nb_max: nb_max
    ):
        yield


def cluster_with(usable_bytes, **kwargs):
    """A tiny cluster whose devices may fill about ``usable_bytes``."""
    return tiny_cluster(
        num_nodes=1, devices_per_node=4,
        memory_bytes=int(np.ceil(usable_bytes / (1.0 - RESERVE))),
        **kwargs,
    )


def make_ctx(graph, cluster, k=8, batch_size=64, mode="training",
             memory_budget=None):
    """A run on ``cluster`` over a fresh context (``run.memo``)."""
    profiler = GraphProfiler(graph, cluster, mode=mode)
    blocks = block_partition(
        graph, atomic_partition(graph), profiler, cluster, num_blocks=k
    )
    ctx = DPContext(graph, blocks, profiler, batch_size)
    return DPRun(ctx, cluster, memory_budget)


def atomic_ctx(graph, cluster, batch_size=64):
    profiler = GraphProfiler(graph, cluster)
    blocks = [
        Block(index=i, atomic_indices=(i,), tasks=c.tasks)
        for i, c in enumerate(atomic_partition(graph))
    ]
    return DPRun(
        SummedAtomicContext(graph, blocks, profiler, batch_size), cluster
    )


def solution_key(sol):
    if sol is None:
        return None
    return (
        tuple(sol.boundaries),
        tuple(sol.device_counts),
        sol.num_microbatches,
        sol.replica_factor,
        sol.objective,
        sol.max_tf,
        sol.max_tb,
        tuple((p.time_fwd, p.time_bwd, p.memory) for p in sol.stage_profiles),
    )


def run_sweeps(ctx, stage_counts, D, R, mbs):
    """Every sweep's answers plus the counters they moved."""
    m = MetricsRegistry()
    before = (ctx.dp_calls, ctx.states_evaluated)
    answers = {}
    for MB in mbs:
        sweep = form_stage_dp(ctx, stage_counts, D, R, MB)
        for S, sol in sweep.items():
            answers[S, MB] = solution_key(sol)
    ctx.publish(m)
    counters = (
        ctx.dp_calls - before[0],
        ctx.states_evaluated - before[1],
        m.counter("dp.states_evaluated").value,
    )
    return answers, counters


def assert_lossless(make, stage_counts, D, R, mbs, budget=None):
    """The cut context answers like the reference and like the uncut
    reduction, counters included; returns the cut run and the uncut one
    (each under ``budget``)."""
    ctx = with_budget(make(), budget)
    answers, counters = run_sweeps(ctx, stage_counts, D, R, mbs)
    for (S, MB), key in answers.items():
        ref = reference_form_stage_dp(ctx, S, D, ctx.memo.batch_size, R, MB)
        assert key == solution_key(ref), (S, MB)
    with uncut():
        full = with_budget(make(), budget)
        assert run_sweeps(full, stage_counts, D, R, mbs) == (
            answers, counters,
        )
    assert ctx.cells_reduced <= full.cells_reduced
    return ctx, full


def with_budget(run, budget):
    """A new run over ``run``'s context, on its cluster, under
    ``budget``."""
    return DPRun(run.memo, run.cluster, budget)


def whole_model_memory(graph, mode="training", k=8, batch_size=64):
    """Memory of the one-replica stage over every block (the widest)."""
    ctx = make_ctx(graph, cluster_with(1 << 40), k, batch_size, mode).memo
    return ctx.stage_profile(0, ctx.k, 1, 1, 1, True).memory


# ----------------------------------------------------------------------
# lossless: plans and counters


class TestCutIsLossless:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        frac=st.floats(min_value=0.1, max_value=0.9),
        MB=st.sampled_from([1, 2, 4]),
        lo=st.integers(min_value=1, max_value=3),
        mode=st.sampled_from(["training", "inference"]),
        via_budget=st.booleans(),
    )
    def test_random_dags_match_reference_and_uncut(
        self, seed, frac, MB, lo, mode, via_budget
    ):
        graph = build_random_dag(seed=seed, num_nodes=14)
        cap = frac * whole_model_memory(graph, mode, batch_size=32)
        if via_budget:
            # the band is sized for the ample capacity, the slabs for
            # the budget
            cluster, budget = cluster_with(1 << 40), cap
        else:
            cluster, budget = cluster_with(cap), None
        assert_lossless(
            lambda: make_ctx(graph, cluster, batch_size=32, mode=mode),
            range(lo, 5), 4, 1, (MB,), budget=budget,
        )

    @pytest.mark.parametrize("mode", ["training", "inference"])
    @pytest.mark.parametrize("cap_mib", [1.5, 2.5, 3.0])
    def test_width_engages_on_tight_caps(self, mode, cap_mib):
        graph = build_mlp((64, 256, 256, 256, 256, 64))
        cluster = cluster_with(cap_mib * MIB)
        ctx, full = assert_lossless(
            lambda: make_ctx(graph, cluster, mode=mode),
            range(1, 5), 4, 1, (1, 2, 4),
        )
        if mode == "training":
            # the S >= 2 table's stages could span k - 1 blocks (a lone
            # stage is priced without a band), but no stage that wide
            # fits
            k = ctx.memo.k
            assert ctx.band_width_max < k - 1
            assert full.band_width_max == k - 1
            assert ctx.cells_reduced < full.cells_reduced
            spans = [b.span for b in ctx.memo._band_cache.values()]
            assert max(spans) < k - 1

    def test_budget_narrows_slabs_not_bands(self):
        graph = build_mlp((64, 256, 256, 256, 256, 64))
        ctx, full = assert_lossless(
            lambda: make_ctx(graph, cluster_with(1 << 30)),
            range(1, 5), 4, 1, (1, 2, 4), budget=2.5 * MIB,
        )
        # bands as wide as the S >= 2 table's spans
        k = ctx.memo.k
        bands = ctx.memo._band_cache.values()
        assert {b.fit_width for b in bands} == {k}
        assert {b.span for b in bands} == {k - 1}
        assert ctx.band_width_max < k - 1
        assert ctx.cells_reduced < full.cells_reduced

    @pytest.mark.parametrize("big_mib", [2.5, 3.0, 64.0])
    @pytest.mark.parametrize("shape", [(4, 1), (2, 2)])
    def test_heterogeneous_cluster(self, big_mib, shape):
        """The width comes from the largest per-slot cap."""
        graph = build_mlp((64, 256, 256, 256, 256, 64))
        cluster = tiny_mixed_cluster(
            devices_per_node=2,
            small_memory_bytes=int(2.0 * MIB),
            big_memory_bytes=int(big_mib * MIB),
            straggler_factor=1.25,
        )
        D, R = shape
        ctx, _ = assert_lossless(
            lambda: make_ctx(graph, cluster),
            range(1, D + 1), D, R, (1, 4),
        )
        if big_mib < 64:
            assert ctx.band_width_max < ctx.memo.k

    @pytest.mark.parametrize("frac", [0.3, 0.6, 1.0])
    def test_summed_atomic_context(self, tiny_bert, frac):
        """A subclass with its own stage-cost kernel: its bands are
        sized by the memory floor, its slabs by its own memory."""
        probe = atomic_ctx(
            tiny_bert, cluster_with(1 << 40), batch_size=32
        ).memo
        # the whole model at the sweeps' smallest microbatch (MB=2, r=2)
        cap = frac * float(probe._range_costs(0, probe.k, 8, 2, False)[2])
        ctx, _ = assert_lossless(
            lambda: atomic_ctx(tiny_bert, cluster_with(cap), batch_size=32),
            range(1, 3), 2, 1, (1, 2),
        )
        if frac < 1.0:
            assert ctx.band_width_max < ctx.memo.k


# ----------------------------------------------------------------------
# soundness of the width


class TestWidthIsSound:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        frac=st.floats(min_value=0.05, max_value=1.2),
        D=st.integers(min_value=1, max_value=4),
        MB=st.sampled_from([1, 2, 4]),
        mode=st.sampled_from(["training", "inference"]),
    )
    def test_no_stage_past_the_width_fits(self, seed, frac, D, MB, mode):
        """Every valid entry wider than the band's ``fit_width`` is over
        the capacity, on every plane, and the band stops there."""
        graph = build_random_dag(seed=seed, num_nodes=14)
        cap = frac * whole_model_memory(graph, mode, batch_size=32)
        run = make_ctx(graph, cluster_with(cap), batch_size=32, mode=mode)
        k = run.memo.k
        band = run.profile_bands(D, 1, MB, k)
        assert band.capacity == run.capacity
        assert band.span == max(1, min(k, band.fit_width))
        _, _, MEM = profile_tensors_reference(run, D, 1, MB, True)
        for r in range(1, D + 1):
            for lo in range(k):
                for hi in range(lo + 1 + band.fit_width, k + 1):
                    if np.isfinite(MEM[lo, hi, r]):
                        assert MEM[lo, hi, r] > run.capacity, (lo, hi, r)
        # the band holds every stage that does fit, bit for bit
        for r in range(1, D + 1):
            p = int(band.plane_of_r[r])
            if p < 0:
                continue
            for hi in range(k + 1):
                for j in range(band.span):
                    if hi - 1 - j >= 0:
                        assert band.mem[p, hi, j] == MEM[hi - 1 - j, hi, r]

    def test_slab_width_is_exact(self):
        """The slabs stop at the widest span some plane fits: it fits at
        that width, and nothing wider does."""
        graph = build_mlp((64, 256, 256, 256, 256, 64))
        run = make_ctx(graph, cluster_with(1 << 30))
        k = run.memo.k
        band = run.profile_bands(4, 1, 2, k)
        cap = 2.5 * MIB
        over = band.mem > cap
        w = stage_dp._slab_width(over, k)
        assert 1 <= w < k
        assert (~over[:, :, w - 1]).any()
        assert over[:, :, w:].all()


# ----------------------------------------------------------------------
# one context reused across budgets and capacities, each by its own run


class TestReusedContext:
    GRAPH = build_mlp((64, 256, 256, 256, 256, 64))
    MBS = (1, 2, 4)

    def answer(self, run):
        return run_sweeps(run, range(1, 5), 4, 1, self.MBS)

    def fresh(self, cluster, budget=None):
        return self.answer(
            make_ctx(self.GRAPH, cluster, memory_budget=budget)
        )

    def test_budget_lowered_then_raised(self):
        cluster = cluster_with(4 * MIB)
        memo = make_ctx(self.GRAPH, cluster).memo
        builds = 0
        for budget in (None, 2.0 * MIB, None, 1.5 * MIB, 3.0 * MIB):
            run = DPRun(memo, cluster, budget)
            assert self.answer(run) == self.fresh(cluster, budget), budget
            builds += run.band_builds
        # the budget never rebuilds a band: one build per key
        assert builds == len(self.MBS)

    def test_rebind_to_larger_capacity_rebuilds_wider(self):
        """A run on a larger capacity than the context's bands were
        sized for rebuilds them wider; a later run on the smaller one
        reads the wider bands."""
        small, large = cluster_with(2.0 * MIB), cluster_with(3.5 * MIB)
        first = make_ctx(self.GRAPH, small)
        memo = first.memo
        assert self.answer(first) == self.fresh(small)
        narrow = {key: b.span for key, b in memo._band_cache.items()}

        run = DPRun(memo, large)
        assert self.answer(run) == self.fresh(large)
        fresh_large = make_ctx(self.GRAPH, large)
        self.answer(fresh_large)
        # never narrower than a fresh context's band at the new capacity
        for key, band in memo._band_cache.items():
            assert band.span >= fresh_large.memo._band_cache[key].span
            assert band.capacity == fresh_large.capacity
        assert any(
            memo._band_cache[key].span > span for key, span in narrow.items()
        )
        # at most one build per key
        assert 0 < run.band_builds <= len(self.MBS)

        # back down: the wider bands serve the smaller capacity
        run = DPRun(memo, small)
        assert self.answer(run) == self.fresh(small)
        assert run.band_builds == 0
        assert run.band_cache_hits > 0

    def test_one_band_per_key(self):
        # the S >= 2 table of each sweep builds the one band of its
        # (D, R, MB); the lone stage reads none
        run = make_ctx(self.GRAPH, cluster_with(4 * MIB))
        self.answer(run)
        assert sorted(run.memo._band_cache) == [(4, 1, MB) for MB in self.MBS]
        alone = make_ctx(self.GRAPH, cluster_with(4 * MIB))
        run_sweeps(alone, range(1, 2), 4, 1, self.MBS)
        assert alone.memo._band_cache == {}
        assert alone.states_evaluated == len(self.MBS)

"""Equivalence suite for the Algorithm-1 evaluator.

Production evaluates Algorithm 1 on one path: banded profiles, every
replica plane of a ``d'`` column reduced in one pass, over chunks of at
most ``PLANE_CHUNK_CELLS`` slab cells.  Every stage count of every sweep
is held to the pure-Python ``reference_form_stage_dp``, homogeneous and
heterogeneous clusters alike, and neither the chunking, the band-width
cut nor the host's core count may change anything *bit for bit*: same
plans, same tie-breaks, same ``dp_calls`` / ``states_evaluated``
counters.  The
banded profile construction is additionally checked against the
per-entry scalar profile oracle (``profile_tensors_reference`` in
``tests/partitioner/oracles.py``) with hypothesis-driven shapes, so any
drift between the stage-cost kernel over band grids and the scalar
profile arithmetic fails loudly.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partitioner.stage_dp as stage_dp
from repro.hardware import tiny_cluster, tiny_mixed_cluster
from repro.models import build_mlp
from repro.models.random_dag import build_random_dag
from repro.obs import MetricsRegistry
from repro.partitioner import auto_partition
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import block_partition
from repro.partitioner.search import form_stage
from repro.partitioner.stage_dp import DPContext, DPRun, form_stage_dp
from repro.planner import PlannerConfig
from repro.profiler import GraphProfiler
from tests.partitioner.oracles import (
    profile_tensors_reference,
    reference_form_stage_dp,
)

#: plane chunking -> slab-cell budget per reduction pass: the default
#: takes every plane of these small inputs at once, 1 one plane per pass
CHUNKINGS = {"default": stage_dp.PLANE_CHUNK_CELLS, "one_plane": 1}


@contextmanager
def chunking(name):
    """Reduce ``CHUNKINGS[name]`` slab cells per pass."""
    with mock.patch.object(stage_dp, "PLANE_CHUNK_CELLS", CHUNKINGS[name]):
        yield


def make_ctx(graph=None, k=6, batch_size=32, cluster=None, seed=None,
             memory_budget=None):
    """A run on ``cluster`` over a fresh context (``run.memo``)."""
    if graph is None:
        graph = (
            build_random_dag(seed=seed, num_nodes=10)
            if seed is not None
            else build_mlp((32, 64, 64, 64, 64, 16))
        )
    cluster = cluster or tiny_cluster(
        num_nodes=1, devices_per_node=4, memory_bytes=4 * 1024**3
    )
    profiler = GraphProfiler(graph, cluster)
    blocks = block_partition(
        graph, atomic_partition(graph), profiler, cluster, num_blocks=k
    )
    ctx = DPContext(graph, blocks, profiler, batch_size)
    return DPRun(ctx, cluster, memory_budget)


def solution_key(sol):
    """Everything that identifies a DP solution, floats compared exactly."""
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


def sweep_with_counters(ctx, stage_counts, D, R, MB):
    """One sweep plus the counters it moved (context and metrics)."""
    m = MetricsRegistry()
    before = ctx.states_evaluated
    sweep = form_stage_dp(ctx, stage_counts, D, R, MB)
    ctx.publish(m)
    counters = (
        ctx.states_evaluated - before,
        m.counter("dp.states_evaluated").value,
        m.counter("dp.calls").value,
    )
    return {S: solution_key(sol) for S, sol in sweep.items()}, counters


# ----------------------------------------------------------------------
# banded construction vs the per-entry oracle


class TestBandedConstruction:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        D=st.integers(min_value=1, max_value=4),
        R=st.integers(min_value=1, max_value=2),
        MB=st.sampled_from([1, 2, 4]),
    )
    def test_bands_match_reference(self, seed, D, R, MB):
        ctx = make_ctx(seed=seed, k=5, batch_size=16)
        span = ctx.memo.k  # widest possible band: covers every (lo, hi]
        bands = ctx.profile_bands(D, R, MB, span)
        # bands price multi-stage layouts: checkpointing is on
        TF, TB, MEM = profile_tensors_reference(ctx, D, R, MB, True)
        for r in range(1, D + 1):
            p = int(bands.plane_of_r[r])
            if p < 0:
                # collapsed microbatch: the oracle has no entries either
                assert ctx.memo.batch_size // (R * MB * r) < 1
                assert not np.isfinite(TF[:, :, r]).any()
                continue
            for hi in range(ctx.memo.k + 1):
                for j in range(span):
                    lo = hi - 1 - j
                    ref = (
                        (TF[lo, hi, r], TB[lo, hi, r], MEM[lo, hi, r])
                        if lo >= 0
                        else (np.inf, np.inf, np.inf)
                    )
                    got = (
                        bands.tf[p, hi, j],
                        bands.tb[p, hi, j],
                        bands.mem[p, hi, j],
                    )
                    assert got == ref  # bit-identical, inf included

    def test_band_cache_grows_monotonically(self):
        ctx = make_ctx()
        narrow = ctx.profile_bands(4, 1, 2, 2)
        assert narrow.span == 2
        wide = ctx.profile_bands(4, 1, 2, 4)
        assert wide.span == 4
        again = ctx.profile_bands(4, 1, 2, 3)  # narrower: cache hit
        assert again is wide
        assert (ctx.band_builds, ctx.band_cache_hits) == (2, 1)

    def test_plane_dedup_by_microbatch(self):
        ctx = make_ctx(batch_size=32)
        bands = ctx.profile_bands(4, 1, 4, ctx.memo.k)
        # bs = 32 // (4 * r) = 8, 4, 2, 2 -> r=3 and r=4 share a plane
        assert bands.plane_of_r[3] == bands.plane_of_r[4]
        assert len(bands.bs_list) == len(set(bands.bs_list))


# ----------------------------------------------------------------------
# plane chunking bit-identity (plans AND counters)


class TestEngineBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        S=st.integers(min_value=1, max_value=4),
        MB=st.sampled_from([1, 2, 4]),
    )
    def test_engines_identical_on_random_dags(self, seed, S, MB):
        results = {}
        for name in CHUNKINGS:
            with chunking(name):
                ctx = make_ctx(seed=seed, k=6, batch_size=32)
                results[name] = sweep_with_counters(
                    ctx, range(S, 5), 4, 1, MB
                )
        assert results["default"] == results["one_plane"]

    def test_engines_identical_under_memory_pressure(self):
        # a budget tight enough that memory failures shape the plans
        cluster = tiny_cluster(
            num_nodes=1, devices_per_node=4, memory_bytes=24 * 1024**2
        )
        g = build_mlp((64, 256, 256, 256, 64))
        results = {}
        for name in CHUNKINGS:
            with chunking(name):
                ctx = make_ctx(graph=g, k=8, batch_size=64, cluster=cluster)
                results[name] = sweep_with_counters(
                    ctx, range(1, 5), 4, 1, 2
                )
        assert results["default"] == results["one_plane"]
        # the one-plane passes really split the columns: batch 64 at MB=2
        # gives a plane per replica count
        bands = ctx.profile_bands(4, 1, 2, ctx.memo.k)
        assert len(bands.bs_list) > 1


# ----------------------------------------------------------------------
# one sweep answers every stage count of a range


class TestStageCountSweep:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        lo=st.integers(min_value=1, max_value=4),
        MB=st.sampled_from([1, 2, 4]),
        R=st.sampled_from([1, 2]),
    )
    def test_sweep_matches_reference_per_stage_count(self, seed, lo, MB, R):
        ctx = make_ctx(seed=seed, k=6, batch_size=32)
        sweep = form_stage_dp(ctx, range(lo, 5), 4, R, MB)
        assert sorted(sweep) == list(range(lo, 5))
        for S, sol in sweep.items():
            ref = reference_form_stage_dp(ctx, S, 4, 32, R, MB)
            assert solution_key(sol) == solution_key(ref), S

    @pytest.mark.parametrize("mem_mib", [12, 16, 24, 48])
    def test_sweep_matches_reference_under_memory_pressure(self, mem_mib):
        # budgets tight enough that memory dead ends drive the
        # reference's d_min pruning at every stage of the sweep
        cluster = tiny_cluster(
            num_nodes=1, devices_per_node=4, memory_bytes=mem_mib * 1024**2
        )
        g = build_mlp((64, 256, 256, 256, 256, 64))
        ctx = make_ctx(graph=g, k=8, batch_size=64, cluster=cluster)
        for MB in (1, 4, 16):
            sweep = form_stage_dp(ctx, range(1, 5), 4, 1, MB)
            for S, sol in sweep.items():
                ref = reference_form_stage_dp(ctx, S, 4, 64, 1, MB)
                assert solution_key(sol) == solution_key(ref), (S, MB)

    def test_one_dp_call_per_sweep(self):
        ctx = make_ctx(k=6, batch_size=32)
        m = MetricsRegistry()
        form_stage_dp(ctx, range(1, 5), 4, 1, 2)
        ctx.publish(m)
        assert ctx.dp_calls == m.counter("dp.calls").value == 1
        assert ctx.states_evaluated == m.counter(
            "dp.states_evaluated[D=4,MB=2]"
        ).value > 0
        # stage counts beyond the devices: answered, but no DP call
        out = form_stage_dp(ctx, range(5, 7), 4, 1, 2)
        assert out == {5: None, 6: None}
        assert ctx.dp_calls == 1

    def test_stage_counts_must_be_contiguous(self):
        ctx = make_ctx()
        with pytest.raises(ValueError, match="contiguous"):
            form_stage_dp(ctx, range(1, 5, 2), 4, 1, 1)

    def test_unknown_engine_rejected(self):
        ctx = make_ctx()
        with pytest.raises(TypeError, match="engine"):
            form_stage_dp(ctx, range(2, 3), 4, 1, 1, engine="numpy")


# ----------------------------------------------------------------------
# one context reused across runs with different memory budgets


class TestReusedContextBudget:
    @pytest.mark.parametrize("kind", ["homogeneous", "heterogeneous"])
    def test_budget_changes_match_reference(self, kind):
        """None -> tight -> None -> tight on ONE context, the way a plan
        service's delta replan reuses ``dp_context``: each stage-search
        pass builds its own run with its budget over the shared context.
        Each sweep answers every S like the reference under the run's
        budget."""
        if kind == "homogeneous":
            cluster = tiny_cluster(
                num_nodes=1, devices_per_node=4, memory_bytes=64 * 2**20
            )
        else:
            cluster = tiny_mixed_cluster(
                devices_per_node=2,
                small_memory_bytes=48 * 2**20,
                big_memory_bytes=64 * 2**20,
            )
        g = build_mlp((64, 256, 256, 256, 256, 64))
        memo = make_ctx(graph=g, k=8, batch_size=64, cluster=cluster).memo
        # stages need up to ~4 MiB here: 2 MiB rules out half the answers
        tight = 2 * 2**20
        answers = []
        for step, budget in enumerate((None, tight, None, tight)):
            ctx = DPRun(memo, cluster, budget)
            answer = {}
            for MB in (1, 4, 16):
                sweep = form_stage_dp(ctx, range(1, 5), 4, 1, MB)
                for S, sol in sweep.items():
                    ref = reference_form_stage_dp(ctx, S, 4, 64, 1, MB)
                    assert solution_key(sol) == solution_key(ref), (
                        step, S, MB,
                    )
                    answer[S, MB] = solution_key(sol)
            answers.append((answer, ctx.states_evaluated))
        assert answers[0] == answers[2]
        assert answers[1] == answers[3]
        # the budget binds, and leaves some stage counts feasible
        loose, tight_answer = answers[0][0], answers[1][0]
        assert all(sol is not None for sol in loose.values())
        assert 0 < sum(sol is None for sol in tight_answer.values()) < len(
            tight_answer
        )


# ----------------------------------------------------------------------
# heterogeneous clusters: per-slot caps and speeds


class TestHeterogeneousSweep:
    @settings(max_examples=25, deadline=None)
    @given(
        small_mib=st.sampled_from([2.5, 3.0, 3.5, 4.0, 64.0]),
        straggler=st.sampled_from([1.0, 1.25, 2.0]),
        shape=st.sampled_from([(4, 1), (2, 2), (3, 1)]),
        MB=st.sampled_from([1, 4, 16]),
        budget_mib=st.sampled_from([None, 3.5]),
        lo=st.integers(min_value=1, max_value=3),
    )
    def test_sweep_matches_reference_on_tiny_mixed(
        self, small_mib, straggler, shape, MB, budget_mib, lo
    ):
        """Small-class memory from starved to ample, a straggling small
        class and a memory budget: every S of a sweep equals the
        reference, which caps each stage at MINMEM[d', d] and scales it
        by SLOW[d', d]."""
        cluster = tiny_mixed_cluster(
            devices_per_node=2,
            small_memory_bytes=int(small_mib * 2**20),
            big_memory_bytes=64 * 2**20,
            straggler_factor=straggler,
        )
        g = build_mlp((64, 256, 256, 256, 256, 64))
        ctx = make_ctx(
            graph=g, k=8, batch_size=64, cluster=cluster,
            memory_budget=None if budget_mib is None else budget_mib * 2**20,
        )
        D, R = shape
        sweep = form_stage_dp(ctx, range(lo, 5), D, R, MB)
        for S, sol in sweep.items():
            ref = reference_form_stage_dp(ctx, S, D, 64, R, MB)
            assert solution_key(sol) == solution_key(ref), S

    def test_straggler_and_tight_memory_shape_the_answer(self):
        # guards the test above against a vacuous grid: the per-slot
        # tables must actually change solutions
        def solve(small_mib, straggler):
            cluster = tiny_mixed_cluster(
                devices_per_node=2,
                small_memory_bytes=int(small_mib * 2**20),
                big_memory_bytes=64 * 2**20,
                straggler_factor=straggler,
            )
            g = build_mlp((64, 256, 256, 256, 256, 64))
            ctx = make_ctx(graph=g, k=8, batch_size=64, cluster=cluster)
            return {
                S: solution_key(sol)
                for S, sol in form_stage_dp(ctx, range(1, 5), 4, 1, 4).items()
            }

        ample = solve(64.0, 1.0)
        assert solve(64.0, 2.0) != ample
        starved = solve(2.5, 1.0)
        assert starved != ample
        assert any(sol is None for sol in starved.values())


# ----------------------------------------------------------------------
# Algorithm 2 does not depend on the host


class TestSearchBackends:
    def run_search(self, cpus):
        ctx = make_ctx(k=8, batch_size=32)
        m = MetricsRegistry()
        with mock.patch("os.cpu_count", return_value=cpus):
            res = form_stage(ctx)
        ctx.publish(m)
        assert res is not None
        return res, (
            solution_key(res.solution),
            res.candidates_tried,
            res.dp_calls,
            ctx.dp_calls,
            ctx.states_evaluated,
            m.snapshot(),
        )

    def test_backends_bit_identical(self):
        serial, serial_key = self.run_search(cpus=1)
        pooled, pooled_key = self.run_search(cpus=4)
        assert serial_key == pooled_key

    def test_unknown_backend_rejected(self):
        ctx = make_ctx()
        with pytest.raises(TypeError, match="backend"):
            form_stage(ctx, backend="thread")


# ----------------------------------------------------------------------
# config plumbing: the run-mode knobs are gone


class TestConfigKnobs:
    def test_bad_engine_rejected(self, tiny_bert, cluster):
        with pytest.raises(TypeError, match="dp_engine"):
            PlannerConfig(batch_size=32, dp_engine="banded")
        with pytest.raises(TypeError, match="dp_engine"):
            auto_partition(tiny_bert, cluster, 32, dp_engine="banded")

    def test_uncoarsen_knob_rejected(self, tiny_bert, cluster):
        # uncoarsening always runs; the switch that disabled it is gone
        with pytest.raises(TypeError, match="uncoarsen"):
            PlannerConfig(batch_size=32, uncoarsen=False)
        with pytest.raises(TypeError, match="uncoarsen"):
            auto_partition(tiny_bert, cluster, 32, uncoarsen=False)

    def test_validate_knob_rejected(self, tiny_bert, cluster):
        # the graph is always validated; the switch that skipped it is gone
        with pytest.raises(TypeError, match="validate"):
            PlannerConfig(batch_size=32, validate=False)
        with pytest.raises(TypeError, match="validate"):
            auto_partition(tiny_bert, cluster, 32, validate=False)

    @pytest.mark.parametrize(
        "field, value",
        [("num_blocks", 0),
         ("num_blocks", -3), ("max_microbatches", 0),
         ("memory_budget", 0.0), ("memory_budget", -1.0),
         ("memory_budget", float("nan")), ("memory_budget", float("inf"))],
    )
    def test_malformed_value_rejected(self, field, value):
        # rejected when the config is built, before any pass runs
        with pytest.raises(ValueError, match=field):
            PlannerConfig(batch_size=32, **{field: value})

    def test_batch_size_bound(self):
        from repro.planner.context import MAX_BATCH_SIZE

        assert PlannerConfig(batch_size=MAX_BATCH_SIZE).batch_size
        with pytest.raises(ValueError, match="batch_size"):
            PlannerConfig(batch_size=MAX_BATCH_SIZE + 1)

    def test_bad_backend_rejected(self):
        for knob, value in [
            ("search_backend", "thread"),
            ("parallel_search", False),
            ("search_workers", 2),
        ]:
            with pytest.raises(TypeError, match=knob):
                PlannerConfig(batch_size=32, **{knob: value})

    def test_inputs_owned_elsewhere_rejected(self, tiny_bert, cluster,
                                             tmp_path):
        # the schedule is always the flush one, the comm model is the
        # cluster's, and the cache belongs to the store a run is handed
        for knob, value in [
            ("schedule", "sync"),
            ("comm_model", "topology"),
            ("cache_dir", tmp_path),
            ("cache_budget_bytes", 2**20),
        ]:
            with pytest.raises(TypeError, match=knob):
                PlannerConfig(batch_size=32, **{knob: value})
        with pytest.raises(TypeError, match="comm_model"):
            auto_partition(tiny_bert, cluster, 32, comm_model="topology")

    def test_run_mode_knobs_not_fingerprinted(self, tiny_bert, cluster):
        # the run-mode knobs leave the finished plan's store address alone
        from repro.service.protocol import request_key

        base = request_key(tiny_bert, cluster, PlannerConfig(batch_size=32))
        for knob, value in [
            ("trace", True),
            ("verify", False),
        ]:
            config = PlannerConfig(batch_size=32, **{knob: value})
            assert request_key(tiny_bert, cluster, config) == base, knob

"""Equivalence suite for the native-speed DP core.

Every DP engine (dense slab, banded, JIT kernel, legacy rows) and every
search backend (serial, thread, process) must produce *bit-identical*
results: same plans, same tie-breaks, same ``dp_calls`` /
``states_evaluated`` counters.  The banded profile construction is
additionally checked against the per-entry ``stage_profile`` oracle
(:meth:`DPContext.profile_tensors_reference`) with hypothesis-driven
shapes, so any drift between the vectorized band gather and the scalar
profile arithmetic fails loudly.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import tiny_cluster
from repro.models import build_mlp
from repro.models.random_dag import build_random_dag
from repro.obs import MetricsRegistry
from repro.partitioner import _dp_kernels
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import block_partition
from repro.partitioner.search import SEARCH_BACKENDS, form_stage
from repro.partitioner.stage_dp import (
    DP_ENGINES,
    DPContext,
    FULL_TENSOR_MAX_CELLS,
    form_stage_dp,
    reference_form_stage_dp,
    resolve_dp_engine,
)
from repro.planner import PlannerConfig
from repro.profiler import GraphProfiler

ENGINES = list(DP_ENGINES)


def make_ctx(graph=None, k=6, batch_size=32, cluster=None, seed=None):
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
        graph, atomic_partition(graph), profiler, num_blocks=k
    )
    return DPContext(graph, blocks, profiler, batch_size)


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


# ----------------------------------------------------------------------
# engine knob resolution


class TestResolveEngine:
    def test_small_instances_use_full_slab(self):
        assert resolve_dp_engine("numpy", 6, 4) == "full"
        assert resolve_dp_engine("auto", 6, 4) == "full"
        assert resolve_dp_engine("dense", 6, 4) == "full"

    def test_large_instances_split_by_knob(self):
        k = 600  # (601^2)(33^2) >> FULL_TENSOR_MAX_CELLS
        assert (k + 1) ** 2 * 33**2 > FULL_TENSOR_MAX_CELLS
        assert resolve_dp_engine("numpy", k, 32) == "banded"
        assert resolve_dp_engine("dense", k, 32) == "rows"

    def test_forced_engines(self):
        assert resolve_dp_engine("banded", 6, 4) == "banded"
        assert resolve_dp_engine("rows", 6, 4) == "rows"

    def test_numba_knob_degrades_to_banded_without_numba(self):
        expect = "kernel" if _dp_kernels.kernel_available() else "banded"
        assert resolve_dp_engine("numba", 6, 4) == expect

    def test_numba_knob_uses_kernel_when_available(self, monkeypatch):
        monkeypatch.setattr(_dp_kernels, "NUMBA_AVAILABLE", True)
        assert resolve_dp_engine("numba", 6, 4) == "kernel"

    def test_unsupported_context_falls_back_dense(self):
        assert resolve_dp_engine("banded", 6, 4, banded_supported=False) == (
            "full"
        )
        assert resolve_dp_engine(
            "numba", 600, 32, banded_supported=False
        ) == "rows"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown dp engine"):
            resolve_dp_engine("cuda", 6, 4)


# ----------------------------------------------------------------------
# banded construction vs the per-entry oracle


class TestBandedConstruction:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        D=st.integers(min_value=1, max_value=4),
        R=st.integers(min_value=1, max_value=2),
        MB=st.sampled_from([1, 2, 4]),
        checkpointing=st.booleans(),
    )
    def test_bands_match_reference(self, seed, D, R, MB, checkpointing):
        ctx = make_ctx(seed=seed, k=5, batch_size=16)
        span = ctx.k  # widest possible band: covers every (lo, hi]
        bands = ctx.profile_bands(D, R, MB, checkpointing, span)
        TF, TB, MEM = ctx.profile_tensors_reference(D, R, MB, checkpointing)
        for r in range(1, D + 1):
            p = int(bands.plane_of_r[r])
            if p < 0:
                # collapsed microbatch: the oracle has no entries either
                assert ctx.batch_size // (R * MB * r) < 1
                assert not np.isfinite(TF[:, :, r]).any()
                continue
            for lo in range(ctx.k):
                for j in range(span):
                    hi = lo + 1 + j
                    ref = (
                        (TF[lo, hi, r], TB[lo, hi, r], MEM[lo, hi, r])
                        if hi <= ctx.k
                        else (np.inf, np.inf, np.inf)
                    )
                    got = (
                        bands.tf[p, lo, j],
                        bands.tb[p, lo, j],
                        bands.mem[p, lo, j],
                    )
                    assert got == ref  # bit-identical, inf included

    def test_band_cache_grows_monotonically(self):
        ctx = make_ctx()
        m = MetricsRegistry()
        ctx.metrics = m
        narrow = ctx.profile_bands(4, 1, 2, True, 2)
        assert narrow.span == 2
        wide = ctx.profile_bands(4, 1, 2, True, 4)
        assert wide.span == 4
        again = ctx.profile_bands(4, 1, 2, True, 3)  # narrower: cache hit
        assert again is wide
        assert m.counter("profiler.band_builds").value == 2
        assert m.counter("profiler.band_cache_hits").value == 1

    def test_plane_dedup_by_microbatch(self):
        ctx = make_ctx(batch_size=32)
        bands = ctx.profile_bands(4, 1, 4, False, ctx.k)
        # bs = 32 // (4 * r) = 8, 4, 2, 2 -> r=3 and r=4 share a plane
        assert bands.plane_of_r[3] == bands.plane_of_r[4]
        assert len(bands.bs_list) == len(set(bands.bs_list))


# ----------------------------------------------------------------------
# engine bit-identity (plans AND counters)


class TestEngineBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        S=st.integers(min_value=1, max_value=4),
        MB=st.sampled_from([1, 2, 4]),
    )
    def test_engines_identical_on_random_dags(self, seed, S, MB):
        ctx = make_ctx(seed=seed, k=6, batch_size=32)
        keys, counters = {}, {}
        for engine in ENGINES:
            m = MetricsRegistry()
            before = ctx.states_evaluated
            sol = form_stage_dp(
                ctx, S, 4, 32, 1, MB, engine=engine, metrics=m
            )
            keys[engine] = solution_key(sol)
            counters[engine] = (
                ctx.states_evaluated - before,
                m.counter("dp.states_evaluated").value,
                m.counter("dp.calls").value,
            )
        assert len(set(keys.values())) == 1, keys
        assert len(set(counters.values())) == 1, counters

    def test_engines_identical_under_memory_pressure(self):
        # a budget tight enough that memory failures drive d_min pruning
        cluster = tiny_cluster(
            num_nodes=1, devices_per_node=4, memory_bytes=24 * 1024**2
        )
        g = build_mlp((64, 256, 256, 256, 64))
        ctx = make_ctx(graph=g, k=8, batch_size=64, cluster=cluster)
        keys = {
            engine: solution_key(
                form_stage_dp(ctx, 2, 4, 64, 1, 2, engine=engine)
            )
            for engine in ENGINES
        }
        assert len(set(keys.values())) == 1, keys

    def test_python_kernel_matches_numpy(self, monkeypatch):
        # pretend numba is importable so the "numba" knob takes the
        # kernel path; the kernel body is plain Python without the JIT,
        # so this exercises the exact loop nest numba would compile
        monkeypatch.setattr(_dp_kernels, "NUMBA_AVAILABLE", True)
        for S, MB in [(1, 1), (2, 2), (3, 1), (4, 4)]:
            ctx = make_ctx(k=6, batch_size=32)
            ref = form_stage_dp(ctx, S, 4, 32, 1, MB, engine="numpy")
            got = form_stage_dp(ctx, S, 4, 32, 1, MB, engine="numba")
            assert solution_key(got) == solution_key(ref)

    def test_custom_stage_profile_context_avoids_bands(self):
        class Perturbed(DPContext):
            # r enters the profile directly: banding must be refused
            def stage_profile(self, lo, hi, r, R, MB, checkpointing):
                prof = super().stage_profile(lo, hi, r, R, MB, checkpointing)
                if prof is None:
                    return None
                return type(prof)(
                    time_fwd=prof.time_fwd * (1 + 0.01 * r),
                    time_bwd=prof.time_bwd,
                    memory=prof.memory,
                    microbatch_size=prof.microbatch_size,
                    in_bytes=prof.in_bytes,
                    out_bytes=prof.out_bytes,
                    param_count=prof.param_count,
                )

        base = make_ctx()
        ctx = Perturbed(base.graph, base.blocks, base.profiler, 32)
        assert not ctx.supports_banded
        # "banded" silently falls back to a dense engine and still
        # returns the perturbed-profile optimum
        a = form_stage_dp(ctx, 2, 4, 32, 1, 2, engine="banded")
        b = form_stage_dp(ctx, 2, 4, 32, 1, 2, engine="rows")
        assert solution_key(a) == solution_key(b)


# ----------------------------------------------------------------------
# one sweep answers every stage count of a range


class TestStageCountSweep:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        lo=st.integers(min_value=1, max_value=4),
        MB=st.sampled_from([1, 2, 4]),
        R=st.sampled_from([1, 2]),
        engine=st.sampled_from(ENGINES),
    )
    def test_sweep_matches_reference_per_stage_count(
        self, seed, lo, MB, R, engine
    ):
        ctx = make_ctx(seed=seed, k=6, batch_size=32)
        sweep = form_stage_dp(ctx, range(lo, 5), 4, 32, R, MB, engine=engine)
        assert sorted(sweep) == list(range(lo, 5))
        for S, sol in sweep.items():
            ref = reference_form_stage_dp(ctx, S, 4, 32, R, MB)
            assert solution_key(sol) == solution_key(ref), S

    @pytest.mark.parametrize("mem_mib", [12, 16, 24, 48])
    def test_sweep_matches_reference_under_memory_pressure(self, mem_mib):
        # budgets tight enough that memory dead ends drive d_min pruning
        # at every stage of the sweep
        cluster = tiny_cluster(
            num_nodes=1, devices_per_node=4, memory_bytes=mem_mib * 1024**2
        )
        g = build_mlp((64, 256, 256, 256, 256, 64))
        ctx = make_ctx(graph=g, k=8, batch_size=64, cluster=cluster)
        for MB in (1, 4, 16):
            sweep = form_stage_dp(ctx, range(1, 5), 4, 64, 1, MB)
            for S, sol in sweep.items():
                ref = reference_form_stage_dp(ctx, S, 4, 64, 1, MB)
                assert solution_key(sol) == solution_key(ref), (S, MB)

    def test_one_dp_call_per_sweep(self):
        ctx = make_ctx(k=6, batch_size=32)
        m = MetricsRegistry()
        form_stage_dp(ctx, range(1, 5), 4, 32, 1, 2, metrics=m)
        assert ctx.dp_calls == m.counter("dp.calls").value == 1
        assert ctx.states_evaluated == m.counter(
            "dp.states_evaluated[D=4,MB=2]"
        ).value > 0
        # stage counts beyond the devices: answered, but no DP call
        out = form_stage_dp(ctx, range(5, 7), 4, 32, 1, 2, metrics=m)
        assert out == {5: None, 6: None}
        assert ctx.dp_calls == 1

    def test_stage_counts_must_be_contiguous(self):
        ctx = make_ctx()
        with pytest.raises(ValueError, match="contiguous"):
            form_stage_dp(ctx, range(1, 5, 2), 4, 32, 1, 1)


# ----------------------------------------------------------------------
# search backends


class TestSearchBackends:
    def run_backend(self, backend):
        ctx = make_ctx(k=8, batch_size=32)
        m = MetricsRegistry()
        res = form_stage(
            ctx, 1, 4, 32, backend=backend, metrics=m, max_workers=2
        )
        assert res is not None
        return (
            solution_key(res.solution),
            res.candidates_tried,
            res.dp_calls,
            ctx.dp_calls,
            ctx.states_evaluated,
            m.snapshot(),
        )

    def test_backends_bit_identical(self):
        results = {b: self.run_backend(b) for b in SEARCH_BACKENDS}
        assert results["serial"] == results["thread"]
        assert results["serial"] == results["process"]

    def test_unknown_backend_rejected(self):
        ctx = make_ctx()
        with pytest.raises(ValueError, match="unknown search backend"):
            form_stage(ctx, 1, 4, 32, backend="mpi")


# ----------------------------------------------------------------------
# context snapshot/fork (the process backend's transport)


class TestContextPickle:
    def test_dp_context_roundtrip_preserves_solutions(self):
        ctx = make_ctx(k=6, batch_size=32)
        before = solution_key(form_stage_dp(ctx, 2, 4, 32, 1, 2))
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.k == ctx.k
        assert clone.batch_size == ctx.batch_size
        after = solution_key(form_stage_dp(clone, 2, 4, 32, 1, 2))
        assert after == before

    def test_dp_context_roundtrip_carries_warm_caches(self):
        ctx = make_ctx(k=6, batch_size=32)
        form_stage_dp(ctx, 2, 4, 32, 1, 2)  # warm the profile caches
        exported = ctx.export_cache_state()
        clone = pickle.loads(pickle.dumps(ctx))
        assert set(clone.export_cache_state()) == set(exported)

    def test_profiler_lock_survives_roundtrip(self):
        ctx = make_ctx()
        clone_prof = pickle.loads(pickle.dumps(ctx.profiler))
        # the re-created lock must actually work
        with clone_prof._lock:
            pass
        tasks = list(ctx.graph.tasks)[:3]
        assert (
            clone_prof.profile(tasks, 4).time_fwd
            == ctx.profiler.profile(tasks, 4).time_fwd
        )


# ----------------------------------------------------------------------
# config plumbing


class TestConfigKnobs:
    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="dp_engine"):
            PlannerConfig(batch_size=32, dp_engine="cuda")

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="search_backend"):
            PlannerConfig(batch_size=32, search_backend="mpi")

    def test_run_mode_knobs_not_fingerprinted(self):
        base = PlannerConfig(batch_size=32)
        assert (
            PlannerConfig(batch_size=32, dp_engine="banded").fingerprint()
            == base.fingerprint()
        )
        assert (
            PlannerConfig(
                batch_size=32, search_backend="process"
            ).fingerprint()
            == base.fingerprint()
        )
        assert (
            PlannerConfig(batch_size=32, search_workers=7).fingerprint()
            == base.fingerprint()
        )

"""The row trim of Algorithm 1's stage reduction.

A sweep float-reduces only the rows of a ``d'`` column that can reach
an answer: rows with a feasible previous state in their window (forward
bound) at ``b >= k - (s_hi - s) * w`` (backward bound: no stage is wider
than the slab width ``w``).  The trim must change nothing but the
work: every stage count of a sweep equals the pure-Python
``reference_form_stage_dp``, the answers and the ``states_evaluated`` /
``dp_calls`` counters equal those of a sweep with the bounds patched
off, and whenever a bound cuts a column the sweep float-reduces
strictly fewer cells.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partitioner.stage_dp as stage_dp
from repro.hardware import tiny_mixed_cluster
from repro.models import build_mlp
from repro.models.random_dag import build_random_dag
from tests.partitioner.oracles import reference_form_stage_dp
from tests.partitioner.test_band_width import (
    MIB,
    cluster_with,
    make_ctx,
    run_sweeps,
    solution_key,
    whole_model_memory,
)
from tests.partitioner.test_sweep_seed import unskipped

K = 16
#: a chain of equal layers: blocks of one size, so the widest stage that
#: fits is the only one that reaches block k in the fewest stages
CHAIN = build_mlp((64,) + (256,) * 20 + (64,))


@contextmanager
def untrimmed():
    """Every row of every column float-reduced."""

    def every_row(prev_ok, ws, back):
        n, cols = prev_ok.shape
        return [0] * cols, [n] * cols

    with mock.patch.object(stage_dp, "_live_rows", every_row):
        yield


@contextmanager
def trim_probe():
    """Record whether a bound cut the float rows of a live column."""
    seen = {"cut": False}
    live_rows = stage_dp._live_rows

    def probe(prev_ok, ws, back):
        lo, hi = live_rows(prev_ok, ws, back)
        n = prev_ok.shape[0]
        live = prev_ok.any(axis=0)
        if any(
            live[c] and hi[c] - lo[c] < n for c in range(prev_ok.shape[1])
        ):
            seen["cut"] = True
        return lo, hi

    with mock.patch.object(stage_dp, "_live_rows", probe):
        yield seen


def assert_trim_lossless(make, stage_counts, D, R, mbs):
    """The trimmed sweeps answer like the reference and like the
    untrimmed ones, counters included; returns whether the trim
    engaged."""
    ctx = make()
    with trim_probe() as seen:
        answers, counters = run_sweeps(ctx, stage_counts, D, R, mbs)
    assert ctx.memo.k >= K
    for (S, MB), key in answers.items():
        ref = reference_form_stage_dp(ctx, S, D, ctx.memo.batch_size, R, MB)
        assert key == solution_key(ref), (S, MB)
    with untrimmed():
        full = make()
        assert run_sweeps(full, stage_counts, D, R, mbs) == (
            answers, counters,
        )
    if seen["cut"]:
        assert ctx.cells_reduced < full.cells_reduced
    else:
        assert ctx.cells_reduced == full.cells_reduced
    return seen["cut"]


class TestTrimIsLossless:
    @pytest.mark.parametrize("mode", ["training", "inference"])
    @pytest.mark.parametrize("frac", [0.2, 0.26, 0.35])
    @pytest.mark.parametrize("lo", [1, 3])
    def test_chain_under_tight_caps(self, mode, frac, lo):
        cap = frac * whole_model_memory(CHAIN, mode, k=K)
        # the tightest caps leave some sweeps no layout, and those fill
        # no table unless the skip is off (DESIGN.md D2e)
        with unskipped():
            cut = assert_trim_lossless(
                lambda: make_ctx(CHAIN, cluster_with(cap), k=K, mode=mode),
                range(lo, 5), 4, 1, (1, 2, 4),
            )
        assert cut

    @pytest.mark.parametrize("seed", [1, 3, 6])
    def test_random_dags_whose_plans_open_with_one_block(self, seed):
        """Caps under which the first feasible row of a column, a stage
        of one block, is on the answer's path."""
        graph = build_random_dag(seed=seed, num_nodes=40)
        cap = 0.2 * whole_model_memory(graph, k=K, batch_size=32)
        with unskipped():
            cut = assert_trim_lossless(
                lambda: make_ctx(graph, cluster_with(cap), k=K,
                                 batch_size=32),
                range(1, 5), 4, 1, (1, 2),
            )
        assert cut

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        frac=st.floats(min_value=0.15, max_value=0.6),
        MB=st.sampled_from([1, 2, 4]),
        lo=st.integers(min_value=1, max_value=4),
        mode=st.sampled_from(["training", "inference"]),
    )
    def test_random_dags(self, seed, frac, MB, lo, mode):
        graph = build_random_dag(seed=seed, num_nodes=40)
        cap = frac * whole_model_memory(graph, mode, k=K, batch_size=32)
        assert_trim_lossless(
            lambda: make_ctx(
                graph, cluster_with(cap), k=K, batch_size=32, mode=mode
            ),
            range(lo, 5), 4, 1, (MB,),
        )

    @pytest.mark.parametrize("big_mib", [4.0, 6.0])
    @pytest.mark.parametrize("shape", [(4, 1), (2, 2)])
    def test_heterogeneous_cluster(self, big_mib, shape):
        """Per-slot caps and paces: the trim still changes nothing."""
        cluster = tiny_mixed_cluster(
            devices_per_node=2,
            small_memory_bytes=int(2.5 * MIB),
            big_memory_bytes=int(big_mib * MIB),
            straggler_factor=1.25,
        )
        D, R = shape
        cut = assert_trim_lossless(
            lambda: make_ctx(CHAIN, cluster, k=K),
            range(1, D + 1), D, R, (1, 4),
        )
        assert cut


class TestLiveRows:
    @pytest.mark.parametrize("seed", range(16))
    def test_bounds_are_the_first_and_last_forward_live_rows(self, seed):
        """``[lo, hi)`` spans exactly the rows with a feasible ``b'`` in
        their window, from the backward bound on."""
        rng = np.random.default_rng(seed)
        n, cols = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        prev_ok = rng.random((n, cols)) < rng.uniform(0.02, 0.3)
        ws = int(rng.integers(1, n + 1))
        back = int(rng.integers(-3, n + 4))
        lo, hi = stage_dp._live_rows(prev_ok, ws, back)
        for c in range(cols):
            live = [
                i for i in range(n)
                if prev_ok[max(0, i - ws + 1):i + 1, c].any()
            ]
            if not live:
                continue
            assert hi[c] == live[-1] + 1
            assert lo[c] == min(max(back, live[0]), hi[c])

"""Tests for the GraphProfiler oracle (profile(U, bs) -> (t_f, t_b, m))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Precision, paper_cluster
from repro.profiler import GraphProfiler


class TestProfileBasics:
    def test_whole_graph(self, bert_profiler, tiny_bert):
        r = bert_profiler.profile(list(tiny_bert.tasks), 4)
        assert r.time_fwd > 0 and r.time_bwd > r.time_fwd
        assert r.param_count == tiny_bert.num_parameters()
        assert r.memory > 0

    def test_additivity_of_disjoint_parts(self, bert_profiler, tiny_bert):
        tasks = list(tiny_bert.tasks)
        half = len(tasks) // 2
        r1 = bert_profiler.profile(tasks[:half], 4)
        r2 = bert_profiler.profile(tasks[half:], 4)
        whole = bert_profiler.profile(tasks, 4)
        assert r1.time_fwd + r2.time_fwd == pytest.approx(whole.time_fwd)
        assert r1.time_bwd + r2.time_bwd == pytest.approx(whole.time_bwd)

    def test_checkpointing_adds_recompute(self, bert_profiler, tiny_bert):
        tasks = list(tiny_bert.tasks)
        plain = bert_profiler.profile(tasks, 4, checkpointing=False)
        ckpt = bert_profiler.profile(tasks, 4, checkpointing=True)
        assert ckpt.time_bwd == pytest.approx(plain.time_bwd + plain.time_fwd)
        assert ckpt.time_fwd == pytest.approx(plain.time_fwd)

    def test_batch_floor(self, bert_profiler, tiny_bert):
        r0 = bert_profiler.profile(list(tiny_bert.tasks), 0)
        r1 = bert_profiler.profile(list(tiny_bert.tasks), 1)
        assert r0.time_fwd == r1.time_fwd  # clamped to >= 1

    def test_monotone_in_batch(self, bert_profiler, tiny_bert):
        tasks = list(tiny_bert.tasks)
        times = [bert_profiler.profile(tasks, b).time_fwd for b in (1, 2, 4, 8)]
        assert times == sorted(times)

    def test_tied_params_counted_once(self, bert_profiler, tiny_bert):
        # embeddings.word consumed by the lookup AND the decoder transpose
        r = bert_profiler.profile(list(tiny_bert.tasks), 1)
        assert r.param_count == tiny_bert.num_parameters()


class TestMemoization:
    def test_different_batch_not_conflated(self, bert_profiler, tiny_bert):
        tasks = list(tiny_bert.tasks)
        a = bert_profiler.profile(tasks, 2)
        b = bert_profiler.profile(tasks, 4)
        assert a.time_fwd != b.time_fwd

    def test_no_key_no_cache(self, bert_profiler, tiny_bert):
        # profile() keeps no per-subcomponent memo: a repeat call is
        # recomputed, from the memoized time table of its batch size
        tasks = list(tiny_bert.tasks)
        bert_profiler.profile(tasks, 4)
        calls = bert_profiler.profile_calls
        hits = bert_profiler.table_hits
        bert_profiler.profile(tasks, 4)
        assert bert_profiler.profile_calls == calls + 1
        assert bert_profiler.table_hits == hits + 1

    def test_stats(self, bert_profiler, tiny_bert):
        bert_profiler.profile(list(tiny_bert.tasks), 2)
        bert_profiler.profile(list(tiny_bert.tasks), 2)
        stats = bert_profiler.stats()
        assert stats["profile_calls"] >= 2
        assert stats["memo_hit_rate"] == (
            stats["table_hits"] / stats["table_calls"]
        )


class TestBoundaryBytes:
    def test_prefix_boundary_scales_with_batch(self, bert_profiler, tiny_bert):
        tasks = list(tiny_bert.tasks)[:10]
        in1, out1 = bert_profiler.boundary_bytes(tasks, 1)
        in4, out4 = bert_profiler.boundary_bytes(tasks, 4)
        assert in4 == pytest.approx(4 * in1)
        assert out4 == pytest.approx(4 * out1)

    def test_params_excluded_from_in_bytes(self, bert_profiler, tiny_bert):
        # a single linear layer's boundary input excludes its weights
        in_bytes, _ = bert_profiler.boundary_bytes(["layer0.attn.q"], 1)
        x = tiny_bert.values[tiny_bert.tasks["layer0.attn.q"].inputs[0]]
        assert in_bytes == x.nbytes(1)

    def test_amp_halves_float_boundary(self, tiny_bert, cluster):
        p32 = GraphProfiler(tiny_bert, cluster, Precision.FP32)
        pamp = GraphProfiler(tiny_bert, cluster, Precision.AMP)
        tasks = ["layer0.attn.q"]
        assert pamp.boundary_bytes(tasks, 2)[0] == pytest.approx(
            0.5 * p32.boundary_bytes(tasks, 2)[0]
        )

    def test_int_boundary_not_halved(self, tiny_bert, cluster):
        pamp = GraphProfiler(tiny_bert, cluster, Precision.AMP)
        # the word-lookup consumes int64 ids: AMP does not shrink them
        in_bytes, _ = pamp.boundary_bytes(["embeddings.word_lookup"], 1)
        ids = tiny_bert.values["input_ids"]
        assert in_bytes == ids.nbytes(1)


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=16),
    split=st.floats(min_value=0.1, max_value=0.9),
)
def test_profile_subset_never_exceeds_whole(batch, split):
    """Property: any subset's time/params are bounded by the whole graph's."""
    from repro.models import build_mlp

    g = build_mlp((8, 16, 16, 4))
    p = GraphProfiler(g, paper_cluster())
    tasks = list(g.tasks)
    cut = max(1, int(len(tasks) * split))
    sub = p.profile(tasks[:cut], batch)
    whole = p.profile(tasks, batch)
    assert sub.time_fwd <= whole.time_fwd + 1e-12
    assert sub.param_count <= whole.param_count

"""The flush-schedule kernel against the event-by-event numpy recurrence
it replaced: makespan, per-stage busy time, utilization and bubble must
be bit-identical, and the planner's evaluate pass must not need an
interval timeline."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pipeline.timeline as timeline_mod
from repro.hardware import paper_cluster
from repro.pipeline.simulator import flush_schedule, simulate_sync_pipeline
from repro.pipeline.timeline import build_sync_timeline
from repro.planner import PlannerConfig, PlanningContext

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "pinned_plans.json"


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _numpy_oracle(tf, tb, num_microbatches):
    """The numpy-scalar recurrence and interval sums the kernel replaced,
    verbatim: ``(simulated makespan, timeline makespan, busy, utils,
    bubble)``."""
    S, MB = len(tf), num_microbatches
    intervals = []
    f_done = np.zeros((S, MB))
    stage_free = np.zeros(S)
    for m in range(MB):
        for s in range(S):
            dep = f_done[s - 1, m] if s > 0 else 0.0
            start = max(stage_free[s], dep)
            f_done[s, m] = start + tf[s]
            stage_free[s] = f_done[s, m]
            intervals.append((s, start, f_done[s, m]))
    b_done = np.zeros((S, MB))
    for m in reversed(range(MB)):
        for s in reversed(range(S)):
            dep = b_done[s + 1, m] if s + 1 < S else f_done[S - 1, m]
            start = max(stage_free[s], dep)
            b_done[s, m] = start + tb[s]
            stage_free[s] = b_done[s, m]
            intervals.append((s, start, b_done[s, m]))
    makespan = max(end for _, _, end in intervals)
    busy = [
        sum(end - start for st_, start, end in intervals if st_ == s)
        for s in range(S)
    ]
    utils = [b / makespan for b in busy]
    return (float(b_done.max()), float(makespan), [float(b) for b in busy],
            [float(u) for u in utils], 1.0 - float(np.mean(utils)))


def _assert_matches_oracle(tf, tb, mb):
    sim, tl_makespan, busy, utils, bubble = _numpy_oracle(tf, tb, mb)
    timing = flush_schedule(tf, tb, mb)
    assert _bits(timing.makespan) == _bits(sim) == _bits(tl_makespan)
    assert _bits(simulate_sync_pipeline(tf, tb, mb)) == _bits(sim)
    assert [_bits(b) for b in timing.busy] == [_bits(b) for b in busy]
    assert [_bits(timing.utilization(s)) for s in range(len(tf))] == [
        _bits(u) for u in utils
    ]
    assert _bits(timing.bubble_fraction()) == _bits(bubble)
    return timing


#: zeros, repeated values (ties between stage-free and dependency times)
#: and magnitudes from 1e-9 to 1e3 in one schedule
_TIMES = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-9, 1e-3, 0.5, 1.0, 1e3]),
    st.floats(min_value=1e-9, max_value=1e3),
)


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(st.tuples(_TIMES, _TIMES), min_size=1, max_size=32),
    mb=st.one_of(st.integers(1, 64), st.sampled_from([512, 1024])),
)
def test_kernel_bit_identical_to_numpy_recurrence(times, mb):
    tf = [a for a, _ in times]
    tb = [b for _, b in times]
    # an all-zero schedule divides 0/0 on both sides
    with np.errstate(invalid="ignore"):
        _assert_matches_oracle(tf, tb, mb)


def test_kernel_accepts_numpy_and_integer_times():
    tf = np.array([1e-3, 2e-3, 5e-4], dtype=np.float32)
    tb = [np.float64(2e-3), 4e-3, 1]
    _assert_matches_oracle(list(tf), tb, 7)


def test_timeline_replay_reads_the_kernel_figures():
    tf, tb, mb = [1e-3, 3e-3, 2.5e-4], [2e-3, 4e-3, 1e-3], 9
    tl = build_sync_timeline(tf, tb, mb)
    timing = flush_schedule(tf, tb, mb)
    assert tl.makespan == timing.makespan == max(iv.end for iv in tl.intervals)
    for s in range(3):
        assert tl.stage_busy_time(s) == timing.busy[s] == sum(
            iv.duration for iv in tl.intervals if iv.stage == s
        )
        assert tl.stage_utilization(s) == timing.utilization(s)
    assert tl.bubble_fraction() == timing.bubble_fraction()


def test_record_receives_intervals_in_timeline_order():
    seen = []
    flush_schedule([1.0, 2.0], [3.0, 4.0], 2,
                   lambda *iv: seen.append(iv[:3]))
    assert seen == [
        (0, 0, "F"), (1, 0, "F"), (0, 1, "F"), (1, 1, "F"),
        (1, 1, "B"), (0, 1, "B"), (1, 0, "B"), (0, 0, "B"),
    ]


def _pinned():
    with FIXTURE.open() as fh:
        return json.load(fh)


PINNED = _pinned()


@pytest.mark.parametrize("key", sorted(PINNED), ids=sorted(PINNED))
def test_kernel_on_pinned_stage_times(key):
    expected = PINNED[key]
    timing = _assert_matches_oracle(
        expected["stage_time_fwd"], expected["stage_time_bwd"],
        expected["num_microbatches"],
    )
    assert timing.makespan == expected["pipeline_time"]


def _pinned_graph(model_name):
    from repro.models import BertConfig, ResNetConfig, build_bert, build_resnet

    if model_name == "bert-base":
        return build_bert(
            BertConfig(hidden_size=768, num_layers=12, num_heads=12)
        ), 256
    if model_name == "bert-large":
        return build_bert(BertConfig()), 256
    return build_resnet(ResNetConfig(depth=50, width_factor=8)), 512


@pytest.mark.parametrize("key", sorted(PINNED), ids=sorted(PINNED))
def test_evaluate_gauges_without_timeline(key, monkeypatch):
    """The evaluate pass's utilization/bubble gauges equal the old
    interval-timeline figures, and planning never builds a timeline."""

    def no_timeline(*args, **kwargs):
        raise AssertionError("planning built an interval timeline")

    monkeypatch.setattr(timeline_mod, "build_sync_timeline", no_timeline)
    model_name, cluster_name = key.split("/")
    graph, batch_size = _pinned_graph(model_name)
    cluster = paper_cluster({"v100x8": 1, "v100x16": 2, "v100x32": 4}[
        cluster_name
    ])
    ctx = PlanningContext(graph, cluster, PlannerConfig(batch_size=batch_size))
    plan = ctx.run()

    assert plan.num_microbatches == PINNED[key]["num_microbatches"]
    _, _, _, utils, bubble = _numpy_oracle(
        [s.time_fwd for s in plan.stages],
        [s.time_bwd for s in plan.stages],
        plan.num_microbatches,
    )
    for s, util in enumerate(utils):
        assert _bits(ctx.metrics.get(f"stage.{s}.utilization").value) == (
            _bits(util)
        )
    assert _bits(ctx.metrics.get("stage.bubble_frac").value) == _bits(bubble)

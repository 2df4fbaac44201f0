"""Tests for pipeline schedules and simulators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.schedule import (
    bubble_fraction,
    render_schedule,
    schedule_makespan_slots,
    sync_pipeline_schedule,
)
from repro.pipeline.simulator import (
    simulate_async_1f1b,
    simulate_sync_pipeline,
    sync_pipeline_wave_estimate,
)


class TestSchedule:
    def test_event_counts(self):
        events = sync_pipeline_schedule(4, 8)
        assert len(events) == 2 * 4 * 8
        assert sum(1 for e in events if e.phase == "F") == 32

    def test_forward_slots(self):
        events = {(e.stage, e.microbatch, e.phase): e.slot
                  for e in sync_pipeline_schedule(3, 4)}
        assert events[(0, 0, "F")] == 0
        assert events[(1, 0, "F")] == 1
        assert events[(2, 3, "F")] == 5

    def test_no_stage_conflicts(self):
        """A stage never runs two microbatches in one slot."""
        events = sync_pipeline_schedule(4, 6)
        seen = set()
        for e in events:
            key = (e.stage, e.slot)
            assert key not in seen, f"conflict at {key}"
            seen.add(key)

    def test_dependencies_respected(self):
        """F(s, m) after F(s-1, m); B(s, m) after B(s+1, m)."""
        S, MB = 4, 5
        slot = {(e.stage, e.microbatch, e.phase): e.slot
                for e in sync_pipeline_schedule(S, MB)}
        for m in range(MB):
            for s in range(1, S):
                assert slot[(s, m, "F")] > slot[(s - 1, m, "F")]
            for s in range(S - 1):
                assert slot[(s, m, "B")] > slot[(s + 1, m, "B")]
            assert slot[(S - 1, m, "B")] >= slot[(S - 1, m, "F")] + 1

    def test_makespan(self):
        assert schedule_makespan_slots(4, 8) == 22
        events = sync_pipeline_schedule(4, 8)
        assert max(e.slot for e in events) + 1 == 22

    def test_bubble_fraction(self):
        assert bubble_fraction(1, 8) == 0.0
        assert bubble_fraction(4, 8) == pytest.approx(3 / 11)

    def test_render(self):
        text = render_schedule(sync_pipeline_schedule(2, 2), 2)
        assert "stage0" in text and "F0" in text and "B1" in text

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sync_pipeline_schedule(0, 4)


class TestSyncSimulator:
    def test_single_stage(self):
        # pure gradient accumulation: MB * (tf + tb)
        assert simulate_sync_pipeline([1.0], [2.0], 4) == pytest.approx(12.0)

    def test_uniform_matches_wave_formula(self):
        S, MB = 4, 8
        t = simulate_sync_pipeline([1.0] * S, [1.0] * S, MB)
        assert t == pytest.approx(2 * (MB + S - 1))

    def test_bottleneck_dominates(self):
        slow = simulate_sync_pipeline([1.0, 5.0], [1.0, 5.0], 8)
        fast = simulate_sync_pipeline([1.0, 1.0], [1.0, 1.0], 8)
        assert slow > 4 * fast / 2

    def test_more_microbatches_amortize_bubble(self):
        """Throughput (MB/time) improves with MB for multi-stage pipes."""
        per_mb = [
            simulate_sync_pipeline([1.0] * 4, [2.0] * 4, mb) / mb
            for mb in (1, 2, 8, 32)
        ]
        assert per_mb == sorted(per_mb, reverse=True)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            simulate_sync_pipeline([], [], 1)
        with pytest.raises(ValueError):
            simulate_sync_pipeline([1.0], [1.0, 2.0], 1)
        with pytest.raises(ValueError):
            simulate_sync_pipeline([1.0], [1.0], 0)


class TestAsyncSimulator:
    def test_steady_state(self):
        assert simulate_async_1f1b([1.0, 2.0], [2.0, 3.0], 10) == pytest.approx(50.0)

    def test_async_beats_sync_bubble(self):
        tf, tb = [1.0] * 4, [2.0] * 4
        assert simulate_async_1f1b(tf, tb, 8) < simulate_sync_pipeline(tf, tb, 8)


class TestBounds:
    @settings(max_examples=40, deadline=None)
    @given(
        times=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=5.0),
                st.floats(min_value=0.01, max_value=5.0),
            ),
            min_size=1, max_size=6,
        ),
        mb=st.integers(min_value=1, max_value=16),
    )
    def test_sim_bounded_by_wave_formula_and_work(self, times, mb):
        """Property: work lower bound <= event sim <= wave upper bound."""
        tf = [a for a, _ in times]
        tb = [b for _, b in times]
        sim = simulate_sync_pipeline(tf, tb, mb)
        upper = sync_pipeline_wave_estimate(tf, tb, mb)
        # the busiest stage must run MB forwards and MB backwards
        work = mb * max(f + b for f, b in zip(tf, tb))
        assert sim >= work - 1e-9
        assert sim <= upper + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        mb=st.integers(min_value=1, max_value=12),
        s=st.integers(min_value=1, max_value=6),
    )
    def test_uniform_exactness(self, mb, s):
        """Property: for uniform stages the sim equals the closed form."""
        sim = simulate_sync_pipeline([1.0] * s, [1.0] * s, mb)
        assert sim == pytest.approx(2 * (mb + s - 1))

    def test_wave_estimate_is_not_a_lower_bound(self):
        """On non-uniform stages the wave formula strictly OVER-estimates
        the simulated makespan -- the historical ``lower_bound`` name was
        wrong about the direction."""
        tf, tb = [1.0, 0.1, 0.1], [1.0, 0.1, 0.1]
        sim = simulate_sync_pipeline(tf, tb, 4)
        estimate = sync_pipeline_wave_estimate(tf, tb, 4)
        assert estimate > sim  # upper bound, strictly loose here

    @settings(max_examples=40, deadline=None)
    @given(
        times=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=5.0),
                st.floats(min_value=0.01, max_value=5.0),
            ),
            min_size=2, max_size=6,
        ),
        mb=st.integers(min_value=1, max_value=16),
    )
    def test_wave_estimate_bound_direction(self, times, mb):
        """Property: the wave estimate never under-estimates the sim."""
        tf = [a for a, _ in times]
        tb = [b for _, b in times]
        assert sync_pipeline_wave_estimate(tf, tb, mb) >= (
            simulate_sync_pipeline(tf, tb, mb) - 1e-9
        )

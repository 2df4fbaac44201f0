"""Timeline extraction, Gantt rendering and trace export for simulated
pipelines.

:mod:`repro.pipeline.simulator` reduces a schedule to scalar figures
(:func:`~repro.pipeline.simulator.flush_schedule`: makespan and per-stage
busy time, the source of the ``stage.*.utilization`` /
``stage.bubble_frac`` metrics of the planner's evaluate pass); this
module keeps the *full* event set instead — every (stage, microbatch,
phase) interval of the flush-synchronous schedule with real per-stage
times, recorded by the same kernel — and feeds the diagnostics layers
built on top of it:

* utilization/bubble accounting per stage (the quantitative version of
  Fig. 1's idle slots), read from the kernel's figures,
* ASCII Gantt rendering of a concrete plan's iteration,
* Chrome-trace/Perfetto export — :meth:`Timeline.to_trace_events` emits
  one track per stage with forward/backward colour-coded by category
  (see :mod:`repro.obs.export` and ``repro plan --trace-out`` on the
  CLI),
* exact agreement with the scalar simulator (tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.pipeline.simulator import FlushTiming, flush_schedule


@dataclass(frozen=True)
class Interval:
    """One executed unit of work on a stage."""

    stage: int
    microbatch: int
    phase: str  # "F" or "B"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """All intervals of one training iteration, plus the scalar figures
    the replay computed along the way (makespan and per-stage busy time),
    so the accessors below read them instead of rescanning intervals."""

    intervals: List[Interval]
    num_stages: int
    num_microbatches: int
    timing: FlushTiming

    @property
    def makespan(self) -> float:
        return self.timing.makespan

    def stage_busy_time(self, stage: int) -> float:
        return self.timing.busy[stage]

    def stage_utilization(self, stage: int) -> float:
        """Busy fraction of the stage over the whole iteration."""
        return self.timing.utilization(stage)

    def bubble_fraction(self) -> float:
        """Mean idle fraction across stages (Fig. 1's bubble, measured)."""
        return self.timing.bubble_fraction()

    def to_trace_events(self, pid: int = 2) -> List[dict]:
        """Chrome-trace complete events: one track (``tid``) per stage,
        forward/backward split by event category.  Delegates to
        :func:`repro.obs.export.timeline_to_trace_events`; the sum of
        ``dur`` on a stage's track equals ``stage_busy_time(stage)`` in
        microseconds."""
        from repro.obs.export import timeline_to_trace_events

        return timeline_to_trace_events(self, pid=pid)

    def validate(self) -> None:
        """Structural checks: no overlap per stage, dependencies hold."""
        by_stage: List[List[Interval]] = [[] for _ in range(self.num_stages)]
        for iv in self.intervals:
            by_stage[iv.stage].append(iv)
        for stage_ivs in by_stage:
            stage_ivs.sort(key=lambda iv: iv.start)
            for a, b in zip(stage_ivs, stage_ivs[1:]):
                if b.start < a.end - 1e-12:
                    raise AssertionError(
                        f"overlap on stage {a.stage}: {a} vs {b}"
                    )
        index = {(iv.stage, iv.microbatch, iv.phase): iv for iv in self.intervals}
        for iv in self.intervals:
            if iv.phase == "F" and iv.stage > 0:
                dep = index[(iv.stage - 1, iv.microbatch, "F")]
                if iv.start < dep.end - 1e-12:
                    raise AssertionError(f"F-dependency violated at {iv}")
            if iv.phase == "B" and iv.stage < self.num_stages - 1:
                dep = index[(iv.stage + 1, iv.microbatch, "B")]
                if iv.start < dep.end - 1e-12:
                    raise AssertionError(f"B-dependency violated at {iv}")


def build_sync_timeline(
    tf: Sequence[float],
    tb: Sequence[float],
    num_microbatches: int,
) -> Timeline:
    """Replay of :func:`~repro.pipeline.simulator.flush_schedule` that
    keeps every interval."""
    intervals: List[Interval] = []

    def record(stage: int, microbatch: int, phase: str, start: float,
               end: float) -> None:
        intervals.append(Interval(stage, microbatch, phase, start, end))

    timing = flush_schedule(tf, tb, num_microbatches, record)
    return Timeline(intervals=intervals, num_stages=len(timing.busy),
                    num_microbatches=num_microbatches, timing=timing)


def render_gantt(timeline: Timeline, width: int = 80) -> str:
    """ASCII Gantt chart: one row per stage, characters are time buckets.

    Forward work renders as the microbatch digit, backward as letters
    (``a`` = microbatch 0), idle as ``.``.
    """
    makespan = timeline.makespan
    scale = width / makespan
    rows = []
    for s in range(timeline.num_stages):
        row = ["."] * width
        for iv in timeline.intervals:
            if iv.stage != s:
                continue
            lo = int(iv.start * scale)
            hi = max(lo + 1, int(iv.end * scale))
            if iv.phase == "F":
                ch = str(iv.microbatch % 10)
            else:
                ch = chr(ord("a") + iv.microbatch % 26)
            for x in range(lo, min(hi, width)):
                row[x] = ch
        util = timeline.stage_utilization(s)
        rows.append(f"stage{s} |{''.join(row)}| {util * 100:4.0f}%")
    rows.append(
        f"makespan {makespan * 1e3:.2f} ms, bubble "
        f"{timeline.bubble_fraction() * 100:.1f}%"
    )
    return "\n".join(rows)


def _stage_times(plan) -> Tuple[List[float], List[float]]:
    return ([s.time_fwd for s in plan.stages],
            [s.time_bwd for s in plan.stages])


def plan_flush_timing(plan) -> FlushTiming:
    """Makespan and per-stage busy time of one iteration of a partition
    plan, without keeping the intervals."""
    return flush_schedule(*_stage_times(plan), plan.num_microbatches)


def plan_timeline(plan) -> Timeline:
    """Timeline of one iteration of a partition plan."""
    return build_sync_timeline(*_stage_times(plan), plan.num_microbatches)

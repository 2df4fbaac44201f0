"""Pipeline-parallel execution simulators.

Computes iteration times for synchronous (GPipe-style, used by RaNNC) and
asynchronous (PipeDream-2BW 1F1B) pipeline schedules from per-stage
microbatch times, plus the data-parallel gradient-synchronization costs of
hybrid parallelism.  This is the measurement substrate standing in for the
paper's wall-clock throughput runs (see DESIGN.md).
"""

from repro.pipeline.schedule import ScheduleEvent, sync_pipeline_schedule
from repro.pipeline.simulator import (
    FlushTiming,
    flush_schedule,
    simulate_async_1f1b,
    simulate_sync_pipeline,
    sync_pipeline_wave_estimate,
)
from repro.pipeline.one_f_one_b import simulate_sync_1f1b
from repro.pipeline.timeline import Timeline, build_sync_timeline, render_gantt
from repro.pipeline.hybrid import evaluate_plan

__all__ = [
    "FlushTiming",
    "ScheduleEvent",
    "Timeline",
    "build_sync_timeline",
    "evaluate_plan",
    "flush_schedule",
    "render_gantt",
    "simulate_async_1f1b",
    "simulate_sync_1f1b",
    "simulate_sync_pipeline",
    "sync_pipeline_schedule",
    "sync_pipeline_wave_estimate",
]

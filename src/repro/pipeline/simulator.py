"""Event-driven pipeline timing simulation with real per-stage times.

Computes the makespan of one training iteration given each stage's
forward/backward microbatch time (communication to the neighbour stage is
charged to the sending stage's occupancy, matching how the DP's ``h``
includes "the communication time to send the outputs to the following
stage").

Two schedules:

* :func:`simulate_sync_pipeline` -- flush-synchronous (GPipe / RaNNC):
  all microbatches forward, then all backward in reverse, parameter
  versions consistent, bubbles at fill and drain.  Its kernel
  :func:`flush_schedule` also returns each stage's busy time, and the
  interval replay of :mod:`repro.pipeline.timeline` runs through it.
* :func:`simulate_async_1f1b` -- PipeDream-2BW-style one-forward-one-
  backward steady state with no flush: per-iteration time approaches
  ``MB x (t_f + t_b)`` of the bottleneck stage (parameter staleness is the
  price; the simulator only models time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np


def _validate(tf: Sequence[float], tb: Sequence[float], num_microbatches: int) -> None:
    if len(tf) != len(tb) or not tf:
        raise ValueError("tf and tb must be equal-length, non-empty")
    if num_microbatches < 1:
        raise ValueError("need >= 1 microbatch")


@dataclass(frozen=True)
class FlushTiming:
    """Scalar figures of one flush-synchronous iteration.

    ``busy[s]`` is stage ``s``'s busy time: the sum of its interval
    lengths ``end - start`` in interval order (forwards by ascending
    microbatch, then backwards by descending microbatch), so it equals
    the sum over the stage's intervals of the replayed
    :class:`~repro.pipeline.timeline.Timeline` bit for bit."""

    makespan: float
    busy: List[float]

    def utilization(self, stage: int) -> float:
        """Busy fraction of the stage over the whole iteration (an
        all-zero schedule divides 0/0 to NaN, as numpy does)."""
        return float(np.float64(self.busy[stage]) / self.makespan)

    def bubble_fraction(self) -> float:
        """Mean idle fraction across stages (Fig. 1's bubble, measured)."""
        utils = [self.utilization(s) for s in range(len(self.busy))]
        return 1.0 - float(np.mean(utils))


#: ``record(stage, microbatch, phase, start, end)`` -- one executed interval
IntervalSink = Callable[[int, int, str, float, float], None]


def flush_schedule(
    tf: Sequence[float],
    tb: Sequence[float],
    num_microbatches: int,
    record: Optional[IntervalSink] = None,
) -> FlushTiming:
    """Time one flush-synchronous iteration in one pass of Python floats.

    Forward waves: microbatch ``m`` on stage ``s`` starts when both the
    stage is free and the microbatch's previous-stage forward finished.
    Backward waves run in reverse microbatch order after the last forward
    of the last stage (loss flush), stage order S-1 .. 0.  ``record``,
    if given, receives every interval in that order.

    Each start is ``max(stage free, dependency)`` with the stage's free
    time first, so ties and the arithmetic match the event-by-event
    recurrence exactly.  The makespan is the max over the stages' last
    interval ends; with non-negative stage times every stage's ends only
    grow, so that is the max over all interval ends.
    """
    _validate(tf, tb, num_microbatches)
    tf = [float(t) for t in tf]
    tb = [float(t) for t in tb]
    S = len(tf)
    free = [0.0] * S
    busy = [0.0] * S
    # the last stage's forward end of each microbatch: the dependency of
    # that microbatch's first backward (the flush point for m = MB-1)
    last_fwd = [0.0] * num_microbatches
    forward = range(S)
    for m in range(num_microbatches):
        end = 0.0
        for s in forward:
            start = free[s]
            if end > start:
                start = end
            end = start + tf[s]
            free[s] = end
            busy[s] += end - start
            if record is not None:
                record(s, m, "F", start, end)
        last_fwd[m] = end
    backward = range(S - 1, -1, -1)
    for m in range(num_microbatches - 1, -1, -1):
        end = last_fwd[m]
        for s in backward:
            start = free[s]
            if end > start:
                start = end
            end = start + tb[s]
            free[s] = end
            busy[s] += end - start
            if record is not None:
                record(s, m, "B", start, end)
    return FlushTiming(makespan=max(free), busy=busy)


def simulate_sync_pipeline(
    tf: Sequence[float],
    tb: Sequence[float],
    num_microbatches: int,
) -> float:
    """Makespan of one flush-synchronous iteration
    (:func:`flush_schedule`)."""
    return flush_schedule(tf, tb, num_microbatches).makespan


def simulate_async_1f1b(
    tf: Sequence[float],
    tb: Sequence[float],
    num_microbatches: int,
) -> float:
    """Per-iteration time of an asynchronous 1F1B pipeline in steady state.

    Without a flush, every stage is continuously busy processing one
    forward and one backward per microbatch; the slowest stage paces the
    pipeline, and fill/drain costs amortize away across iterations:

        T = MB x max_s (t_f[s] + t_b[s])

    (This is the idealization PipeDream-2BW's planner also uses; the
    parameter-staleness cost is semantic, not temporal.)
    """
    _validate(tf, tb, num_microbatches)
    bottleneck = max(f + b for f, b in zip(tf, tb))
    return num_microbatches * bottleneck


def sync_pipeline_wave_estimate(
    tf: Sequence[float],
    tb: Sequence[float],
    num_microbatches: int,
) -> float:
    """Closed-form wave estimate: ``(MB + S - 1) x (max tf + max tb)``.

    Counts the ``MB + S - 1`` forward/backward wave slots of a flush
    pipeline, charging every slot at the slowest stage's rate.  Exact for
    uniform stages; an **upper bound** on
    :func:`simulate_sync_pipeline` in general (a faster stage finishes
    its slot early, it never stretches one), so it must NOT be used as
    an admissible lower bound when pruning candidates -- it can only
    over-estimate, never under-estimate.
    """
    _validate(tf, tb, num_microbatches)
    S = len(tf)
    return (num_microbatches + S - 1) * (max(tf) + max(tb))

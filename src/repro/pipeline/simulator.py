"""Event-driven pipeline timing simulation with real per-stage times.

Computes the makespan of one training iteration given each stage's
forward/backward microbatch time (communication to the neighbour stage is
charged to the sending stage's occupancy, matching how the DP's ``h``
includes "the communication time to send the outputs to the following
stage").

Two schedules:

* :func:`simulate_sync_pipeline` -- flush-synchronous (GPipe / RaNNC):
  all microbatches forward, then all backward in reverse, parameter
  versions consistent, bubbles at fill and drain.
* :func:`simulate_async_1f1b` -- PipeDream-2BW-style one-forward-one-
  backward steady state with no flush: per-iteration time approaches
  ``MB x (t_f + t_b)`` of the bottleneck stage (parameter staleness is the
  price; the simulator only models time).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _validate(tf: Sequence[float], tb: Sequence[float], num_microbatches: int) -> None:
    if len(tf) != len(tb) or not tf:
        raise ValueError("tf and tb must be equal-length, non-empty")
    if num_microbatches < 1:
        raise ValueError("need >= 1 microbatch")


def simulate_sync_pipeline(
    tf: Sequence[float],
    tb: Sequence[float],
    num_microbatches: int,
) -> float:
    """Makespan of one flush-synchronous iteration.

    Forward waves: microbatch ``m`` on stage ``s`` starts when both the
    stage is free and the microbatch's previous-stage forward finished.
    Backward waves run in reverse microbatch order after the last forward
    of the last stage (loss flush), stage order S-1 .. 0.
    """
    _validate(tf, tb, num_microbatches)
    S = len(tf)
    MB = num_microbatches

    f_done = np.zeros((S, MB))
    stage_free = np.zeros(S)
    for m in range(MB):
        for s in range(S):
            dep = f_done[s - 1, m] if s > 0 else 0.0
            start = max(stage_free[s], dep)
            f_done[s, m] = start + tf[s]
            stage_free[s] = f_done[s, m]

    b_done = np.zeros((S, MB))
    # the backward of microbatch m on stage s depends on the backward of m
    # on stage s+1; the last stage's first backward waits for that
    # microbatch's own forward (which is the flush point for m = MB-1)
    for m in reversed(range(MB)):
        for s in reversed(range(S)):
            dep = b_done[s + 1, m] if s + 1 < S else f_done[S - 1, m]
            start = max(stage_free[s], dep)
            b_done[s, m] = start + tb[s]
            stage_free[s] = b_done[s, m]
    return float(b_done.max())


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

"""Comparator frameworks, re-implemented as partitioning policies over the
shared cost model (see DESIGN.md for the substitution rationale).

* :mod:`repro.baselines.data_parallel` -- PyTorch-style DDP with gradient
  accumulation.
* :mod:`repro.baselines.megatron` -- Megatron-LM tensor partitioning
  (Transformer-only, manual, no gradient accumulation).
* :mod:`repro.baselines.gpipe` -- GPipe-Hybrid (uniform layer split x
  uniform replicas) and GPipe-Model (single-node model parallelism).
* :mod:`repro.baselines.pipedream_2bw` -- PipeDream-2BW (GPipe-Hybrid
  partitioning + asynchronous 1F1B + double-buffered weights).
"""

from repro.baselines.base import FrameworkInfo, FrameworkResult, TABLE1_ROWS
from repro.baselines.data_parallel import run_data_parallel
from repro.baselines.megatron import run_megatron
from repro.baselines.gpipe import run_gpipe_hybrid, run_gpipe_model
from repro.baselines.pipedream_2bw import run_pipedream_2bw

__all__ = [
    "FrameworkInfo",
    "FrameworkResult",
    "TABLE1_ROWS",
    "run_data_parallel",
    "run_gpipe_hybrid",
    "run_gpipe_model",
    "run_megatron",
    "run_pipedream_2bw",
]

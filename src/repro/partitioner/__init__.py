"""The paper's contribution: three-phase automatic graph partitioning.

* :mod:`repro.partitioner.atomic` -- atomic-level partitioning (Sec. III-A):
  classify constant vs. non-constant tasks, form one atomic subcomponent
  per non-constant task, cloning shared constant subtrees.
* :mod:`repro.partitioner.blocks` -- block-level partitioning (Sec. III-B):
  multilevel coarsening / uncoarsening / compaction to ``k`` balanced,
  convex, memory-feasible blocks.
* :mod:`repro.partitioner.stage_dp` -- stage-level partitioning
  (Sec. III-C, Algorithm 1): dynamic programming over stage boundaries and
  per-stage replica counts.
* :mod:`repro.partitioner.search` -- Algorithm 2: the outer loop over node
  counts, stage counts and microbatch counts.
* :mod:`repro.partitioner.api` -- ``auto_partition``: the one-call entry
  point, a thin wrapper over the pass pipeline of :mod:`repro.planner`
  (whose artifact store persists finished plans in the deployment format
  of :mod:`repro.partitioner.deployment`).
"""

from repro.partitioner.atomic import AtomicComponent, atomic_partition
from repro.partitioner.blocks import Block, BlockPartitioner, block_partition
from repro.partitioner.plan import (
    DeviceAssignment,
    PartitionPlan,
    PlanDiagnostics,
    StageSpec,
)
from repro.partitioner.stage_dp import DPContext, DPSolution, form_stage_dp
from repro.partitioner.search import SearchResult, form_stage
from repro.partitioner.api import PartitioningError, auto_partition

__all__ = [
    "AtomicComponent",
    "Block",
    "BlockPartitioner",
    "DPContext",
    "DPSolution",
    "DeviceAssignment",
    "PartitionPlan",
    "PlanDiagnostics",
    "SearchResult",
    "StageSpec",
    "atomic_partition",
    "PartitioningError",
    "auto_partition",
    "block_partition",
    "form_stage",
    "form_stage_dp",
]

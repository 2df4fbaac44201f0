"""Sec. IV-C: effect of coarsening (block-level partitioning ablation).

The variant "omits coarsening of atomic components to blocks": the stage
DP runs directly over the (thousands of) atomic subcomponents, and --
because profiling every candidate stage is impossible at that scale --
estimates each stage's time and memory "by simply summing those of all
atomic subcomponents contained in a stage".  The summed estimate charges
every atomic boundary its own transfer/stash cost (in reality interior
values never leave the device), a considerable overestimation.

Reported per model:

* the full three-phase pipeline's throughput;
* the ablated variant's *achieved* throughput (its chosen plan re-costed
  with the true merged-stage profile);
* search cost (DP states / candidate-profile count) for both, with a DNF
  marker when the atomic-level search exceeds the state budget -- the
  paper's "did not finish in 24 hours" analogue.

Paper's observed numbers: 33 % slower throughput at h=1024/L=48, DNF
beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.hardware import ClusterSpec, Precision, paper_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner import auto_partition
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import Block
from repro.partitioner.stage_dp import (
    DPContext,
    DPRun,
    covering_sweeps,
    form_stage_dp,
)
from repro.profiler import GraphProfiler


class SummedAtomicContext(DPContext):
    """DP context over atomic components with summed per-atom estimates.

    Per-range time = sum of per-atom compute PLUS per-atom boundary
    transfer; per-range memory = sum of per-atom static + activation +
    stash terms.  Both are monotone overestimates of the true merged
    profile (property-tested).  Only the stage-cost kernel
    (:meth:`DPContext._range_costs`) is overridden, so the DP's bands and
    its backtracked stage profiles read the same estimate.
    """

    def __init__(self, graph, blocks, profiler, batch_size):
        super().__init__(graph, blocks, profiler, batch_size)
        in1 = np.zeros(self.k)
        out1 = np.zeros(self.k)
        static = np.zeros(self.k)
        for j, b in enumerate(self.blocks):
            i, o = profiler.boundary_bytes(b.tasks, 1)
            in1[j], out1[j] = i, o
            params = profiler.unique_param_count(self._block_idx[j])
            static[j] = profiler.memory_model.static_bytes(params)
        self._in1_prefix = np.concatenate([[0.0], np.cumsum(in1)])
        self._out1_prefix = np.concatenate([[0.0], np.cumsum(out1)])
        self._static_prefix = np.concatenate([[0.0], np.cumsum(static)])
        self._param_prefix = np.concatenate(
            [[0], np.cumsum([
                profiler.unique_param_count(self._block_idx[j])
                for j in range(self.k)
            ])]
        )

    def _range_costs(self, lo, hi, bs, MB, checkpointing):
        tf_prefix, tb_prefix = self._time_prefix_at(bs)
        t_f = tf_prefix[hi] - tf_prefix[lo]
        t_b = tb_prefix[hi] - tb_prefix[lo]
        if checkpointing:
            t_b = t_b + t_f
        in_b = (self._in1_prefix[hi] - self._in1_prefix[lo]) * bs
        out_b = (self._out1_prefix[hi] - self._out1_prefix[lo]) * bs
        # every atomic boundary charged a transfer (the overestimation)
        n_atoms = hi - lo
        lat, bw = self._p2p
        t_f = t_f + (n_atoms * lat + out_b / bw)
        t_b = t_b + (n_atoms * lat + in_b / bw)
        act_factor = self.profiler.precision.activation_bytes_factor
        saved = (
            self._saved_prefix[hi] - self._saved_prefix[lo]
        ) * bs * act_factor
        # summing per-atom profiles counts every interior boundary once
        # (each atom's own input stash); the paper's variant sums single
        # microbatch profiles, so no MB multiplier appears here
        memory = (
            self._static_prefix[hi] - self._static_prefix[lo]
        ) + saved + in_b
        params = self._param_prefix[hi] - self._param_prefix[lo]
        return t_f, t_b, memory, in_b, out_b, params


@dataclass
class AblationRow:
    """Coarsening-ablation outcome for one model size."""

    model: str
    full_throughput: float
    full_dp_states: int
    ablated_finished: bool
    ablated_throughput: float = 0.0
    ablated_dp_states: int = 0
    projected_states: int = 0

    @property
    def slowdown_pct(self) -> float:
        """Throughput loss of the ablated variant vs the full pipeline."""
        if not self.ablated_finished or self.full_throughput == 0:
            return float("nan")
        return 100.0 * (1.0 - self.ablated_throughput / self.full_throughput)


def run_coarsening_ablation(
    layer_counts: Sequence[int] = (24, 48, 96),
    hidden_size: int = 1024,
    batch_size: int = 256,
    cluster: Optional[ClusterSpec] = None,
    state_budget: int = 30_000_000,
    stage_counts: Sequence[int] = (2, 4, 8),
    microbatch_counts: Sequence[int] = (16, 64),
) -> List[AblationRow]:
    """Compare full three-phase partitioning vs. the no-coarsening variant."""
    if cluster is None:
        cluster = paper_cluster()
    rows: List[AblationRow] = []
    for L in layer_counts:
        cfg = BertConfig(hidden_size=hidden_size, num_layers=L)
        graph = build_bert(cfg)
        profiler = GraphProfiler(graph, cluster, Precision.FP32)
        plan = auto_partition(graph, cluster, batch_size, profiler=profiler)
        name = f"h{hidden_size}/L{L}"

        comps = atomic_partition(graph)
        k = len(comps)
        D = cluster.devices_per_node
        projected = k * k * D  # dense candidate-stage tensor entries
        if projected > state_budget:
            rows.append(
                AblationRow(
                    model=name,
                    full_throughput=plan.throughput,
                    full_dp_states=plan.diagnostics.states_evaluated,
                    ablated_finished=False,
                    projected_states=projected,
                )
            )
            continue

        atom_blocks = [
            Block(index=i, atomic_indices=(i,), tasks=c.tasks)
            for i, c in enumerate(comps)
        ]
        run = DPRun(
            SummedAtomicContext(graph, atom_blocks, profiler, batch_size),
            cluster,
        )
        true_run = DPRun(
            DPContext(graph, atom_blocks, profiler, batch_size), cluster
        )
        R = cluster.num_nodes
        best = None
        for S in stage_counts:
            # a sweep whose stages cannot cover the atoms has no answer
            for MB in covering_sweeps(
                run, range(S, S + 1), D, R, microbatch_counts
            ):
                sol = form_stage_dp(run, range(S, S + 1), D, R, MB)[S]
                if sol is None:
                    continue
                # re-cost the chosen plan with the TRUE merged profile
                true_sol, _ = true_run.price_layout(
                    sol.boundaries, sol.device_counts, R, MB
                )
                if true_sol is None:
                    continue
                throughput = batch_size / true_sol.estimated_iteration_time()
                if best is None or throughput > best:
                    best = throughput
        rows.append(
            AblationRow(
                model=name,
                full_throughput=plan.throughput,
                full_dp_states=plan.diagnostics.states_evaluated,
                ablated_finished=best is not None,
                ablated_throughput=best or 0.0,
                ablated_dp_states=run.states_evaluated,
                projected_states=projected,
            )
        )
    return rows


def format_ablation(rows: List[AblationRow]) -> str:
    """Paper-style ablation table with DNF markers."""
    lines = [
        f"{'model':<12}{'full (s/s)':>12}{'no-coarsen':>12}{'slowdown':>10}"
        f"{'search states':>16}",
        "-" * 62,
    ]
    for r in rows:
        if r.ablated_finished:
            lines.append(
                f"{r.model:<12}{r.full_throughput:>12.1f}"
                f"{r.ablated_throughput:>12.1f}{r.slowdown_pct:>9.0f}%"
                f"{r.ablated_dp_states:>16,}"
            )
        else:
            lines.append(
                f"{r.model:<12}{r.full_throughput:>12.1f}{'DNF':>12}{'-':>10}"
                f"{r.projected_states:>15,}+"
            )
    return "\n".join(lines)

"""Integration tests for the experiment harnesses (scaled-down grids;
the full paper-scale sweeps live in benchmarks/)."""

import math
from unittest import mock

import numpy as np
import pytest

from repro.experiments import (
    format_rows,
    run_coarsening_ablation,
    run_fig1,
    run_fig4,
    run_fig5,
    run_loss_validation,
    run_table1,
)
from repro.experiments import coarsening_ablation
from repro.experiments.coarsening_ablation import SummedAtomicContext, format_ablation
from repro.experiments.fig4_bert import headline_claims
from repro.experiments.runner import SweepRow
from repro.experiments.table1_features import format_table1
from repro.hardware import Precision, paper_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner import auto_partition


class TestRunner:
    def test_format_rows(self):
        rows = [
            SweepRow("m1", "a", 0.3, True, 10.0),
            SweepRow("m1", "b", 0.3, False),
            SweepRow("m2", "a", 1.0, True, 5.0),
        ]
        text = format_rows(rows, "title")
        assert "title" in text
        assert "OOM" in text
        assert "10.0" in text
        assert text.count("\n") >= 4

    def test_cell(self):
        assert SweepRow("m", "f", 1.0, True, 3.14159).cell == "3.1"
        assert SweepRow("m", "f", 1.0, False).cell == "OOM"


class TestFig1:
    def test_defaults(self):
        r = run_fig1()
        assert r.num_stages == 4 and r.num_microbatches == 8
        assert "F0" in r.rendered and "B7" in r.rendered


class TestTable1:
    def test_format(self):
        text = format_table1(run_table1())
        assert "RaNNC" in text and "Megatron-LM" in text
        assert text.count("\n") == 14  # header + rule + 13 rows


class TestFig4Small:
    @pytest.fixture(scope="class")
    def rows(self):
        # one small and one medium model keep the test fast
        return run_fig4(grid=[(1024, 24), (1536, 96)])

    def test_all_frameworks_present(self, rows):
        frameworks = {r.framework for r in rows}
        assert frameworks == {
            "data_parallel", "megatron_lm", "gpipe_hybrid",
            "pipedream_2bw", "rannc",
        }

    def test_rannc_trains_all(self, rows):
        assert all(r.feasible for r in rows if r.framework == "rannc")

    def test_dp_dies_on_medium(self, rows):
        dp = {r.workload: r for r in rows if r.framework == "data_parallel"}
        assert dp["h1024/L24"].feasible
        assert not dp["h1536/L96"].feasible

    def test_rannc_beats_gpipe_on_small(self, rows):
        by = {(r.framework, r.workload): r for r in rows}
        assert (
            by[("rannc", "h1024/L24")].throughput
            > by[("gpipe_hybrid", "h1024/L24")].throughput
        )

    def test_detail_recorded(self, rows):
        rannc = [r for r in rows if r.framework == "rannc"][0]
        assert "stages" in rannc.detail

    def test_headline_claims_structure(self, rows):
        claims = headline_claims(rows)
        assert claims["rannc_trains_all"]

    def test_amp_excludes_gpipe(self):
        rows = run_fig4(grid=[(1024, 24)], precision=Precision.AMP)
        gp = [r for r in rows if r.framework == "gpipe_hybrid"][0]
        assert not gp.feasible
        assert gp.detail["reason"] == "no AMP support"


class TestFig5Small:
    def test_single_node_only(self):
        rows = run_fig5(depths=(50,), width_factor=2, include_multi_node=False)
        frameworks = {r.framework for r in rows}
        assert frameworks == {"data_parallel", "gpipe_model", "rannc"}
        rannc = [r for r in rows if r.framework == "rannc"][0]
        gp = [r for r in rows if r.framework == "gpipe_model"][0]
        assert rannc.feasible and gp.feasible
        assert rannc.throughput > gp.throughput


class TestCoarseningAblation:
    def test_small_instance(self):
        rows = run_coarsening_ablation(layer_counts=(24,))
        row = rows[0]
        assert row.ablated_finished
        assert row.ablated_throughput < row.full_throughput
        assert not math.isnan(row.slowdown_pct)
        assert "slowdown" in format_ablation(rows) or "%" in format_ablation(rows)
        # the exact h1024/L24 row: the summed-atomic context is the only
        # DPContext subclass, so its search is pinned bit for bit
        assert row.model == "h1024/L24"
        assert row.ablated_throughput == 144.24500282216366
        # (S, MB) sweeps whose stages cannot cover the atoms are skipped
        assert row.ablated_dp_states == 33164
        assert row.full_throughput == 171.96355326283134
        # both sides count DP states, not DP calls
        assert row.full_dp_states == 7210

    def test_small_instance_unpruned(self):
        """With the coverage prune patched off, every (S, MB) sweep runs:
        the same answer from more states."""
        with mock.patch.object(
            coarsening_ablation, "covering_sweeps",
            lambda ctx, stage_counts, D, R, mbs: list(mbs),
        ):
            row = run_coarsening_ablation(layer_counts=(24,))[0]
        assert row.ablated_throughput == 144.24500282216366
        assert row.ablated_dp_states == 55768

    def test_dnf_marker(self):
        rows = run_coarsening_ablation(layer_counts=(96,), state_budget=1000)
        assert not rows[0].ablated_finished
        assert rows[0].projected_states > 1000
        assert "DNF" in format_ablation(rows)
        # the full side still reports DP states, not DP calls
        graph = build_bert(BertConfig(hidden_size=1024, num_layers=96))
        plan = auto_partition(graph, paper_cluster(), 256)
        assert rows[0].full_dp_states == plan.diagnostics.states_evaluated
        assert rows[0].full_dp_states > plan.diagnostics.dp_calls

    def test_summed_estimates_overestimate(self, tiny_bert, cluster):
        """Property: the summed-atomic estimate dominates the true merged
        profile in both time and memory."""
        from repro.partitioner.atomic import atomic_partition
        from repro.partitioner.blocks import Block
        from repro.partitioner.stage_dp import DPContext
        from repro.profiler import GraphProfiler

        profiler = GraphProfiler(tiny_bert, cluster)
        comps = atomic_partition(tiny_bert)
        blocks = [
            Block(index=i, atomic_indices=(i,), tasks=c.tasks)
            for i, c in enumerate(comps)
        ]
        summed = SummedAtomicContext(tiny_bert, blocks, profiler, 32)
        true = DPContext(tiny_bert, blocks, profiler, 32)
        for lo, hi in [(0, len(blocks)), (0, len(blocks) // 2),
                       (len(blocks) // 3, len(blocks) // 2)]:
            a = summed.stage_profile(lo, hi, 1, 1, 1, True)
            b = true.stage_profile(lo, hi, 1, 1, 1, True)
            assert a.time_fwd >= b.time_fwd - 1e-12
            assert a.time_bwd >= b.time_bwd - 1e-12

        # memory over every (lo, hi): at MB=1 with checkpointing the
        # summed estimate holds at least the true merged memory
        lo, hi = np.triu_indices(summed.k + 1, 1)
        summed_mem = summed._range_costs(lo, hi, 32, 1, True)[2]
        assert (summed_mem >= true._range_costs(lo, hi, 32, 1, True)[2]).all()

        # and, at every microbatch a sweep reads, at least the memory
        # floor the bands are sized by: static bytes of the range's
        # unique parameters plus one microbatch of saved activations
        # (the summed memory does not depend on MB or checkpointing)
        _, _, PARAMS = true._range_matrices()
        factor = profiler.precision.activation_bytes_factor
        saved = true._saved_prefix[hi] - true._saved_prefix[lo]
        static = profiler.memory_model.static_bytes(PARAMS[lo, hi])
        for bs in {32 // (MB * r) for MB in (1, 2, 4, 8, 16, 32)
                   for r in (1, 2, 3, 4)} - {0}:
            mem = summed._range_costs(lo, hi, bs, 2, True)[2]
            assert (mem >= static + saved * bs * factor).all(), bs


class TestLossValidation:
    def test_agreement(self):
        r = run_loss_validation(steps=3)
        assert r.within_paper_tolerance
        assert r.max_diff < 1e-9
        assert len(r.reference_losses) == 3

    def test_different_seeds_differ(self):
        a = run_loss_validation(steps=2, seed=0)
        b = run_loss_validation(steps=2, seed=1)
        assert a.reference_losses != b.reference_losses

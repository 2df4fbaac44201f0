"""Tests for Algorithm 2 (form_stage), device allocation, plans and the
auto_partition public API."""

import math

import pytest

from repro.hardware import Precision, paper_cluster, tiny_cluster
from repro.models import BertConfig, build_bert, build_mlp, build_resnet
from repro.models.configs import ResNetConfig
from repro.partitioner import PartitioningError, auto_partition
from repro.partitioner.allocation import allocate_devices
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import block_partition
from repro.partitioner.search import form_stage, sweep_bound
from repro.partitioner.stage_dp import DPContext, DPRun, form_stage_dp
from repro.profiler import GraphProfiler
from tests.partitioner.oracles import reference_form_stage_dp


def make_ctx(graph, cluster, batch_size, k=8):
    """A run on ``cluster`` over a fresh context."""
    profiler = GraphProfiler(graph, cluster)
    blocks = block_partition(graph, atomic_partition(graph), profiler,
                             cluster, num_blocks=k)
    return DPRun(DPContext(graph, blocks, profiler, batch_size), cluster)


class TestFormStage:
    def test_small_model_single_node(self):
        cluster = tiny_cluster(num_nodes=2, devices_per_node=2,
                               memory_bytes=1024**3)
        g = build_mlp((32, 64, 64, 16))
        ctx = make_ctx(g, cluster, 16)
        result = form_stage(ctx)
        assert result is not None
        # tiny model: one pipeline per node, replicated across nodes
        assert result.num_pipeline_nodes == 1
        assert result.replica_factor == 2
        assert sum(result.solution.device_counts) == 2

    def test_escalates_nodes_when_memory_tight(self):
        # model too big for one node's devices but fits across two
        cluster = tiny_cluster(num_nodes=2, devices_per_node=2,
                               memory_bytes=36 * 1024**2)
        g = build_mlp((256, 1024, 1024, 1024, 1024, 256))
        ctx = make_ctx(g, cluster, 8)
        result = form_stage(ctx)
        assert result is not None
        assert result.num_pipeline_nodes == 2
        assert result.replica_factor == 1
        assert result.solution.num_stages >= 3

    def test_infeasible_returns_none(self):
        cluster = tiny_cluster(num_nodes=1, devices_per_node=2,
                               memory_bytes=1024**2)
        g = build_mlp((256, 1024, 1024, 256))
        ctx = make_ctx(g, cluster, 8)
        assert form_stage(ctx) is None

    def test_first_feasible_stage_count_is_no_faster(self):
        """DESIGN.md D2: the pseudocode returns the first stage count with
        a feasible solution; every stage count of the level competes
        instead, so the winner is the fastest per-stage-count answer and
        never slower than the first feasible one's."""
        cluster = tiny_cluster(num_nodes=1, devices_per_node=4,
                               memory_bytes=28 * 1024**2)
        g = build_mlp((256, 1024, 1024, 1024, 1024, 256))
        ctx = make_ctx(g, cluster, 16)
        result = form_stage(ctx)
        answers = {
            S: [sol for MB in (1, 2, 4, 8, 16)
                if (sol := form_stage_dp(ctx, range(S, S + 1), 4, 1,
                                         MB)[S]) is not None]
            for S in range(1, 5)
        }
        first = min(S for S, sols in answers.items() if sols)
        assert first > 1  # S = 1 does not fit: a real multi-stage level

        def time_of(sol):
            return sol.estimated_iteration_time()

        strict = min(answers[first], key=time_of)
        best = min((sol for sols in answers.values() for sol in sols),
                   key=time_of)
        assert result is not None and result.num_stages >= first
        assert time_of(result.solution) == time_of(best)
        assert time_of(result.solution) <= time_of(strict)

    def test_max_microbatches_cap(self):
        cluster = tiny_cluster(num_nodes=1, devices_per_node=2,
                               memory_bytes=1024**3)
        g = build_mlp((32, 64, 16))
        ctx = make_ctx(g, cluster, 64, k=4)
        result = form_stage(ctx, max_microbatches=2)
        assert result is not None
        assert result.solution.num_microbatches <= 2

    @pytest.mark.parametrize("memory_mib", [36, 1024])
    def test_matches_per_candidate_reference_search(self, memory_mib):
        """Algorithm 2 with one sweep per (D, R, MB) picks exactly the
        winner of the candidate-by-candidate search over the pure-Python
        reference DP.  It ranks exactly the candidates the sweep bound
        keeps (DESIGN.md D2c): those whose objective is within the bound
        of the best makespan of the earlier microbatch counts."""
        cluster = tiny_cluster(num_nodes=2, devices_per_node=2,
                               memory_bytes=memory_mib * 1024**2)
        g = build_mlp((256, 1024, 1024, 1024, 1024, 256))
        ctx = make_ctx(g, cluster, 8, k=6)
        result = form_stage(ctx)

        for n, (D, R) in enumerate([(2, 2), (4, 1)], start=1):
            pairs = [(S, MB) for S in range(D - 1, D + 1)
                     for MB in (1, 2, 4, 8) if MB <= 8 // R]
            sols = [reference_form_stage_dp(ctx, S, D, 8, R, MB)
                    for S, MB in pairs]
            sols = [s for s in sols if s is not None]
            if sols:
                break
        best = min(sols, key=lambda s: s.estimated_iteration_time())

        def incumbent_before(MB):
            return min((s.estimated_iteration_time() for s in sols
                        if s.num_microbatches < MB), default=math.inf)

        kept = [s for s in sols if s.objective <= sweep_bound(
            incumbent_before(s.num_microbatches), D, s.num_microbatches)]
        assert len(kept) < len(sols)
        assert result.num_pipeline_nodes == n
        assert result.candidates_tried == len(kept)
        assert result.solution.boundaries == best.boundaries
        assert result.solution.device_counts == best.device_counts
        assert result.solution.num_microbatches == best.num_microbatches
        assert result.solution.objective == best.objective


class TestAllocation:
    def test_contiguous_assignment(self):
        cluster = paper_cluster()
        assignment = allocate_devices(cluster, [2, 3, 3], 4)
        assert assignment.devices_of(0, 0) == (0, 1)
        assert assignment.devices_of(0, 1) == (2, 3, 4)
        assert assignment.devices_of(1, 0) == (8, 9)
        assert assignment.total_devices_used() == 32

    def test_coverage_enforced(self):
        cluster = paper_cluster()
        # over-subscription always fails
        with pytest.raises(ValueError, match="allocation covers"):
            allocate_devices(cluster, [8, 8], 4)  # 64 > 32
        # partial coverage is allowed: elastic repair and heterogeneous
        # prefix levels leave trailing ranks idle
        assignment = allocate_devices(cluster, [2, 2], 4)  # 16 of 32
        assert assignment.total_devices_used() == 16

    def test_boundary_bytes_validated_under_flat(self):
        # a malformed boundary list must fail under every comm model,
        # not only when the topology scoring consumes it
        cluster = paper_cluster()
        with pytest.raises(ValueError, match="boundary_bytes"):
            allocate_devices(cluster, [4, 4], 4, boundary_bytes=[1.0, 2.0])

    def test_stage_spans_nodes(self):
        cluster = paper_cluster()
        assignment = allocate_devices(cluster, [6, 6, 4], 2)
        assert not assignment.stage_spans_nodes(0, 0)  # ranks 0-5
        assert assignment.stage_spans_nodes(0, 1)  # ranks 6-11 cross node 0/1

    def test_crossing_is_internode(self):
        cluster = paper_cluster()
        assignment = allocate_devices(cluster, [8, 8], 2)
        # stage0 ends at rank 7 (node 0), stage1 starts at rank 8 (node 1)
        assert assignment.crossing_is_internode(0, 0)
        assert not assignment.crossing_is_internode(0, 1)  # last stage


class TestAutoPartition:
    def test_plan_structure(self, tiny_bert, cluster):
        plan = auto_partition(tiny_bert, cluster, 64)
        assert plan.total_devices == cluster.total_devices
        assert plan.throughput > 0
        assert plan.iteration_time > 0
        covered = set()
        for s in plan.stages:
            covered |= set(s.tasks)
        assert covered == set(tiny_bert.tasks)
        assert plan.assignment is not None
        assert plan.per_microbatch_time > 0
        assert "pipeline_time" in plan.diagnostics.as_dict()

    def test_summary_renders(self, tiny_bert, cluster):
        plan = auto_partition(tiny_bert, cluster, 64)
        text = plan.summary()
        assert "PartitionPlan" in text and "stage 0" in text

    def test_small_model_becomes_data_parallel(self, cluster):
        g = build_mlp((64, 128, 64, 10))
        plan = auto_partition(g, cluster, 64)
        assert plan.num_stages == 1  # degenerates to DP + accumulation

    def test_infeasible_raises(self):
        cluster = tiny_cluster(num_nodes=1, devices_per_node=2,
                               memory_bytes=1024**2)
        g = build_mlp((256, 1024, 1024, 256))
        with pytest.raises(PartitioningError):
            auto_partition(g, cluster, 8)

    def test_bad_batch_size(self, tiny_bert, cluster):
        with pytest.raises(ValueError):
            auto_partition(tiny_bert, cluster, 0)

    def test_validation_catches_corrupt_graph(self, mlp_graph, cluster):
        mlp_graph.tasks["act0"].op_type = "mystery"
        with pytest.raises(Exception, match="unknown op"):
            auto_partition(mlp_graph, cluster, 8)

    def test_amp_plan(self, tiny_bert, cluster):
        fp32 = auto_partition(tiny_bert, cluster, 64, precision=Precision.FP32)
        amp = auto_partition(tiny_bert, cluster, 64, precision=Precision.AMP)
        assert amp.throughput > fp32.throughput

    def test_resnet_partition(self, cluster):
        g = build_resnet(ResNetConfig(depth=50, width_factor=1, image_size=64))
        plan = auto_partition(g, cluster, 64)
        assert plan.throughput > 0

    def test_stage_devices_sum_to_pipeline(self, tiny_bert, cluster):
        plan = auto_partition(tiny_bert, cluster, 64)
        assert plan.devices_per_pipeline * plan.replica_factor == 32
        for i in range(plan.num_stages):
            assert plan.stage_replicas(i) == (
                plan.stages[i].devices_per_pipeline * plan.replica_factor
            )

"""Focused tests for uncoarsening boundary moves on graphs where the cut
size actually differs between candidate boundaries (wide vs. narrow
activations), plus evaluate_plan schedule variants."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.traversal import is_convex
from repro.hardware import paper_cluster
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import BlockPartitioner
from repro.profiler import GraphProfiler
from tests.profiler.oracles import total_cut_bytes


def bottleneck_chain():
    """x(8) -> fc_a(256) -> relu -> fc_b(8) -> relu -> fc_c(256) -> loss.

    The cut after ``relu_a`` carries a 256-wide activation; the cut after
    ``relu_b`` only 8 -- a 32x communication difference between adjacent
    boundaries."""
    b = GraphBuilder("bottleneck")
    x = b.input("x", (1, 8))
    h = b.linear(x, 256, name="fc_a")
    h = b.op("relu", [h], name="relu_a")
    h = b.linear(h, 8, name="fc_b")
    h = b.op("relu", [h], name="relu_b")
    h = b.linear(h, 256, name="fc_c")
    y = b.input("y", (1, 256))
    loss = b.op("mse_loss", [h, y], name="loss")
    return b.finish([loss])


@pytest.fixture
def bp():
    graph = bottleneck_chain()
    cluster = paper_cluster()
    profiler = GraphProfiler(graph, cluster)
    comps = atomic_partition(graph)
    return BlockPartitioner(
        graph, comps, profiler, cluster, num_blocks=2
    ), graph


def comp_index(bp_obj, task_name):
    for comp in bp_obj.components:
        if comp.non_constant_task == task_name:
            return comp.index
    raise KeyError(task_name)


class TestBoundaryMove:
    def _force_partition(self, bp_obj, boundary_after: str):
        """Split the chain into two groups right after ``boundary_after``."""
        order = [c.non_constant_task for c in bp_obj.components]
        cut = order.index(boundary_after) + 1
        bp_obj._reset_groups(
            {0: set(range(cut)), 1: set(range(cut, len(order)))}
        )

    def test_move_reduces_wide_cut(self, bp):
        bp_obj, graph = bp
        # boundary on the WIDE edge (after relu_a): 256-float cut
        self._force_partition(bp_obj, "relu_a")
        wide_cut = total_cut_bytes(bp_obj)

        # moving {fc_b, relu_b} into group 0 shifts the boundary to the
        # narrow edge
        part = frozenset(
            {comp_index(bp_obj, "fc_b"), comp_index(bp_obj, "relu_b")}
        )
        moved = bp_obj._try_move(part)
        assert moved
        assert total_cut_bytes(bp_obj) < wide_cut / 8

    def test_move_keeps_convexity(self, bp):
        bp_obj, graph = bp
        self._force_partition(bp_obj, "relu_a")
        part = frozenset(
            {comp_index(bp_obj, "fc_b"), comp_index(bp_obj, "relu_b")}
        )
        bp_obj._try_move(part)
        for atoms in bp_obj.group_atoms.values():
            tasks = set()
            for a in atoms:
                tasks |= set(bp_obj.components[a].tasks)
            assert is_convex(graph, tasks)

    def test_no_move_from_narrow_cut(self, bp):
        bp_obj, graph = bp
        # boundary already on the NARROW edge: no single part move helps
        self._force_partition(bp_obj, "relu_b")
        narrow_cut = total_cut_bytes(bp_obj)
        part = frozenset({comp_index(bp_obj, "fc_b")})
        bp_obj._try_move(part)
        assert total_cut_bytes(bp_obj) <= narrow_cut

    def test_full_pipeline_prefers_narrow_boundary(self):
        """End-to-end: with k=2, the final blocks should cut the narrow
        edge, not the wide one."""
        graph = bottleneck_chain()
        cluster = paper_cluster()
        profiler = GraphProfiler(graph, cluster)
        comps = atomic_partition(graph)
        blocks = BlockPartitioner(
            graph, comps, profiler, cluster, num_blocks=2
        ).run()
        if len(blocks) == 2:
            in_bytes, out_bytes = graph.cut_bytes(blocks[0].tasks, 1)
            # the boundary activation is the narrow (8-float) one
            assert out_bytes <= 8 * 4


class TestEvaluatePlanSchedules:
    def test_async_schedule(self, tiny_bert, cluster):
        from repro.partitioner import auto_partition
        from repro.pipeline.hybrid import evaluate_plan

        plan = auto_partition(tiny_bert, cluster, 64)
        sync_time = plan.iteration_time
        evaluate_plan(plan, schedule="async_1f1b")
        assert plan.iteration_time <= sync_time  # no flush bubble

    def test_unknown_schedule(self, tiny_bert, cluster):
        from repro.partitioner import auto_partition
        from repro.pipeline.hybrid import evaluate_plan

        plan = auto_partition(tiny_bert, cluster, 64)
        with pytest.raises(ValueError, match="unknown schedule"):
            evaluate_plan(plan, schedule="bogus")

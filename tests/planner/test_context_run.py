"""One way into a planning run: a context takes its inputs once.

A :class:`PlanningContext` is built from the run's graph, cluster and
config and runs itself; no entry point accepts a context *and* the
inputs it was built from, so the two can never disagree.
"""

import pytest

from repro.hardware import Precision, paper_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner import auto_partition
from repro.partitioner.deployment import plan_to_json
from repro.planner import (
    PlannerConfig,
    PlanningContext,
    ensure_store,
    plan_graph,
    replan,
)


@pytest.fixture(scope="module")
def bert_base():
    return build_bert(BertConfig(hidden_size=768, num_layers=12, num_heads=12))


@pytest.fixture(scope="module")
def finished(bert_base):
    """A finished FP32 run of BERT-Base on one 8-V100 node."""
    ctx = PlanningContext(
        bert_base, paper_cluster(1), PlannerConfig(batch_size=256)
    )
    ctx.run()
    return ctx


def _same_plan(a, b, graph):
    assert plan_to_json(a, graph) == plan_to_json(b, graph)
    assert a.precision == b.precision
    assert a.iteration_time == b.iteration_time
    assert a.throughput == b.throughput


class TestNoSecondSourceOfInputs:
    def test_auto_partition_takes_no_context(self, bert_base, finished):
        with pytest.raises(TypeError, match="context"):
            auto_partition(bert_base, paper_cluster(1), 256,
                           precision=Precision.AMP, context=finished)

    def test_auto_partition_takes_no_reuse_from(self, bert_base, finished):
        with pytest.raises(TypeError, match="reuse_from"):
            auto_partition(bert_base, paper_cluster(2), 256,
                           reuse_from=finished)

    def test_plan_graph_takes_no_context(self, bert_base, finished):
        with pytest.raises(TypeError, match="context"):
            plan_graph(bert_base, paper_cluster(2), finished.config,
                       context=finished)

    def test_replan_takes_no_context(self, bert_base, finished):
        other = PlanningContext(
            bert_base, paper_cluster(2), finished.config
        )
        with pytest.raises(TypeError, match="context"):
            replan(finished, cluster=paper_cluster(2), context=other)


class TestContextRun:
    def test_amp_context_plans_the_cold_amp_plan(self, bert_base, finished):
        amp = PlannerConfig(batch_size=256, precision=Precision.AMP)
        plan = PlanningContext(bert_base, paper_cluster(1), amp).run()
        cold = auto_partition(bert_base, paper_cluster(1), 256,
                              precision=Precision.AMP)
        assert plan.precision is Precision.AMP
        _same_plan(plan, cold, bert_base)

    def test_run_twice_returns_equal_plans(self, bert_base, finished):
        first = finished.get("evaluated")
        again = finished.run()
        _same_plan(again, first, bert_base)
        skipped = [e for e in finished.events if e.status == "skipped"]
        assert {e.detail["reason"] for e in skipped} == {
            "artifacts already present"
        }

    def test_delta_run_plans_the_cold_plan(self, bert_base, finished):
        bigger = paper_cluster(2)
        ctx = PlanningContext(
            bert_base, bigger, finished.config,
            store=ensure_store(finished),
        )
        plan = ctx.run()
        assert plan.cluster.total_devices == 16
        assert [e.name for e in ctx.events if e.detail.get("reuse")] == [
            "atomic_partition", "coarsen", "profile_tensors",
        ]
        _same_plan(plan, plan_graph(bert_base, bigger, finished.config),
                   bert_base)

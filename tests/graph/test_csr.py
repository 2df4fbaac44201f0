"""The graph's integer ids and task CSR against a re-derivation from the
name-keyed dicts.

``TaskGraph.add_value`` numbers each value by insertion and
``TaskGraph.add_task`` appends the task's input and output value ids and
sets each output's producer id.  Every way a graph is made goes through
those two methods: the builder, a ``serialize`` round trip,
``extract_subgraph`` and hand assembly.  The non-constant flags the
profiler and the atomic partition share walk that CSR; they must equal
the dict walk of the test oracle.
"""

import numpy as np
import pytest

from repro.graph.ir import TaskGraph, TaskNode, ValueKind, ValueNode
from repro.graph.serialize import graph_from_json, graph_to_json
from repro.hardware import paper_cluster
from repro.models.gpt import gpt3_like
from repro.models.random_dag import build_random_dag
from repro.partitioner.atomic import classify_tasks
from repro.profiler import GraphProfiler
from tests.profiler.oracles import classify_reference

CSR_FIELDS = ("value_producer", "task_in_ptr", "task_in", "task_out_ptr",
              "task_out")


def csr_reference(graph):
    """The ids and CSR, derived again from the dicts."""
    vid = {name: i for i, name in enumerate(graph.values)}
    tid = {name: i for i, name in enumerate(graph.tasks)}
    ref = {"value_index": vid, "task_in_ptr": [0], "task_in": [],
           "task_out_ptr": [0], "task_out": []}
    for task in graph.tasks.values():
        ref["task_in"] += [vid[v] for v in task.inputs]
        ref["task_in_ptr"].append(len(ref["task_in"]))
        ref["task_out"] += [vid[v] for v in task.outputs]
        ref["task_out_ptr"].append(len(ref["task_out"]))
    ref["value_producer"] = [
        -1 if v.producer is None else tid[v.producer]
        for v in graph.values.values()
    ]
    return ref


def assert_csr_matches(graph):
    ref = csr_reference(graph)
    assert graph.value_index == ref["value_index"]
    for name in CSR_FIELDS:
        column = getattr(graph, name)
        assert column.typecode == "q", name
        assert column.tolist() == ref[name], name


def _hand_assembled():
    """Values and tasks added by hand; ``sq`` reads ``h`` twice."""
    g = TaskGraph("hand")
    g.add_value(ValueNode("x", (1, 4), kind=ValueKind.INPUT))
    g.add_value(ValueNode("w", (4, 4), kind=ValueKind.PARAM, batched=False))
    g.add_value(ValueNode("h", (1, 4)))
    g.add_value(ValueNode("sq", (1, 4)))
    g.add_value(ValueNode("wt", (4, 4), batched=False))
    g.add_value(ValueNode("out", (1, 4)))
    g.add_task(TaskNode("mm", "matmul", ["x", "w"], ["h"]))
    g.add_task(TaskNode("square", "mul", ["h", "h"], ["sq"]))
    g.add_task(TaskNode("w_t", "transpose", ["w"], ["wt"]))
    g.add_task(TaskNode("proj", "matmul", ["sq", "wt"], ["out"]))
    g.mark_output("out")
    return g


def _builder_graphs(tiny_bert, tiny_resnet, fig2_graph):
    return {
        "tiny_bert": tiny_bert,
        "tiny_resnet": tiny_resnet,
        "fig2": fig2_graph,
        "gpt3_like-2": gpt3_like(depth=2, hidden_size=64, num_heads=4,
                                 seq_len=16, vocab_size=97),
        "random_dag": build_random_dag(seed=1, num_nodes=30, width=16),
    }


def test_builder_graphs(tiny_bert, tiny_resnet, fig2_graph):
    for graph in _builder_graphs(tiny_bert, tiny_resnet, fig2_graph).values():
        assert_csr_matches(graph)


def test_serialize_round_trip(tiny_bert, tiny_resnet):
    for graph in (tiny_bert, tiny_resnet, _hand_assembled()):
        restored = graph_from_json(graph_to_json(graph))
        assert_csr_matches(restored)
        for name in CSR_FIELDS:
            assert getattr(restored, name) == getattr(graph, name)


def test_extract_subgraph(tiny_bert):
    names = list(tiny_bert.tasks)
    for lo, hi in ((0, 10), (5, len(names) // 2), (len(names) // 3, None)):
        sub = tiny_bert.extract_subgraph(names[lo:hi])
        assert_csr_matches(sub)
        # boundary inputs became leaves of the subgraph
        assert min(sub.value_producer) == -1


def test_hand_assembled_and_duplicate_reads():
    g = _hand_assembled()
    assert_csr_matches(g)
    h = g.value_index["h"]
    square = list(g.tasks).index("square")
    lo, hi = g.task_in_ptr[square], g.task_in_ptr[square + 1]
    assert g.task_in[lo:hi].tolist() == [h, h]
    # the profiler's consumer CSR keeps one (value, task) pair per reader
    profiler = GraphProfiler(g, paper_cluster())
    ptr, readers = profiler.value_consumer_ptr, profiler.value_consumers
    assert readers[ptr[h]:ptr[h + 1]].tolist() == [square]
    assert g.values["h"].consumers == ["square", "square"]


def test_rejected_task_leaves_the_csr_untouched():
    g = _hand_assembled()
    before = {name: getattr(g, name).tolist() for name in CSR_FIELDS}
    g.add_value(ValueNode("y", (1, 4), kind=ValueKind.INPUT))
    with pytest.raises(ValueError, match="two producers"):
        g.add_task(TaskNode("again", "relu", ["y"], ["h"]))
    with pytest.raises(ValueError, match="unknown value"):
        g.add_task(TaskNode("ghost", "relu", ["y"], ["nowhere"]))
    assert "again" not in g.tasks and "ghost" not in g.tasks
    for name in ("task_in_ptr", "task_in", "task_out_ptr", "task_out"):
        assert getattr(g, name).tolist() == before[name]
    assert_csr_matches(g)


def test_non_constant_flags_match_the_dict_walk(tiny_bert, tiny_resnet,
                                                fig2_graph):
    graphs = _builder_graphs(tiny_bert, tiny_resnet, fig2_graph)
    graphs["hand"] = _hand_assembled()
    for graph in graphs.values():
        ref = classify_reference(graph)
        assert classify_tasks(graph) == ref
        assert graph.non_constant_flags() == list(ref.values())
        profiler = GraphProfiler(graph, paper_cluster())
        assert np.array_equal(profiler.non_constant, list(ref.values()))
    flags = classify_tasks(_hand_assembled())
    assert flags == {"mm": True, "square": True, "w_t": False, "proj": True}

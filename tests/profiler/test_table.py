"""The profiler's graph table against per-task oracles, and the
block aggregates built from it against a from-scratch recomputation.

``tests/profiler/oracles.py`` extracts every task's costs, K/V bytes and
parameter ids by walking the graph dicts task by task; every table array
must equal it exactly.  ``BlockPartitioner`` reads its atom DAG, edge
bytes and atom aggregates off the same table;
``block_aggregates_reference`` rebuilds them from the graph dicts.
"""

import random

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.ir import ValueKind
from repro.hardware import Precision, paper_cluster, tiny_cluster
from repro.models import BertConfig, ResNetConfig, build_bert, build_resnet
from repro.models.gpt import gpt3_like
from repro.models.random_dag import build_random_dag
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import BlockPartitioner
from repro.profiler import GraphProfiler
from repro.profiler.cost_model import CostModel
from tests.profiler.oracles import (
    block_aggregates_reference,
    group_aggregates_reference,
    group_memory,
    table_reference,
    task_cost_reference,
)


def _constant_chain(dim=8, layers=6):
    """Constant tasks feeding constant tasks, each cloned into several
    atoms: the shapes the non-constant flags and multi-task atoms need."""
    b = GraphBuilder("constant_chain")
    h = b.input("x", (1, dim))
    wt = b.op("transpose", [b.param("w", (dim, dim))], name="w_t")
    wtt = b.op("transpose", [wt], name="w_tt")
    for i in range(layers):
        h = b.op("matmul", [h, wtt if i % 2 else wt], name=f"mm{i}")
        h = b.op("tanh", [h], name=f"act{i}")
    loss = b.op("mse_loss", [h, b.input("y", (1, dim))], name="loss")
    return b.finish([loss])


GRAPHS = {
    "bert-base": lambda: build_bert(
        BertConfig(hidden_size=768, num_layers=12, num_heads=12)
    ),
    "resnet50x8": lambda: build_resnet(
        ResNetConfig(depth=50, width_factor=8)
    ),
    "gpt3_like-8": lambda: gpt3_like(depth=8),
    "random_dag": lambda: build_random_dag(seed=3, num_nodes=40, width=32),
    "constant_chain": _constant_chain,
}
MODES = {
    "fp32": dict(precision=Precision.FP32),
    "amp": dict(precision=Precision.AMP),
    "inference": dict(mode="inference"),
}

TASK_ARRAYS = (
    "fwd_flops", "bwd_flops", "act_bytes", "param_bytes", "saved_bytes",
    "kv_saved_bytes", "param_count", "is_matmul", "is_free", "non_constant",
)


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_task_table_matches_per_task_oracle(graph, mode):
    profiler = GraphProfiler(graph, paper_cluster(), **MODES[mode])
    ref = table_reference(graph)
    for name in TASK_ARRAYS:
        got = getattr(profiler, name)
        assert got.dtype == ref[name].dtype, name
        assert np.array_equal(got, ref[name]), name
    assert profiler._task_param_ids == ref["_task_param_ids"]
    assert profiler._param_sizes == ref["_param_sizes"]
    assert np.array_equal(profiler._param_sizes_arr, ref["_param_sizes"])


def test_value_table_and_adjacency_match_the_graph(graph):
    profiler = GraphProfiler(graph, paper_cluster())
    values = list(graph.values.values())
    vid = {v.name: i for i, v in enumerate(values)}
    tid = {t: i for i, t in enumerate(graph.tasks)}
    assert profiler.value_bytes.tolist() == [v.nbytes(1) for v in values]
    assert profiler.value_batched.tolist() == [v.batched for v in values]
    assert profiler.value_float.tolist() == [
        v.dtype.value.startswith("float") for v in values
    ]
    assert profiler.value_const.tolist() == [
        v.kind in (ValueKind.PARAM, ValueKind.CONST) for v in values
    ]
    assert profiler.value_output.tolist() == [
        v.name in graph.output_names for v in values
    ]
    assert profiler.value_producer.tolist() == [
        -1 if v.producer is None else tid[v.producer] for v in values
    ]
    ptr, readers = profiler.value_consumer_ptr, profiler.value_consumers
    for i, v in enumerate(values):
        expected = [tid[c] for c in dict.fromkeys(v.consumers)]
        assert readers[ptr[i]:ptr[i + 1]].tolist() == expected
    for i, task in enumerate(graph.tasks.values()):
        lo, hi = profiler.task_in_ptr[i], profiler.task_in_ptr[i + 1]
        assert profiler.task_in[lo:hi].tolist() == [vid[v] for v in task.inputs]
        lo, hi = profiler.task_out_ptr[i], profiler.task_out_ptr[i + 1]
        assert profiler.task_out[lo:hi].tolist() == [
            vid[v] for v in task.outputs
        ]


def test_task_cost_shares_the_table_row(graph):
    model = CostModel(paper_cluster().device)
    for task in list(graph.tasks.values())[:200]:
        assert model.task_cost(graph, task) == task_cost_reference(graph, task)


@pytest.mark.parametrize("precision", [Precision.FP32, Precision.AMP])
def test_boundary_bytes_match_boundary_values(graph, precision):
    """The table-fed boundary bytes equal sums over
    ``TaskGraph.boundary_values`` (parameters and constants dropped from
    the inputs), on random task subsets and contiguous ranges."""
    profiler = GraphProfiler(graph, paper_cluster(), precision)
    factor = precision.activation_bytes_factor
    names = list(graph.tasks)
    rng = random.Random(7)

    def reference(subset, bs):
        in_values, out_values = graph.boundary_values(subset)
        scale = lambda v: factor if v.dtype.value.startswith("float") else 1.0
        in_bytes = sum(
            graph.values[n].nbytes(bs) * scale(graph.values[n])
            for n in in_values
            if graph.values[n].kind not in (ValueKind.PARAM, ValueKind.CONST)
        )
        out_bytes = sum(
            graph.values[n].nbytes(bs) * scale(graph.values[n])
            for n in out_values
        )
        return float(in_bytes), float(out_bytes)

    subsets = [names, names[:1], names[-1:]]
    for _ in range(20):
        lo = rng.randrange(len(names))
        subsets.append(names[lo:rng.randrange(lo, len(names)) + 1])
        subsets.append(rng.sample(names, rng.randint(1, min(50, len(names)))))
    for subset in subsets:
        for bs in (1, 3):
            assert profiler.boundary_bytes(subset, bs) == reference(subset, bs)


# ---------------------------------------------------------------------------
# block aggregates
# ---------------------------------------------------------------------------
BLOCK_GRAPHS = {
    "tiny-bert": lambda: build_bert(
        BertConfig(hidden_size=32, num_layers=2, num_heads=4, seq_len=16,
                   vocab_size=101)
    ),
    "gpt3_like-4": lambda: gpt3_like(depth=4, hidden_size=64, num_heads=4,
                                     seq_len=32, vocab_size=97),
    "random_dag-0": lambda: build_random_dag(seed=0, num_nodes=40, width=32),
    "random_dag-5": lambda: build_random_dag(seed=5, num_nodes=60, width=16),
    "constant_chain": _constant_chain,
}


def _partitioner(name, ref_batch_size, precision=Precision.FP32):
    graph = BLOCK_GRAPHS[name]()
    cluster = tiny_cluster(memory_bytes=1024**3)
    return BlockPartitioner(
        graph, atomic_partition(graph),
        GraphProfiler(graph, cluster, precision), cluster,
        num_blocks=4, ref_batch_size=ref_batch_size,
    )


@pytest.mark.parametrize("precision", [Precision.FP32, Precision.AMP])
@pytest.mark.parametrize("ref_batch_size", [1, 4])
@pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
def test_atom_aggregates_match_from_scratch(name, ref_batch_size, precision):
    bp = _partitioner(name, ref_batch_size, precision)
    ref = block_aggregates_reference(bp)
    assert np.array_equal(bp.comp_time, ref["comp_time"])
    assert np.array_equal(bp.comp_saved, ref["comp_saved"])
    assert bp.comp_param_ids == ref["comp_param_ids"]
    assert bp.edge_bytes == ref["edge_bytes"]
    assert [sorted(e) for e in bp.atom_edges] == [
        sorted(e) for e in ref["atom_edges"]
    ]
    # same sets, iterated in the same order: coarsening breaks ties by
    # the group graph's neighbour order, which these sets seed
    assert [list(s) for s in bp.comp_succ] == [
        list(s) for s in ref["comp_succ"]
    ]
    assert [list(s) for s in bp.comp_pred] == [
        list(s) for s in ref["comp_pred"]
    ]


def _check_groups(bp):
    for gid, atoms in bp.group_atoms.items():
        time, saved, params = group_aggregates_reference(bp, atoms)
        load = bp.group_load[gid]
        assert bp.group_time[gid] == time
        assert load.saved == saved
        assert load.private + load.shared_params == params
        assert bp._memory(load) == group_memory(bp, atoms)


@pytest.mark.parametrize("ref_batch_size", [1, 4])
@pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
def test_group_aggregates_after_reset(name, ref_batch_size):
    bp = _partitioner(name, ref_batch_size)
    _check_groups(bp)  # the singleton partition of __init__
    rng = random.Random(ref_batch_size)
    atoms = list(range(len(bp.components)))
    rng.shuffle(atoms)
    groups, gid = {}, 0
    while atoms:
        size = rng.randint(1, 20)
        groups[gid], atoms = set(atoms[:size]), atoms[size:]
        gid += 1
    bp._reset_groups(groups)
    _check_groups(bp)


def test_group_time_equals_numpy_sum_across_the_unroll_boundary():
    """Below 8 atoms ``_group_time`` sums Python floats; it must equal
    NumPy's sum bit for bit at every size, including 8 and above."""
    bp = _partitioner("gpt3_like-4", 1)
    n = len(bp.components)
    rng = random.Random(0)
    for size in range(1, 21):
        for _ in range(200):
            atoms = set(rng.sample(range(n), size))
            assert bp._group_time(atoms) == float(
                bp.comp_time[list(atoms)].sum()
            )

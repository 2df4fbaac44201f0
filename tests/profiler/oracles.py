"""Test oracles for the profiler's graph table and the block aggregates.

Per-task and per-atom transcriptions that walk the ``TaskGraph`` dicts
directly, held against the arrays the table build (NumPy over the
graph's CSR) and ``BlockPartitioner.__init__`` produce:

* :func:`task_cost_reference` and :func:`kv_bytes_reference` extract one
  task's cost coefficients (``registry.flops`` for each FLOP count,
  ``ValueNode.nbytes`` for each byte count), and :func:`table_reference`
  runs them over every task together with the parameter-id walk;
* :func:`block_aggregates_reference` recomputes the atom DAG, its edge
  bytes and the per-atom time, saved bytes and parameter sets from
  ``iter_edges``, :func:`classify_reference` and per-component sums;
* :func:`group_memory` and :func:`total_cut_bytes` recount a group's
  memory estimate and the bytes crossing group boundaries from scratch,
  and :func:`group_graph` contracts a task graph onto task groups.
"""

from collections import Counter
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from repro.graph.ir import TaskGraph, ValueKind
from repro.graph.ops import registry
from repro.graph.traversal import GroupGraph
from repro.profiler.cost_model import FREE_OPS, MATMUL_OPS, TaskCost


def classify_reference(graph: TaskGraph) -> Dict[str, bool]:
    """Task name -> is non-constant, walking the value dicts: a task is
    non-constant iff some input is a model input or the output of a
    non-constant task."""
    non_constant: Dict[str, bool] = {}
    for tname, task in graph.tasks.items():
        non_constant[tname] = any(
            graph.values[v].kind is ValueKind.INPUT
            or (graph.values[v].producer is not None
                and non_constant[graph.values[v].producer])
            for v in task.inputs
        )
    return non_constant


def task_cost_reference(graph: TaskGraph, task) -> TaskCost:
    """Batch-1 cost coefficients of one task, walking its values."""
    fwd = registry.flops(task, graph, 1)
    bwd = registry.backward_flops(task, graph, 1)
    act_bytes = 0.0
    param_bytes = 0.0
    param_count = 0
    for vname in task.inputs:
        value = graph.values[vname]
        if value.batched:
            act_bytes += value.nbytes(1)
        else:
            param_bytes += value.nbytes(1)
            if value.kind is ValueKind.PARAM:
                param_count += value.numel(1)
    saved = 0.0
    for vname in task.outputs:
        value = graph.values[vname]
        nbytes = value.nbytes(1)
        if value.batched:
            act_bytes += nbytes
            saved += nbytes
        else:
            param_bytes += nbytes
    is_free = task.op_type in FREE_OPS
    return TaskCost(
        fwd_flops=fwd,
        bwd_flops=bwd,
        act_bytes=act_bytes,
        param_bytes=param_bytes,
        saved_bytes=0.0 if is_free else saved,
        param_count=param_count,
        is_matmul=task.op_type in MATMUL_OPS,
        is_free=is_free,
    )


def kv_bytes_reference(graph: TaskGraph, task) -> float:
    """Attention K/V bytes of one task: the second operand of a matmul
    whose two operands are batched non-constant values."""
    if task.op_type != "matmul" or len(task.inputs) != 2:
        return 0.0
    operands = [graph.values[v] for v in task.inputs]
    for value in operands:
        if value.kind in (ValueKind.PARAM, ValueKind.CONST):
            return 0.0
        if not value.batched:
            return 0.0
    return float(operands[1].nbytes(1))


def table_reference(graph: TaskGraph) -> Dict[str, object]:
    """The per-task table arrays, ``_task_param_ids`` and ``_param_sizes``
    as a task-by-task loop over :func:`task_cost_reference`."""
    names = list(graph.tasks)
    n = len(names)
    ref: Dict[str, object] = {
        "fwd_flops": np.zeros(n),
        "bwd_flops": np.zeros(n),
        "act_bytes": np.zeros(n),
        "param_bytes": np.zeros(n),
        "saved_bytes": np.zeros(n),
        "kv_saved_bytes": np.zeros(n),
        "param_count": np.zeros(n, dtype=np.int64),
        "is_matmul": np.zeros(n, dtype=bool),
        "is_free": np.zeros(n, dtype=bool),
    }
    for i, tname in enumerate(names):
        task = graph.tasks[tname]
        cost = task_cost_reference(graph, task)
        ref["fwd_flops"][i] = cost.fwd_flops
        ref["bwd_flops"][i] = cost.bwd_flops
        ref["act_bytes"][i] = cost.act_bytes
        ref["param_bytes"][i] = cost.param_bytes
        ref["saved_bytes"][i] = cost.saved_bytes
        ref["kv_saved_bytes"][i] = kv_bytes_reference(graph, task)
        ref["param_count"][i] = cost.param_count
        ref["is_matmul"][i] = cost.is_matmul
        ref["is_free"][i] = cost.is_free

    param_ids: Dict[str, int] = {}
    task_param_ids: List[Tuple[int, ...]] = []
    param_sizes: List[int] = []
    for tname in names:
        ids = []
        for vname in graph.tasks[tname].inputs:
            value = graph.values[vname]
            if value.kind is ValueKind.PARAM:
                pid = param_ids.get(vname)
                if pid is None:
                    pid = len(param_sizes)
                    param_ids[vname] = pid
                    param_sizes.append(value.numel(1))
                ids.append(pid)
        task_param_ids.append(tuple(ids))
    nc = classify_reference(graph)
    ref["non_constant"] = np.array([nc[t] for t in names], dtype=bool)
    ref["_task_param_ids"] = task_param_ids
    ref["_param_sizes"] = param_sizes
    return ref


def block_aggregates_reference(bp) -> Dict[str, object]:
    """``BlockPartitioner.__init__``'s atom DAG and per-atom aggregates,
    recomputed from the graph dicts for ``bp``'s components, profiler
    and reference batch size."""
    graph, profiler = bp.graph, bp.profiler
    n = len(bp.components)
    non_constant = classify_reference(graph)
    owner: Dict[str, int] = {}
    for comp in bp.components:
        owner[comp.non_constant_task] = comp.index
    comp_succ: List[Set[int]] = [set() for _ in range(n)]
    comp_pred: List[Set[int]] = [set() for _ in range(n)]
    edge_bytes: Dict[Tuple[int, int], float] = {}
    act_factor = profiler.precision.activation_bytes_factor
    for producer, consumer in graph.iter_edges():
        if not (non_constant.get(producer) and non_constant.get(consumer)):
            continue
        a, b = owner[producer], owner[consumer]
        if a == b:
            continue
        comp_succ[a].add(b)
        comp_pred[b].add(a)
    for value in graph.values.values():
        if value.producer is None or not non_constant.get(value.producer):
            continue
        a = owner[value.producer]
        scale = act_factor if value.dtype.value.startswith("float") else 1.0
        nbytes = value.nbytes(bp.ref_batch_size) * scale
        for consumer in set(value.consumers):
            if not non_constant.get(consumer):
                continue
            b = owner[consumer]
            if a == b:
                continue
            key = (a, b)
            edge_bytes[key] = edge_bytes.get(key, 0.0) + nbytes
    atom_edges: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for (a, b), w in edge_bytes.items():
        atom_edges[a].append((b, w))
        atom_edges[b].append((a, w))

    tf, tb = profiler._times_at(bp.ref_batch_size)
    comp_time = np.zeros(n)
    comp_saved = np.zeros(n)
    comp_param_ids = []
    for comp in bp.components:
        idx = profiler.indices_of(comp.tasks)
        comp_time[comp.index] = float(tf[idx].sum() + tb[idx].sum())
        comp_saved[comp.index] = float(profiler.saved_bytes[idx].sum())
        pids: Set[int] = set()
        for i in idx:
            pids.update(profiler._task_param_ids[i])
        comp_param_ids.append(frozenset(pids))
    return {
        "comp_succ": comp_succ,
        "comp_pred": comp_pred,
        "edge_bytes": edge_bytes,
        "atom_edges": atom_edges,
        "comp_time": comp_time,
        "comp_saved": comp_saved,
        "comp_param_ids": comp_param_ids,
    }


def group_aggregates_reference(bp, atoms) -> Tuple[float, float, int]:
    """``(time, saved, params)`` of an atom set from scratch: the
    fancy-indexed time sum, the saved bytes and the unique-parameter
    size of the union of the atoms' parameter sets."""
    time = float(bp.comp_time[list(atoms)].sum())
    saved = float(bp.comp_saved[list(atoms)].sum())
    pids: Counter = Counter()
    for a in atoms:
        pids.update(bp.comp_param_ids[a])
    params = sum(bp.profiler._param_sizes[p] for p in pids)
    return time, saved, params


def group_memory(bp, atoms) -> float:
    """The loose block-formation memory estimate of an atom set, recounted
    from scratch: static parameter/optimizer state of the union of the
    atoms' parameters plus one reference microbatch's checkpointed
    activations."""
    profiler = bp.profiler
    saved = float(bp.comp_saved[list(atoms)].sum())
    saved *= bp.ref_batch_size * profiler.precision.activation_bytes_factor
    pids: Set[int] = set()
    for a in atoms:
        pids.update(bp.comp_param_ids[a])
    params = int(
        profiler._param_sizes_arr[np.fromiter(pids, dtype=np.int64)].sum()
    ) if pids else 0
    return profiler.memory_model.static_bytes(params) + saved


def total_cut_bytes(bp) -> float:
    """Bytes crossing any group boundary (the uncoarsening objective)."""
    total = 0.0
    for (a, b), w in bp.edge_bytes.items():
        if bp.atom_owner[a] != bp.atom_owner[b]:
            total += w
    return total


def group_graph(
    graph: TaskGraph, groups: Sequence[FrozenSet[str]]
) -> GroupGraph:
    """Contract a task graph onto a partition into disjoint groups."""
    owner: Dict[str, int] = {}
    for gid, members in enumerate(groups):
        for t in members:
            if t in owner:
                raise ValueError(f"task {t!r} in two groups")
            owner[t] = gid
    edges = set()
    for producer, consumer in graph.iter_edges():
        a, b = owner.get(producer), owner.get(consumer)
        if a is None or b is None or a == b:
            continue
        edges.add((a, b))
    return GroupGraph(range(len(groups)), edges)

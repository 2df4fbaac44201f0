"""Atomic-level partitioning (Sec. III-A).

Two traversals over the task graph:

1. **Forward** (input -> output): classify every task as *non-constant*
   (its output depends on the model's input: some input value is a model
   input or the output of another non-constant task) or *constant*
   (computable from parameters/constants alone, e.g. the transpose of a
   weight matrix).

2. **Backward** (output -> input): every non-constant task seeds one
   atomic subcomponent; each constant task is folded into the
   subcomponent(s) consuming its output.  When a constant task's output
   feeds several subcomponents, the task *and its constant predecessors*
   are cloned into each (the paper's cloning rule), so the components
   remain independently executable.

The result guarantees the paper's replication property: every atomic
subcomponent contains exactly one non-constant task, so replicating it
under data parallelism is never wasted work.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Set, Tuple

from repro.graph.ir import TaskGraph


@dataclass(frozen=True)
class AtomicComponent:
    """An atomic subcomponent: one non-constant task plus the constant
    tasks folded (possibly as clones) into it.

    ``tasks`` is ordered with constants first, the non-constant task last,
    consistent with intra-component execution order.
    """

    index: int
    non_constant_task: str
    tasks: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tasks)


def classify_tasks(graph: TaskGraph) -> Dict[str, bool]:
    """Forward traversal: map task name -> is_non_constant.

    A task is non-constant iff any of its inputs is a model input or the
    output of a non-constant task (:meth:`TaskGraph.non_constant_flags`,
    the walk the profiler's table reads too)."""
    return dict(zip(graph.tasks, graph.non_constant_flags()))


def _constant_closure(graph: TaskGraph, seed: int, flags) -> Set[int]:
    """The ids of the constant task ``seed`` and all its (necessarily
    constant) predecessors."""
    ins, ptr, producer = graph.task_in, graph.task_in_ptr, graph.value_producer
    members: Set[int] = set()
    stack = [seed]
    while stack:
        t = stack.pop()
        if t in members:
            continue
        members.add(t)
        for v in ins[ptr[t]:ptr[t + 1]]:
            p = producer[v]
            if p >= 0:
                if flags[p]:  # pragma: no cover - impossible
                    raise AssertionError(
                        f"constant task {t} consumes non-constant {p}"
                    )
                stack.append(p)
    return members


def atomic_partition(graph: TaskGraph) -> List[AtomicComponent]:
    """Identify atomic subcomponents (backward traversal with cloning).

    Returns components in topological order of their non-constant tasks.
    Constant tasks shared by several components appear in each of them
    (clones); non-constant tasks appear in exactly one.  Tasks are
    handled by id (position in ``graph.tasks``), which is topological.
    """
    flags = graph.non_constant_flags()
    names = list(graph.tasks)
    nc_ids = list(compress(range(len(names)), flags))
    if not nc_ids:
        raise ValueError(
            "model has no non-constant task: nothing depends on its inputs"
        )
    nc_names = [names[t] for t in nc_ids]

    # Backward traversal: attach each constant task (with its constant
    # predecessor closure) to every component that consumes its output.
    constant = [t for t, flag in enumerate(flags) if not flag]
    cloned: Dict[int, Set[int]] = {}  # component -> constant task ids
    if constant:
        component_of_nc = dict(zip(nc_ids, range(len(nc_ids))))
        ptr, readers = (column.tolist() for column in graph.task_readers())
        targets_of_const: Dict[int, Set[int]] = {}
        for t in reversed(constant):
            targets: Set[int] = set()
            for consumer in readers[ptr[t]:ptr[t + 1]]:
                if flags[consumer]:
                    targets.add(component_of_nc[consumer])
                else:
                    # consumed by another constant task: inherit that
                    # task's targets (it was processed already -- it is
                    # a successor, hence a later id)
                    targets.update(targets_of_const.get(consumer, ()))
            if not targets:
                # dead constant subtree (no path to any non-constant
                # task): attach to the first component so every task is
                # placed
                targets = {0}
            targets_of_const[t] = targets
            closure = _constant_closure(graph, t, flags)
            for idx in targets:
                cloned.setdefault(idx, set()).update(closure)

    # a component without clones is its lone task: nothing to sort
    components = list(map(AtomicComponent, range(len(nc_ids)), nc_names,
                          zip(nc_names)))
    for i, extra in cloned.items():
        components[i] = AtomicComponent(
            i, nc_names[i],
            tuple(names[t] for t in sorted(extra | {nc_ids[i]})),
        )
    return components


def check_atomic_invariants(
    graph: TaskGraph, components: List[AtomicComponent]
) -> None:
    """Assert the Sec. III-A invariants (used by tests and the API):

    * every task appears in >= 1 component;
    * every *non-constant* task appears in exactly one;
    * each component has exactly one non-constant task;
    * within a component, the non-constant task is reachable from every
      constant member (constants are its predecessors' closure).
    """
    non_constant = classify_tasks(graph)
    seen_counts: Dict[str, int] = {t: 0 for t in graph.tasks}
    for comp in components:
        ncs = [t for t in comp.tasks if non_constant[t]]
        if ncs != [comp.non_constant_task]:
            raise AssertionError(
                f"component {comp.index} has non-constant tasks {ncs}, "
                f"expected exactly [{comp.non_constant_task}]"
            )
        for t in comp.tasks:
            seen_counts[t] += 1
    for t, count in seen_counts.items():
        if count == 0:
            raise AssertionError(f"task {t!r} not covered by any component")
        if non_constant[t] and count != 1:
            raise AssertionError(
                f"non-constant task {t!r} appears in {count} components"
            )

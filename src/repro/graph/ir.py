"""Core task-graph IR: value nodes, task nodes and the bipartite graph.

The graph is bipartite in the ONNX sense: *tasks* (operators) consume and
produce *values* (tensors).  Shapes are stored with a canonical batch size
of 1; every value flags whether its leading dimension is the minibatch
dimension (``batched=True``), which lets the profiler scale activation
sizes and FLOPs linearly with the batch size actually being profiled.
Parameter and constant values are never batched.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

Shape = Tuple[int, ...]


#: bytes per element of each :class:`DataType` value
_ITEMSIZE = {"float32": 4, "float16": 2, "int64": 8, "bool": 1}


class DataType(enum.Enum):
    """Element types supported by the IR.

    Only the byte width matters to the cost and memory models, but keeping
    the distinction allows mixed-precision (AMP) experiments where
    activations are FP16 while master weights stay FP32.

    ``itemsize`` (bytes per element) and ``is_float`` (whether the
    working precision scales the tensor) are plain member attributes,
    set once when the enum is created: the profiler reads them for every
    value of a graph.
    """

    FLOAT32 = "float32"
    FLOAT16 = "float16"
    INT64 = "int64"
    BOOL = "bool"

    def __init__(self, value: str) -> None:
        self.itemsize: int = _ITEMSIZE[value]
        self.is_float: bool = value.startswith("float")


class ValueKind(enum.Enum):
    """Role of a value node in the model graph."""

    INPUT = "input"  # input to the entire model (e.g. token ids, images)
    PARAM = "param"  # trainable weight
    CONST = "const"  # non-trainable buffer / literal
    ACTIVATION = "activation"  # produced by some task
    OUTPUT = "output"  # a model output (also produced by a task)


@dataclass
class ValueNode:
    """A tensor value flowing through the graph.

    Attributes:
        name: unique identifier within the graph.
        shape: tensor shape at canonical batch size 1.
        dtype: element type.
        kind: role (input / param / const / activation / output).
        batched: whether ``shape[0]`` is the minibatch dimension and thus
            scales with the profiled batch size.
        producer: name of the task producing this value (``None`` for
            inputs, params and consts).
        consumers: names of tasks consuming this value.
    """

    name: str
    shape: Shape
    dtype: DataType = DataType.FLOAT32
    kind: ValueKind = ValueKind.ACTIVATION
    batched: bool = True
    producer: Optional[str] = None
    consumers: List[str] = field(default_factory=list)

    def numel(self, batch_size: int = 1) -> int:
        """Number of elements at the given batch size."""
        n = 1
        for d in self.shape:
            n *= d
        if self.batched:
            n *= batch_size
        return n

    def nbytes(self, batch_size: int = 1) -> int:
        """Size in bytes at the given batch size."""
        return self.numel(batch_size) * self.dtype.itemsize

    def is_leaf(self) -> bool:
        """True if not produced by any task (input / param / const)."""
        return self.producer is None


@dataclass
class TaskNode:
    """An operator instance.

    Attributes:
        name: unique identifier within the graph.
        op_type: operator name, must exist in :data:`repro.graph.ops.registry`.
        inputs: names of consumed values, positional.
        outputs: names of produced values, positional.
        attrs: operator attributes (e.g. conv stride).
    """

    name: str
    op_type: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    attrs: Dict[str, object] = field(default_factory=dict)


class TaskGraph:
    """A directed acyclic bipartite graph of tasks and values.

    Insertion order of tasks is preserved and is required to be a valid
    topological order (builders construct graphs that way; ``validate_graph``
    checks it).  This makes topological traversal free and deterministic.

    Besides the name-keyed dicts, the graph keeps integer ids and the
    task-value incidence in CSR (compressed sparse row) form, filled as
    :meth:`add_value` and :meth:`add_task` run: a value's id is its
    insertion index (``value_index``), a task's its position in
    ``tasks``.  Task ``t`` reads the value ids
    ``task_in[task_in_ptr[t]:task_in_ptr[t + 1]]`` and writes
    ``task_out[task_out_ptr[t]:task_out_ptr[t + 1]]``, both positional
    as the task lists them; ``value_producer[v]`` is the producing
    task's id (``-1`` for a leaf).  The profiler and the atomic
    partition read these columns instead of walking the dicts.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.values: Dict[str, ValueNode] = {}
        self.tasks: Dict[str, TaskNode] = {}
        self.input_names: List[str] = []
        self.output_names: List[str] = []
        self.value_index: Dict[str, int] = {}
        self.value_producer = array("q")
        self.task_in_ptr = array("q", [0])
        self.task_in = array("q")
        self.task_out_ptr = array("q", [0])
        self.task_out = array("q")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_value(self, value: ValueNode) -> ValueNode:
        """Register a value node (name must be unique)."""
        if value.name in self.values:
            raise ValueError(f"duplicate value name: {value.name!r}")
        self.value_index[value.name] = len(self.values)
        self.values[value.name] = value
        self.value_producer.append(-1)
        if value.kind is ValueKind.INPUT:
            self.input_names.append(value.name)
        return value

    def add_task(self, task: TaskNode) -> TaskNode:
        """Register a task; wires producer/consumer links on its values
        and appends its input and output value ids to the task CSR."""
        name = task.name
        if name in self.tasks:
            raise ValueError(f"duplicate task name: {name!r}")
        values = self.values
        for vname in task.inputs:
            if vname not in values:
                raise ValueError(
                    f"task {name!r} consumes unknown value {vname!r}"
                )
        for vname in task.outputs:
            if vname not in values:
                raise ValueError(
                    f"task {name!r} produces unknown value {vname!r}"
                )
            if values[vname].producer is not None:
                raise ValueError(f"value {vname!r} has two producers")
        outs = task.outputs
        if len(outs) > 1 and len(set(outs)) < len(outs):
            raise ValueError(f"task {name!r} produces a value twice")
        tid = len(self.tasks)
        self.tasks[name] = task
        index, task_in = self.value_index, self.task_in
        for vname in task.inputs:
            values[vname].consumers.append(name)
            task_in.append(index[vname])
        self.task_in_ptr.append(len(task_in))
        task_out, producer = self.task_out, self.value_producer
        for vname in outs:
            values[vname].producer = name
            vid = index[vname]
            producer[vid] = tid
            task_out.append(vid)
        self.task_out_ptr.append(len(task_out))
        return task

    def task_readers(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ptr, readers)``: the tasks reading task ``t``'s outputs are
        ``readers[ptr[t]:ptr[t + 1]]``, one entry per read, in task
        order."""
        n = len(self.tasks)
        reader = np.repeat(np.arange(n), np.diff(self.task_in_ptr))
        producer = np.array(self.value_producer, dtype=np.int64)[
            np.array(self.task_in, dtype=np.int64)
        ]
        order = np.argsort(producer, kind="stable")
        return (np.searchsorted(producer[order], np.arange(n + 1)),
                reader[order])

    def non_constant_flags(self) -> List[bool]:
        """Per task id: is the task *non-constant* (Sec. III-A)?

        A task is non-constant iff some input is a model input or the
        output of a non-constant task.  The walk finds the constant tasks
        instead: starting from the tasks that read neither a model input
        nor any task's output, a task becomes constant once every input
        it reads from a task has come from a constant one (Kahn's
        order).  Only the constant tasks are visited one by one;
        everything else is array work over the CSR."""
        n = len(self.tasks)
        ptr, readers = self.task_readers()
        seed = np.zeros(len(self.values), dtype=bool)
        seed[[self.value_index[v] for v in self.input_names
              if self.values[v].kind is ValueKind.INPUT]] = True
        blocked = np.zeros(n, dtype=bool)
        blocked[np.repeat(np.arange(n), np.diff(self.task_in_ptr))[
            seed[np.array(self.task_in, dtype=np.int64)]
        ]] = True
        pending = np.bincount(readers[ptr[0]:], minlength=n)
        queue = np.flatnonzero((pending == 0) & ~blocked).tolist()
        pending, blocked = pending.tolist(), blocked.tolist()
        ptr, readers = ptr.tolist(), readers.tolist()
        flags = [True] * n
        for t in queue:  # grows while it is walked
            flags[t] = False
            for r in readers[ptr[t]:ptr[t + 1]]:
                pending[r] -= 1
                if not pending[r] and not blocked[r]:
                    queue.append(r)
        return flags

    def mark_output(self, value_name: str) -> None:
        """Declare a value as a model output."""
        value = self.values[value_name]
        value.kind = ValueKind.OUTPUT
        if value_name not in self.output_names:
            self.output_names.append(value_name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> List[ValueNode]:
        """Model-input value nodes, in declaration order."""
        return [self.values[n] for n in self.input_names]

    @property
    def outputs(self) -> List[ValueNode]:
        """Declared output value nodes."""
        return [self.values[n] for n in self.output_names]

    def params(self) -> List[ValueNode]:
        """All trainable parameter values, in insertion order."""
        return [v for v in self.values.values() if v.kind is ValueKind.PARAM]

    def num_parameters(self) -> int:
        """Total number of trainable parameters (batch-independent)."""
        return sum(v.numel(1) for v in self.params())

    def producer_of(self, value_name: str) -> Optional[TaskNode]:
        """The task producing a value, or None for leaves."""
        producer = self.values[value_name].producer
        return self.tasks[producer] if producer is not None else None

    def consumers_of(self, value_name: str) -> List[TaskNode]:
        """All tasks consuming a value."""
        return [self.tasks[t] for t in self.values[value_name].consumers]

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskGraph({self.name!r}, tasks={len(self.tasks)}, "
            f"values={len(self.values)}, params={self.num_parameters():,})"
        )

    # ------------------------------------------------------------------
    # subgraph utilities (used heavily by the partitioner)
    # ------------------------------------------------------------------
    def boundary_values(
        self, task_names: Iterable[str]
    ) -> Tuple[List[str], List[str]]:
        """Input and output cut values of a set of tasks.

        Returns ``(in_values, out_values)``: values produced outside (or
        graph leaves) and consumed inside, and values produced inside that
        are consumed outside or are model outputs.
        """
        members = set(task_names)
        in_values: List[str] = []
        out_values: List[str] = []
        seen_in: set = set()
        seen_out: set = set()
        for tname in task_names:
            task = self.tasks[tname]
            for vname in task.inputs:
                producer = self.values[vname].producer
                if (producer is None or producer not in members) and (
                    vname not in seen_in
                ):
                    seen_in.add(vname)
                    in_values.append(vname)
            for vname in task.outputs:
                value = self.values[vname]
                external = any(c not in members for c in value.consumers)
                if (external or vname in self.output_names) and (
                    vname not in seen_out
                ):
                    seen_out.add(vname)
                    out_values.append(vname)
        return in_values, out_values

    def cut_bytes(
        self, task_names: Iterable[str], batch_size: int = 1
    ) -> Tuple[int, int]:
        """Bytes entering / leaving a set of tasks at the given batch size.

        Only *batched activation* traffic is counted: parameters and
        constants live on the device that owns the subcomponent and are
        never transferred per-iteration.
        """
        in_values, out_values = self.boundary_values(task_names)
        in_bytes = sum(
            self.values[v].nbytes(batch_size)
            for v in in_values
            if self.values[v].kind in (ValueKind.ACTIVATION, ValueKind.INPUT, ValueKind.OUTPUT)
        )
        out_bytes = sum(
            self.values[v].nbytes(batch_size) for v in out_values
        )
        return in_bytes, out_bytes

    def extract_subgraph(
        self, task_names: Sequence[str], name: Optional[str] = None
    ) -> "TaskGraph":
        """Materialize a standalone :class:`TaskGraph` for a task subset.

        Boundary input values become graph inputs (keeping their original
        kind for params/consts); boundary outputs become graph outputs.
        Task order follows this graph's topological order.
        """
        members = set(task_names)
        sub = TaskGraph(name or f"{self.name}.sub")
        order = [t for t in self.tasks if t in members]
        needed: List[str] = []
        seen: set = set()
        for tname in order:
            task = self.tasks[tname]
            for vname in task.inputs + task.outputs:
                if vname not in seen:
                    seen.add(vname)
                    needed.append(vname)
        for vname in needed:
            orig = self.values[vname]
            producer = orig.producer
            inside = producer is not None and producer in members
            if inside:
                kind = ValueKind.ACTIVATION
            elif orig.kind in (ValueKind.PARAM, ValueKind.CONST):
                kind = orig.kind
            else:
                kind = ValueKind.INPUT
            sub.add_value(
                ValueNode(
                    name=vname,
                    shape=orig.shape,
                    dtype=orig.dtype,
                    kind=kind,
                    batched=orig.batched,
                )
            )
        for tname in order:
            task = self.tasks[tname]
            sub.add_task(
                TaskNode(
                    name=task.name,
                    op_type=task.op_type,
                    inputs=list(task.inputs),
                    outputs=list(task.outputs),
                    attrs=dict(task.attrs),
                )
            )
        _, out_values = self.boundary_values(order)
        for vname in out_values:
            sub.mark_output(vname)
        return sub

    def iter_edges(self) -> Iterator[Tuple[str, str]]:
        """Directed task-to-task edges induced by shared values."""
        for value in self.values.values():
            if value.producer is None:
                continue
            for consumer in value.consumers:
                yield value.producer, consumer

    def total_flops(self, batch_size: int = 1) -> float:
        """Forward-pass FLOPs of the whole graph (delegates to op registry)."""
        from repro.graph.ops import registry

        return sum(
            registry.flops(task, self, batch_size) for task in self.tasks.values()
        )

    def parameter_bytes(self) -> int:
        return sum(v.nbytes(1) for v in self.params())


def human_size(num_bytes: float) -> str:
    """Render a byte count as a human-readable string (for reports)."""
    if num_bytes <= 0:
        return "0 B"
    units = ["B", "KiB", "MiB", "GiB", "TiB"]
    idx = min(int(math.log(num_bytes, 1024)), len(units) - 1)
    return f"{num_bytes / 1024 ** idx:.2f} {units[idx]}"

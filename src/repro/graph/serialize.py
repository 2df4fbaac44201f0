"""JSON (de)serialization of task graphs.

Round-tripping a traced model through JSON is how partition plans and
model graphs can be cached between runs -- RaNNC similarly caches
partitioning results ("deployments") on disk so repeated launches skip the
search.
"""

from __future__ import annotations

import json
from typing import Any, Dict

import numpy as np

from repro.graph.ir import DataType, TaskGraph, TaskNode, ValueKind, ValueNode


def _canon_attr_json(value: Any, task: str, key: str) -> Any:
    """JSON form of one attr value; rejects non-serializable types.

    Sequences are emitted as lists (JSON has no tuple);
    :func:`_canon_attr_runtime` turns them back into tuples, so a
    serialize/restore round trip is idempotent instead of silently
    swapping tuple-valued attrs (strides, shapes) for lists.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_canon_attr_json(v, task, key) for v in value]
    if isinstance(value, dict):
        for k in value:
            if not isinstance(k, str):
                raise TypeError(
                    f"task {task!r} attr {key!r}: dict key {k!r} is not a "
                    f"string, cannot serialize to JSON"
                )
        return {k: _canon_attr_json(v, task, key) for k, v in value.items()}
    raise TypeError(
        f"task {task!r} attr {key!r} has non-JSON-serializable type "
        f"{type(value).__name__}; allowed: None, bool, int, float, str, "
        f"list/tuple, dict (str keys)"
    )


def _canon_attr_runtime(value: Any) -> Any:
    """Runtime form of a JSON attr value: sequences become tuples (the
    canonical in-memory form the tracer produces)."""
    if isinstance(value, list):
        return tuple(_canon_attr_runtime(v) for v in value)
    if isinstance(value, dict):
        return {k: _canon_attr_runtime(v) for k, v in value.items()}
    return value


def canonical_json(doc: Any) -> str:
    """Deterministic JSON text for hashing: sorted keys, no whitespace
    variance, NumPy scalars coerced to plain Python.

    Content fingerprints throughout the repo (graph fingerprints, the
    planner's facet/artifact fingerprints) hash this form so the same
    logical content always produces the same digest."""

    def _default(value: Any) -> Any:
        if isinstance(value, (np.bool_,)):
            return bool(value)
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        raise TypeError(
            f"cannot canonicalize {type(value).__name__} for hashing"
        )

    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), default=_default
    )


def graph_to_json(graph: TaskGraph) -> str:
    """Serialize a graph to a JSON string (deterministic key order)."""
    doc: Dict[str, Any] = {
        "name": graph.name,
        "values": [
            {
                "name": v.name,
                "shape": list(v.shape),
                "dtype": v.dtype.value,
                "kind": v.kind.value,
                "batched": v.batched,
            }
            for v in graph.values.values()
        ],
        "tasks": [
            {
                "name": t.name,
                "op_type": t.op_type,
                "inputs": list(t.inputs),
                "outputs": list(t.outputs),
                "attrs": {
                    k: _canon_attr_json(v, t.name, k)
                    for k, v in t.attrs.items()
                },
            }
            for t in graph.tasks.values()
        ],
        "outputs": list(graph.output_names),
    }
    return json.dumps(doc, sort_keys=True)


def graph_from_json(text: str) -> TaskGraph:
    """Deserialize a graph previously produced by :func:`graph_to_json`."""
    doc = json.loads(text)
    graph = TaskGraph(doc["name"])
    for vdoc in doc["values"]:
        graph.add_value(
            ValueNode(
                name=vdoc["name"],
                shape=tuple(vdoc["shape"]),
                dtype=DataType(vdoc["dtype"]),
                kind=ValueKind(vdoc["kind"]),
                batched=vdoc["batched"],
            )
        )
    for tdoc in doc["tasks"]:
        graph.add_task(
            TaskNode(
                name=tdoc["name"],
                op_type=tdoc["op_type"],
                inputs=list(tdoc["inputs"]),
                outputs=list(tdoc["outputs"]),
                attrs={
                    k: _canon_attr_runtime(v)
                    for k, v in tdoc["attrs"].items()
                },
            )
        )
    for oname in doc["outputs"]:
        graph.mark_output(oname)
    return graph

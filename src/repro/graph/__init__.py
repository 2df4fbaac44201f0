"""ONNX-style task-graph intermediate representation.

The paper converts a model "to a task graph in the manner of the ONNX
format, where there are two types of nodes: tasks and values" (Sec. III-A).
This subpackage provides that IR plus every graph utility the partitioner
needs: shape inference, FLOP/byte accounting per operator, topological
ordering, reachability, convexity checks, subgraph extraction and merging,
a tracing builder, structural validation and JSON serialization.
"""

from repro.graph.ir import (
    DataType,
    TaskGraph,
    TaskNode,
    ValueKind,
    ValueNode,
)
from repro.graph.ops import OpSpec, registry
from repro.graph.builder import GraphBuilder
from repro.graph.traversal import (
    ancestors,
    descendants,
    is_convex,
    task_predecessors,
    task_successors,
    topo_sort_tasks,
)
from repro.graph.validate import GraphValidationError, validate_graph
from repro.graph.serialize import graph_from_json, graph_to_json

__all__ = [
    "DataType",
    "GraphBuilder",
    "GraphValidationError",
    "OpSpec",
    "TaskGraph",
    "TaskNode",
    "ValueKind",
    "ValueNode",
    "ancestors",
    "descendants",
    "graph_from_json",
    "graph_to_json",
    "is_convex",
    "registry",
    "task_predecessors",
    "task_successors",
    "topo_sort_tasks",
    "validate_graph",
]

"""Wire protocol of the plan service: request schemas, error codes.

Every request body is a JSON object; every response body is an envelope

``{"ok": true,  "result": {...}}`` or
``{"ok": false, "error": {"code": "...", "message": "...", ...}}``.

The request side of the protocol is *normalized* here, away from any
transport: :func:`normalize_plan_request` turns a raw ``plan`` /
``replan`` / ``simulate`` params object into a :class:`PlanRequest`
carrying the built graph, cluster and :class:`PlannerConfig`, plus the
request *key* -- the store address of the plan those inputs determine
(:func:`request_key`) -- that keys coalescing.  The engine
(:mod:`repro.service.engine`) never re-parses JSON, and the HTTP front
end (:mod:`repro.service.server`) never builds graphs.

See ``docs/SERVICE.md`` for the endpoint-by-endpoint reference with
request/response examples and the full error-code table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.graph.ir import TaskGraph
from repro.hardware import paper_cluster
from repro.hardware.cluster import ClusterSpec
from repro.hardware.device import Precision
from repro.partitioner.deployment import graph_fingerprint
from repro.planner import default_passes
from repro.planner.context import PlannerConfig
from repro.planner.facets import compute_facets, fingerprint_chain, plan_address

#: named model presets (also accepted by the CLI's ``--model``)
MODEL_PRESETS = (
    "bert-base",
    "bert-large",
    "gpt-tiny",
    "gpt-small",
    "gpt-medium",
)

#: gpt preset name -> GPTConfig keyword arguments (gpt-small is GPT-2
#: small, i.e. the GPTConfig defaults)
GPT_PRESETS = {
    "gpt-tiny": dict(
        hidden_size=256, num_layers=4, num_heads=4,
        seq_len=256, vocab_size=8192,
    ),
    "gpt-small": dict(),
    "gpt-medium": dict(hidden_size=1024, num_layers=24, num_heads=16),
}

#: cluster presets -> number of 8-V100 nodes
CLUSTER_PRESETS = {"v100x8": 1, "v100x16": 2, "v100x32": 4}

#: machine-readable error codes -> HTTP status
ERROR_STATUS = {
    "bad_request": 400,
    "not_found": 404,
    "no_base": 409,
    "infeasible": 422,
    "verification_failed": 422,
    "shutting_down": 503,
    "internal": 500,
}


class ServiceError(Exception):
    """A protocol-level failure with a machine-readable ``code``.

    ``code`` must be a key of :data:`ERROR_STATUS`; ``detail`` (optional)
    is attached to the error object verbatim.
    """

    def __init__(
        self,
        code: str,
        message: str,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.detail = dict(detail or {})

    @property
    def status(self) -> int:
        return ERROR_STATUS[self.code]

    def as_error_doc(self) -> Dict[str, Any]:
        doc = {"code": self.code, "message": str(self)}
        if self.detail:
            doc.update(self.detail)
        return doc


@dataclass(frozen=True)
class PlanRequest:
    """A normalized ``plan``/``replan``/``simulate`` request.

    ``key`` is the store address of the finished plan (see
    :func:`request_key`): requests with equal keys have the same
    effective inputs and produce byte-identical plans, so concurrent
    duplicates may share one pipeline run.  ``model_key`` identifies the
    model *family* (graph content only); it scopes the per-model
    single-writer lock and the ``replan`` base check.
    """

    graph: TaskGraph
    cluster: ClusterSpec
    config: PlannerConfig
    key: str
    model_key: str
    model_spec: str
    cluster_spec: str


def _expect_object(doc: Any, what: str) -> Dict[str, Any]:
    if not isinstance(doc, dict):
        raise ServiceError("bad_request", f"{what} must be a JSON object")
    return doc


def build_model(spec: Any) -> Tuple[TaskGraph, str]:
    """Build the task graph for a request's ``model`` object.

    Accepted shapes::

        {"preset": "bert-base" | "bert-large" | "gpt-tiny" |
                   "gpt-small" | "gpt-medium"}
        {"family": "bert" | "gpt", "hidden": 768, "layers": 12,
         "heads": 12}                        # heads optional for gpt
        {"family": "resnet", "depth": 50, "width_factor": 8}
        {"family": "mlp", "widths": [64, 128, 10]}

    Returns the graph plus the canonical spec string used in cache keys.
    """
    from repro.models import (
        BertConfig,
        GPTConfig,
        ResNetConfig,
        build_bert,
        build_gpt,
        build_resnet,
    )
    from repro.models.mlp import build_mlp

    spec = _expect_object(spec, "model")
    canonical = json.dumps(spec, sort_keys=True)
    preset = spec.get("preset")
    if preset is not None:
        if preset == "bert-base":
            return (
                build_bert(
                    BertConfig(hidden_size=768, num_layers=12, num_heads=12)
                ),
                canonical,
            )
        if preset == "bert-large":
            return build_bert(BertConfig()), canonical
        if preset in GPT_PRESETS:
            return build_gpt(GPTConfig(**GPT_PRESETS[preset])), canonical
        raise ServiceError(
            "bad_request",
            f"unknown model preset {preset!r}; "
            f"expected one of {MODEL_PRESETS}",
        )
    family = spec.get("family")
    try:
        if family == "bert":
            cfg = BertConfig(
                hidden_size=int(spec.get("hidden", 1024)),
                num_layers=int(spec.get("layers", 24)),
                num_heads=int(spec.get("heads", 16)),
            )
            return build_bert(cfg), canonical
        if family == "gpt":
            hidden = int(spec.get("hidden", 768))
            kwargs = {
                "hidden_size": hidden,
                "num_layers": int(spec.get("layers", 12)),
                # heads must divide hidden; default to 64-wide heads
                "num_heads": int(spec.get("heads", max(1, hidden // 64))),
            }
            return build_gpt(GPTConfig(**kwargs)), canonical
        if family == "resnet":
            cfg = ResNetConfig(
                depth=int(spec.get("depth", 50)),
                width_factor=int(spec.get("width_factor", 1)),
            )
            return build_resnet(cfg), canonical
        if family == "mlp":
            widths = spec.get("widths", (64, 128, 128, 64, 10))
            return build_mlp([int(w) for w in widths]), canonical
    except ServiceError:
        raise
    except (TypeError, ValueError) as exc:
        raise ServiceError(
            "bad_request", f"invalid model spec: {exc}"
        ) from exc
    raise ServiceError(
        "bad_request",
        f"model needs a 'preset' ({'/'.join(MODEL_PRESETS)}) or a "
        f"'family' (bert/gpt/resnet/mlp), got {spec!r}",
    )


#: device names accepted in heterogeneous class specs
DEVICE_PRESETS = ("v100", "a100")


def _build_hetero_cluster(spec: Dict[str, Any]) -> ClusterSpec:
    """A heterogeneous cluster from a ``classes`` list, e.g.::

        {"classes": [
            {"name": "fast", "device": "a100", "nodes": 2,
             "devices_per_node": 8},
            {"name": "slow", "device": "v100", "nodes": 2,
             "devices_per_node": 8, "straggler_factor": 1.3,
             "memory_gb": 16},
        ]}
    """
    import dataclasses as _dc

    from repro.hardware import A100, V100
    from repro.hardware.cluster import DeviceClass

    devices = {"v100": V100, "a100": A100}
    classes = []
    for i, doc in enumerate(spec["classes"]):
        doc = _expect_object(doc, f"classes[{i}]")
        device_name = str(doc.get("device", "v100")).lower()
        if device_name not in devices:
            raise ServiceError(
                "bad_request",
                f"unknown device {device_name!r}; "
                f"expected one of {DEVICE_PRESETS}",
            )
        device = devices[device_name]
        if "memory_gb" in doc:
            device = _dc.replace(
                device, memory_bytes=float(doc["memory_gb"]) * 2**30
            )
        classes.append(
            DeviceClass(
                name=str(doc.get("name", f"class{i}")),
                device=device,
                num_nodes=int(doc.get("nodes", 1)),
                devices_per_node=int(doc.get("devices_per_node", 8)),
                straggler_factor=float(doc.get("straggler_factor", 1.0)),
            )
        )
    if not classes:
        raise ServiceError("bad_request", "'classes' must be non-empty")
    base = paper_cluster(1)
    return _dc.replace(
        base,
        num_nodes=sum(c.num_nodes for c in classes),
        devices_per_node=max(c.devices_per_node for c in classes),
        device=classes[0].device,
        comm_model="flat",
        device_classes=tuple(classes),
    )


def build_cluster(spec: Any) -> Tuple[ClusterSpec, str]:
    """Build the cluster for a request's ``cluster`` object.

    Accepted shapes::

        {"preset": "v100x8" | "v100x16" | "v100x32"}
        {"nodes": 2}                        # 2 x 8 V100, paper testbed
        {"nodes": 2, "nvlink_degree": 2, "nic_count": 2}
        {"classes": [{"name": "fast", "device": "a100", "nodes": 2,
                      "devices_per_node": 8}, ...]}   # heterogeneous

    Every shape takes a ``comm_model`` (``"flat"``, the default, or
    ``"topology"``; see :mod:`repro.comm`): the cluster is the one owner
    of the communication cost model.  A heterogeneous cluster must stay
    flat.
    """
    spec = _expect_object(spec, "cluster")
    canonical = json.dumps(spec, sort_keys=True)
    try:
        if "classes" in spec:
            cluster = _build_hetero_cluster(spec)
        elif spec.get("preset") is not None:
            preset = spec["preset"]
            if preset not in CLUSTER_PRESETS:
                raise ServiceError(
                    "bad_request",
                    f"unknown cluster preset {preset!r}; "
                    f"expected one of {sorted(CLUSTER_PRESETS)}",
                )
            cluster = paper_cluster(CLUSTER_PRESETS[preset])
        elif spec.get("nodes") is not None:
            cluster = paper_cluster(
                num_nodes=int(spec["nodes"]),
                nvlink_degree=spec.get("nvlink_degree"),
                nic_count=int(spec.get("nic_count", 1)),
            )
        else:
            raise ServiceError(
                "bad_request",
                "cluster needs a 'preset' (v100x8/v100x16/v100x32) or "
                "'nodes' (number of 8-V100 nodes)",
            )
        if "comm_model" in spec:
            cluster = cluster.with_comm_model(spec["comm_model"])
    except (TypeError, ValueError) as exc:
        raise ServiceError(
            "bad_request", f"invalid cluster spec: {exc}"
        ) from exc
    return cluster, canonical


#: request option name -> PlannerConfig field it maps onto
OPTION_FIELDS = {
    "blocks": "num_blocks",
    "amp": "precision",
    "max_microbatches": "max_microbatches",
    "memory_budget_gb": "memory_budget",
    "mode": "mode",
}


def _is_json_int(value: Any) -> bool:
    """A JSON integer: ``true``/``false`` parse as Python bools, which
    are ints too, and are not accepted."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_float(value: Any) -> Optional[float]:
    """``value`` as a float when it is a finite JSON number, else
    ``None`` (``NaN``/``Infinity`` parse as floats, huge integers
    overflow one)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def build_config(params: Dict[str, Any]) -> PlannerConfig:
    """The :class:`PlannerConfig` for one request.

    ``batch_size`` is required; everything else comes from the optional
    ``options`` object (see :data:`OPTION_FIELDS`).  ``batch_size``,
    ``blocks`` and ``max_microbatches`` must be JSON integers and
    ``memory_budget_gb`` a finite JSON number; :class:`PlannerConfig`
    checks their ranges.  ``verify`` is
    always on: the service's contract is that every served plan passed
    :mod:`repro.verify`.
    """
    batch_size = params.get("batch_size")
    if not _is_json_int(batch_size) or batch_size < 1:
        raise ServiceError(
            "bad_request", "batch_size must be a positive integer"
        )
    options = _expect_object(params.get("options", {}), "options")
    unknown = sorted(set(options) - set(OPTION_FIELDS))
    if unknown:
        raise ServiceError(
            "bad_request",
            f"unknown options {unknown}; "
            f"supported: {sorted(OPTION_FIELDS)}",
        )
    for name in ("blocks", "max_microbatches"):
        if name in options and not _is_json_int(options[name]):
            raise ServiceError(
                "bad_request", f"option {name!r} must be an integer"
            )
    budget = None
    if "memory_budget_gb" in options:
        budget = _finite_float(options["memory_budget_gb"])
        if budget is None:
            raise ServiceError(
                "bad_request",
                "option 'memory_budget_gb' must be a finite number",
            )
    kwargs: Dict[str, Any] = {"batch_size": batch_size, "verify": True}
    if options.get("amp"):
        kwargs["precision"] = Precision.AMP
    if "blocks" in options:
        kwargs["num_blocks"] = options["blocks"]
    if "max_microbatches" in options:
        kwargs["max_microbatches"] = options["max_microbatches"]
    if budget is not None:
        kwargs["memory_budget"] = budget * 2**30
    if "mode" in options:
        kwargs["mode"] = options["mode"]
    try:
        return PlannerConfig(**kwargs)
    except ValueError as exc:
        raise ServiceError("bad_request", str(exc)) from exc


def normalize_plan_request(
    params: Any,
    *,
    graph_cache: Optional[Any] = None,
    build_graph: bool = True,
) -> Optional[PlanRequest]:
    """Validate raw ``plan``/``replan``/``simulate`` params into a
    :class:`PlanRequest`.

    ``graph_cache`` (canonical model spec -> built graph; anything with
    a dict's ``get`` and item assignment) makes repeated requests skip
    the graph build; graphs are immutable, so sharing them across
    requests is safe and keeps the fingerprint memo warm.  With
    ``build_graph`` off a graph missing from the cache is not built:
    the call returns ``None`` once the params object and its model spec
    have been checked.
    """
    params = _expect_object(params, "params")
    model_spec = params.get("model")
    if model_spec is None:
        raise ServiceError("bad_request", "missing 'model'")
    cluster_spec = params.get("cluster")
    if cluster_spec is None:
        raise ServiceError("bad_request", "missing 'cluster'")
    canonical_model = json.dumps(
        _expect_object(model_spec, "model"), sort_keys=True
    )
    graph = None
    if graph_cache is not None:
        graph = graph_cache.get(canonical_model)
    if graph is None:
        if not build_graph:
            return None
        graph, canonical_model = build_model(model_spec)
        if graph_cache is not None:
            graph_cache[canonical_model] = graph
    cluster, canonical_cluster = build_cluster(cluster_spec)
    config = build_config(params)
    return PlanRequest(
        graph=graph,
        cluster=cluster,
        config=config,
        key=request_key(graph, cluster, config),
        model_key=graph_fingerprint(graph),
        model_spec=canonical_model,
        cluster_spec=canonical_cluster,
    )


def request_key(
    graph: TaskGraph, cluster: ClusterSpec, config: PlannerConfig
) -> str:
    """The store address of the plan these inputs determine: the
    default pipeline's ``evaluate`` input fingerprint
    (:func:`~repro.planner.facets.plan_address`), the address the pass
    manager probes.  Requests whose inputs agree share it."""
    passes = default_passes()
    facets = compute_facets(graph, cluster, config)
    fps = fingerprint_chain(passes, facets, {}, feeds=lambda p: True)
    return plan_address(passes, fps)[1]


#: event type names accepted by ``parse_event`` / ``POST /v1/repair``
EVENT_TYPES = ("node_loss", "preemption", "scale_up")


def parse_event(spec: Any):
    """A :class:`~repro.planner.repair.ClusterEvent` from a request's
    ``event`` object.

    Accepted shapes::

        {"type": "node_loss",  "node_index": 1}
        {"type": "preemption", "node_index": 0}
        {"type": "scale_up",   "extra_nodes": 2, "class_name": "fast"}
    """
    from repro.planner.repair import NodeLoss, Preemption, ScaleUp

    spec = _expect_object(spec, "event")
    kind = spec.get("type")
    try:
        if kind == "node_loss":
            return NodeLoss(node_index=int(spec["node_index"]))
        if kind == "preemption":
            return Preemption(node_index=int(spec["node_index"]))
        if kind == "scale_up":
            return ScaleUp(
                extra_nodes=int(spec.get("extra_nodes", 1)),
                class_name=spec.get("class_name"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(
            "bad_request", f"invalid event spec: {exc}"
        ) from exc
    raise ServiceError(
        "bad_request",
        f"event needs a 'type' (one of {'/'.join(EVENT_TYPES)}), "
        f"got {spec!r}",
    )


@dataclass(frozen=True)
class RawJSON:
    """JSON text that goes into a response as it stands: a plan's
    deployment document, encoded once and never parsed to be encoded
    again (see :func:`encode_body`).  ``json.dumps`` refuses it, so it
    cannot be written as a quoted string by mistake."""

    text: str


def ok_envelope(result: Dict[str, Any]) -> Dict[str, Any]:
    return {"ok": True, "result": result}


def encode_body(envelope: Dict[str, Any]) -> bytes:
    """The JSON bytes of a response envelope.  A result's :class:`RawJSON`
    ``plan`` is written as its text, so the bytes equal
    ``json.dumps`` of the envelope with the plan parsed."""
    result = envelope.get("result")
    if not (isinstance(result, dict) and isinstance(result.get("plan"), RawJSON)):
        return json.dumps(envelope).encode()
    fields = ", ".join(
        f"{json.dumps(k)}: {v.text if isinstance(v, RawJSON) else json.dumps(v)}"
        for k, v in result.items()
    )
    return f'{{"ok": true, "result": {{{fields}}}}}'.encode()


def error_envelope(exc: ServiceError) -> Dict[str, Any]:
    return {"ok": False, "error": exc.as_error_doc()}

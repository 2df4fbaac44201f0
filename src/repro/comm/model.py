"""Swappable communication cost models behind one shared API.

Two tiers of API, one namespace:

*Legacy tier* -- ``p2p_time(nbytes, same_node)`` and
``allreduce_time(nbytes, n_ranks, spans_nodes)`` mirror the historical
``ClusterSpec`` methods, which now delegate here.  Under
:class:`FlatCommModel` (the default) these are the verbatim legacy
closed forms, so ``comm_model="flat"`` is bit-for-bit identical to
pre-subsystem behaviour.  ``p2p_affine`` exposes the ``(latency,
bandwidth)`` pair those closed forms use, so vectorized planner code
(the stage-cost kernel ``DPContext._range_costs``) can stay exact while
being model-aware.

*Rank-aware tier* -- ``rank_p2p_time(src, dst, nbytes)`` and
``allreduce(nbytes, ranks)`` take actual device ranks and, under
:class:`TopologyCommModel`, derive costs from the links the transfer
really crosses, including automatic cheapest-allreduce-algorithm
selection (the chosen algorithm is reported on the returned
:class:`~repro.comm.collectives.CollectiveCost`).

Models are constructed through :func:`comm_model_for`, an lru-cached
factory keyed by the (frozen, hashable) :class:`ClusterSpec`, so the
topology graph is built once per distinct cluster.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from repro.comm.collectives import CollectiveCost, allreduce_cost
from repro.comm.topology import NetworkTopology
from repro.hardware.cluster import ClusterSpec

__all__ = [
    "COMM_MODELS",
    "CommModel",
    "FlatCommModel",
    "TopologyCommModel",
    "boundary_internode",
    "comm_model_for",
    "stage_boundary_p2p_times",
]

#: recognised values of ``ClusterSpec.comm_model`` / ``--comm-model``
COMM_MODELS = ("flat", "topology")


class CommModel:
    """Base communication model over one cluster."""

    name = "base"

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster

    # -- legacy tier ---------------------------------------------------
    def p2p_affine(self, same_node: bool = True) -> Tuple[float, float]:
        """``(latency, bandwidth)`` of the affine p2p cost
        ``latency + nbytes / bandwidth`` for this tier."""
        raise NotImplementedError

    def p2p_time(self, nbytes: float, same_node: bool = True) -> float:
        """Point-to-point transfer time between two devices."""
        lat, bw = self.p2p_affine(same_node)
        return lat + nbytes / bw

    def allreduce_time(self, nbytes: float, n_ranks: int,
                       spans_nodes: bool = True) -> float:
        """Allreduce time over ``n_ranks`` replicas (rank-agnostic)."""
        raise NotImplementedError

    # -- rank-aware tier -----------------------------------------------
    def rank_p2p_time(self, src_rank: int, dst_rank: int, nbytes: float) -> float:
        """Transfer time between two concrete device ranks."""
        if src_rank == dst_rank or nbytes <= 0:
            return 0.0
        cl = self.cluster
        return self.p2p_time(
            nbytes, same_node=cl.node_of(src_rank) == cl.node_of(dst_rank)
        )

    def allreduce(self, nbytes: float, ranks: Sequence[int]) -> CollectiveCost:
        """Allreduce cost over a concrete rank group, reporting the
        algorithm the cost assumes."""
        raise NotImplementedError


class FlatCommModel(CommModel):
    """The legacy two-scalar-bandwidth model, expression for expression.

    ``p2p_time``/``allreduce_time`` reproduce the historical
    ``ClusterSpec`` arithmetic verbatim -- this class is the reason
    ``comm_model="flat"`` is bit-identical to pre-subsystem planners.
    """

    name = "flat"

    def p2p_affine(self, same_node: bool = True) -> Tuple[float, float]:
        cl = self.cluster
        bw = cl.intra_node_bandwidth if same_node else cl.inter_node_bandwidth
        return cl.comm_latency, bw

    def allreduce_time(self, nbytes: float, n_ranks: int,
                       spans_nodes: bool = True) -> float:
        cl = self.cluster
        if n_ranks <= 1:
            return 0.0
        bw = cl.inter_node_bandwidth if spans_nodes else cl.intra_node_bandwidth
        return cl.comm_latency * 2 * (n_ranks - 1) + (
            2.0 * (n_ranks - 1) / n_ranks
        ) * nbytes / bw

    def allreduce(self, nbytes: float, ranks: Sequence[int]) -> CollectiveCost:
        group = sorted(set(ranks))
        n = len(group)
        cl = self.cluster
        spans = len({cl.node_of(r) for r in group}) > 1
        return CollectiveCost(
            op="allreduce",
            algorithm="ring",
            time=self.allreduce_time(nbytes, n, spans_nodes=spans),
            nbytes=nbytes,
            n_ranks=n,
        )


class TopologyCommModel(CommModel):
    """Costs derived from the explicit link-level topology.

    The legacy-tier methods keep their rank-agnostic signatures by
    costing *representative* rank groups: ``same_node`` picks two
    NVLink-adjacent local ranks, ``spans_nodes`` spreads the group
    round-robin across nodes (the worst placement the flat model
    assumes).  When a representative group cannot be formed on this
    cluster (more ranks than devices, a spanning group on one node),
    the flat closed form is used so estimates degrade conservatively
    rather than crash.
    """

    name = "topology"

    def __init__(self, cluster: ClusterSpec) -> None:
        super().__init__(cluster)
        self.topology = NetworkTopology(cluster)
        self._flat = FlatCommModel(cluster)
        self._groups: Dict[Tuple[int, bool], Optional[Tuple[int, ...]]] = {}

    def p2p_affine(self, same_node: bool = True) -> Tuple[float, float]:
        cl = self.cluster
        if same_node:
            if cl.devices_per_node < 2:
                return self._flat.p2p_affine(same_node=True)
            bw = self.topology.route(0, 1).bottleneck_bandwidth
        else:
            if cl.num_nodes < 2:
                return self._flat.p2p_affine(same_node=False)
            bw = self.topology.route(0, cl.devices_per_node).bottleneck_bandwidth
        return cl.comm_latency, bw

    def rank_p2p_time(self, src_rank: int, dst_rank: int, nbytes: float) -> float:
        return self.topology.p2p_time(src_rank, dst_rank, nbytes)

    def _representative_group(
        self, n_ranks: int, spans_nodes: bool
    ) -> Optional[Tuple[int, ...]]:
        """A concrete rank group realizing the rank-agnostic query, or
        ``None`` when this cluster cannot host one."""
        key = (n_ranks, spans_nodes)
        if key in self._groups:
            return self._groups[key]
        cl = self.cluster
        group: Optional[Tuple[int, ...]]
        if n_ranks > cl.total_devices:
            group = None
        elif spans_nodes:
            if cl.num_nodes < 2:
                group = None
            else:
                # round-robin over nodes: maximal node spread, the
                # placement the flat model's inter-node rate assumes
                group = tuple(
                    (i % cl.num_nodes) * cl.devices_per_node + i // cl.num_nodes
                    for i in range(n_ranks)
                )
        else:
            if n_ranks > cl.devices_per_node:
                group = None
            else:
                group = tuple(range(n_ranks))
        self._groups[key] = group
        return group

    def allreduce_time(self, nbytes: float, n_ranks: int,
                       spans_nodes: bool = True) -> float:
        if n_ranks <= 1:
            return 0.0
        group = self._representative_group(n_ranks, spans_nodes)
        if group is None:
            return self._flat.allreduce_time(nbytes, n_ranks, spans_nodes)
        return allreduce_cost(self.topology, group, nbytes).time

    def allreduce(self, nbytes: float, ranks: Sequence[int]) -> CollectiveCost:
        return allreduce_cost(self.topology, sorted(set(ranks)), nbytes)


@lru_cache(maxsize=64)
def comm_model_for(cluster: ClusterSpec) -> CommModel:
    """The communication model a cluster asks for via its
    ``comm_model`` field (cached per distinct cluster spec)."""
    if cluster.comm_model == "flat":
        return FlatCommModel(cluster)
    if cluster.comm_model == "topology":
        return TopologyCommModel(cluster)
    raise ValueError(
        f"unknown comm_model {cluster.comm_model!r} (known: {COMM_MODELS})"
    )


def boundary_internode(
    cluster: ClusterSpec,
    device_counts: Sequence[int],
    replica_factor: int,
    boundary: int,
) -> bool:
    """Whether the boundary after stage ``boundary`` crosses a node
    boundary for *any* pipeline replica, under the standard contiguous
    rank allocation (``allocate_devices``).

    The worst replica gates iteration time, so baselines charge the
    inter-node rate as soon as one replica's crossing is inter-node.
    """
    D = sum(device_counts)
    prefix = sum(device_counts[: boundary + 1])
    if prefix >= D:
        return False
    for r in range(replica_factor):
        last = r * D + prefix - 1
        first = r * D + prefix
        if cluster.node_of(last) != cluster.node_of(first):
            return True
    return False


def stage_boundary_p2p_times(
    cluster: ClusterSpec,
    device_counts: Sequence[int],
    replica_factor: int,
    stage: int,
    out_bytes: float,
    in_bytes: float,
) -> Tuple[float, float]:
    """``(send, recv)`` p2p times for one pipeline stage, charging each
    boundary at the interconnect tier it actually crosses.

    ``send`` prices ``out_bytes`` over the boundary after ``stage``;
    ``recv`` prices ``in_bytes`` (the backward gradient) over the
    boundary before it.  A boundary that straddles a node boundary for
    any replica pays the inter-node rate -- the fix for baselines that
    historically charged every boundary at the NVLink rate.  The edges
    of the pipeline (stage 0's input, the last stage's output) keep the
    same-node rate, matching the legacy convention for data loading and
    loss outputs.
    """
    send = 0.0
    if out_bytes:
        send = cluster.p2p_time(
            out_bytes,
            same_node=not boundary_internode(
                cluster, device_counts, replica_factor, stage
            ),
        )
    recv = 0.0
    if in_bytes:
        same = True
        if stage > 0:
            same = not boundary_internode(
                cluster, device_counts, replica_factor, stage - 1
            )
        recv = cluster.p2p_time(in_bytes, same_node=same)
    return send, recv

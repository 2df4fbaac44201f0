"""Cluster topology: nodes, devices and interconnect bandwidths."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.hardware.device import DeviceSpec, Precision

#: recognised communication models (mirrors ``repro.comm.COMM_MODELS``;
#: duplicated literally to keep this module import-light)
_COMM_MODELS = ("flat", "topology")


@dataclass(frozen=True)
class DeviceClass:
    """One homogeneous slice of a heterogeneous cluster.

    A device class is ``num_nodes`` identical nodes, each carrying
    ``devices_per_node`` devices of one :class:`DeviceSpec` -- e.g. "two
    8-V100 nodes" next to "one 4-A100 node".  ``straggler_factor``
    models a class that runs slower than its spec sheet (thermal
    throttling, noisy neighbours): every stage time on the class is
    multiplied by it, so ``1.0`` is nominal and ``1.25`` is 25% slow.
    """

    name: str
    device: DeviceSpec
    num_nodes: int
    devices_per_node: int
    straggler_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.devices_per_node < 1:
            raise ValueError(
                f"device class {self.name!r} must have >=1 node and "
                f">=1 device/node"
            )
        if self.straggler_factor <= 0:
            raise ValueError(
                f"device class {self.name!r}: straggler_factor must be > 0"
            )

    @property
    def total_devices(self) -> int:
        return self.num_nodes * self.devices_per_node

    def time_factor(self, reference: DeviceSpec, precision: Precision) -> float:
        """Stage-time multiplier of this class relative to ``reference``.

        Profiles are computed once on the cluster's reference device;
        a class whose sustained matmul rate is half the reference runs
        the same stage twice as long (further scaled by the class's
        ``straggler_factor``)."""
        ref_rate = reference.peak_flops(precision) * reference.matmul_efficiency
        cls_rate = (
            self.device.peak_flops(precision) * self.device.matmul_efficiency
        )
        return self.straggler_factor * ref_rate / cls_rate


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster of accelerator nodes (homogeneous or device-classed).

    Bandwidths follow the paper's setup: ``intra_node_bandwidth`` is the
    device-to-device NVLink rate used to estimate stage-to-stage
    communication time (footnote 3: "we use the intra-node bandwidth, not
    the inter-node bandwidth" because device allocation keeps adjacent
    stages on the same node where possible); ``inter_node_bandwidth`` is
    the network rate used for cross-node data-parallel allreduce.

    Communication costs are produced by a swappable model
    (:mod:`repro.comm`): ``comm_model="flat"`` (the default) keeps the
    historical two-scalar closed forms bit-for-bit, while
    ``comm_model="topology"`` derives costs from an explicit link-level
    network graph.  The topology shape is tunable: ``nvlink_degree``
    (``None`` = full mesh) bounds how many NVLink peers each GPU has,
    and ``nic_count`` splits the node's aggregate uplink bandwidth over
    that many NICs.

    **Device classes.**  An empty ``device_classes`` (the default) is the
    historical homogeneous cluster: every code path behaves exactly as
    before.  A non-empty tuple declares a heterogeneous cluster: nodes
    are laid out in class-declaration order, ``device`` becomes the
    *reference* device that profiles are computed against (per-class
    times scale by :meth:`DeviceClass.time_factor`), and per-rank
    capacity comes from each rank's own class.  ``num_nodes`` must equal
    the classes' node total and ``devices_per_node`` their maximum;
    heterogeneous clusters currently require ``comm_model="flat"``.
    """

    num_nodes: int
    devices_per_node: int
    device: DeviceSpec
    intra_node_bandwidth: float  # B/s, e.g. NVLink 25 GB/s
    inter_node_bandwidth: float  # B/s, e.g. 100 Gb/s IB = 12.5 GB/s
    comm_latency: float = 10.0e-6  # per-transfer fixed latency (s)
    comm_model: str = "flat"  # "flat" | "topology"
    nvlink_degree: Optional[int] = None  # None = full intra-node mesh
    nic_count: int = 1  # NICs per node, sharing inter_node_bandwidth
    device_classes: Tuple[DeviceClass, ...] = ()  # () = homogeneous

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.devices_per_node < 1:
            raise ValueError("cluster must have >=1 node and >=1 device/node")
        if self.comm_model not in _COMM_MODELS:
            raise ValueError(
                f"unknown comm_model {self.comm_model!r} (known: {_COMM_MODELS})"
            )
        if self.nvlink_degree is not None and self.nvlink_degree < 1:
            raise ValueError("nvlink_degree must be >= 1 (or None for full mesh)")
        if self.nic_count < 1:
            raise ValueError("nic_count must be >= 1")
        if self.device_classes:
            # tolerate a list argument; keep the spec hashable
            object.__setattr__(
                self, "device_classes", tuple(self.device_classes)
            )
            class_nodes = sum(c.num_nodes for c in self.device_classes)
            if class_nodes != self.num_nodes:
                raise ValueError(
                    f"device classes declare {class_nodes} nodes, cluster "
                    f"says num_nodes={self.num_nodes}"
                )
            widest = max(c.devices_per_node for c in self.device_classes)
            if widest != self.devices_per_node:
                raise ValueError(
                    f"devices_per_node={self.devices_per_node} must equal "
                    f"the widest device class ({widest})"
                )
            if self.comm_model != "flat":
                raise ValueError(
                    "heterogeneous clusters require comm_model='flat' "
                    "(the topology model assumes uniform nodes)"
                )
            names = [c.name for c in self.device_classes]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate device class names: {names}")

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def is_heterogeneous(self) -> bool:
        """True when the cluster declares device classes."""
        return bool(self.device_classes)

    @property
    def total_devices(self) -> int:
        if self.device_classes:
            return sum(c.total_devices for c in self.device_classes)
        return self.num_nodes * self.devices_per_node

    def node_classes(self) -> Tuple[DeviceClass, ...]:
        """The device class of every node, in global node order."""
        if not self.device_classes:
            raise ValueError("homogeneous cluster has no device classes")
        out = []
        for cls in self.device_classes:
            out.extend([cls] * cls.num_nodes)
        return tuple(out)

    def node_device_counts(self) -> Tuple[int, ...]:
        """Devices hosted by each node, in global node order."""
        if self.device_classes:
            return tuple(c.devices_per_node for c in self.node_classes())
        return (self.devices_per_node,) * self.num_nodes

    def node_first_ranks(self) -> Tuple[int, ...]:
        """First global rank of each node plus a trailing total (prefix
        sums of :meth:`node_device_counts`)."""
        offsets = [0]
        for count in self.node_device_counts():
            offsets.append(offsets[-1] + count)
        return tuple(offsets)

    def node_of(self, device_rank: int) -> int:
        """Node index hosting a global device rank.

        Correct for non-uniform nodes: ranks are laid out node by node
        in class-declaration order, so the mapping walks the per-node
        prefix sums instead of assuming a uniform ``devices_per_node``.
        """
        if not 0 <= device_rank < self.total_devices:
            raise ValueError(f"device rank {device_rank} out of range")
        if not self.device_classes:
            return device_rank // self.devices_per_node
        offsets = self.node_first_ranks()
        lo, hi = 0, self.num_nodes - 1
        while lo < hi:  # bisect over the prefix sums
            mid = (lo + hi + 1) // 2
            if offsets[mid] <= device_rank:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # ------------------------------------------------------------------
    # per-rank capacity / speed tables (heterogeneity-aware)
    # ------------------------------------------------------------------
    def rank_memories(self) -> Tuple[float, ...]:
        """Usable memory of every global rank, in rank order."""
        if not self.device_classes:
            return (self.device.usable_memory,) * self.total_devices
        mems = []
        for cls in self.node_classes():
            mems.extend([cls.device.usable_memory] * cls.devices_per_node)
        return tuple(mems)

    def rank_time_factors(self, precision: Precision) -> Tuple[float, ...]:
        """Stage-time multiplier of every global rank relative to the
        reference device (1.0 everywhere for a homogeneous cluster)."""
        if not self.device_classes:
            return (1.0,) * self.total_devices
        factors = []
        for cls in self.node_classes():
            factors.extend(
                [cls.time_factor(self.device, precision)]
                * cls.devices_per_node
            )
        return tuple(factors)

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    @property
    def comm(self):
        """The communication model this cluster asks for (a
        :class:`repro.comm.model.CommModel`, cached per spec)."""
        from repro.comm.model import comm_model_for

        return comm_model_for(self)

    def p2p_time(self, nbytes: float, same_node: bool = True) -> float:
        """Point-to-point transfer time between two devices (delegates
        to the configured communication model)."""
        return self.comm.p2p_time(nbytes, same_node=same_node)

    def allreduce_time(self, nbytes: float, n_ranks: int,
                       spans_nodes: bool = True) -> float:
        """Allreduce time over ``n_ranks`` replicas (delegates to the
        configured communication model).

        Under the flat model this is the standard ring cost
        ``2 (n-1)/n * size / min_link_bw`` with the inter-node network as
        the bottleneck link whenever the ring spans nodes; the topology
        model instead prices a representative rank group under its
        cheapest applicable allreduce algorithm.
        """
        return self.comm.allreduce_time(nbytes, n_ranks, spans_nodes=spans_nodes)

    # ------------------------------------------------------------------
    # derived clusters (Algorithm 2, elastic events)
    # ------------------------------------------------------------------
    def scaled(self, num_nodes: int) -> "ClusterSpec":
        """Same hardware, different node count (Algorithm 2 iterates n)."""
        if self.device_classes:
            raise ValueError(
                "scaled() is undefined for heterogeneous clusters; "
                "use drop_node()/grown() instead"
            )
        return dataclasses.replace(self, num_nodes=num_nodes)

    def drop_node(self, node_index: int) -> "ClusterSpec":
        """The cluster after losing one node (elastic node-loss event)."""
        if not 0 <= node_index < self.num_nodes:
            raise ValueError(f"node index {node_index} out of range")
        if self.num_nodes == 1:
            raise ValueError("cannot drop the last node")
        if not self.device_classes:
            return dataclasses.replace(self, num_nodes=self.num_nodes - 1)
        classes = []
        seen = 0
        for cls in self.device_classes:
            if seen <= node_index < seen + cls.num_nodes:
                if cls.num_nodes > 1:
                    classes.append(
                        dataclasses.replace(cls, num_nodes=cls.num_nodes - 1)
                    )
            else:
                classes.append(cls)
            seen += cls.num_nodes
        classes = tuple(classes)
        return dataclasses.replace(
            self,
            num_nodes=self.num_nodes - 1,
            devices_per_node=max(c.devices_per_node for c in classes),
            device_classes=classes,
        )

    def grown(self, extra_nodes: int, class_name: Optional[str] = None
              ) -> "ClusterSpec":
        """The cluster after a scale-up of ``extra_nodes`` nodes.

        Homogeneous clusters just grow; heterogeneous ones grow the
        named class (default: the first class)."""
        if extra_nodes < 1:
            raise ValueError("extra_nodes must be >= 1")
        if not self.device_classes:
            return dataclasses.replace(
                self, num_nodes=self.num_nodes + extra_nodes
            )
        target = class_name or self.device_classes[0].name
        classes = []
        found = False
        for cls in self.device_classes:
            if cls.name == target:
                found = True
                cls = dataclasses.replace(
                    cls, num_nodes=cls.num_nodes + extra_nodes
                )
            classes.append(cls)
        if not found:
            raise ValueError(f"no device class named {target!r}")
        return dataclasses.replace(
            self,
            num_nodes=self.num_nodes + extra_nodes,
            device_classes=tuple(classes),
        )

    def with_comm_model(self, comm_model: str) -> "ClusterSpec":
        """Same cluster under a different communication model."""
        if comm_model == self.comm_model:
            return self
        return dataclasses.replace(self, comm_model=comm_model)

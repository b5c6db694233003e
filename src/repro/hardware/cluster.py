"""A whole cluster: homogeneous nodes on one fabric (Cichlid / RICC)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.network import Fabric, FabricSpec
from repro.hardware.node import Node, NodeSpec
from repro.sim import Environment

__all__ = ["ClusterSpec", "Cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a whole system (a column of Table I)."""

    name: str
    node: NodeSpec
    fabric: FabricSpec
    max_nodes: int

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ConfigurationError(f"{self.name}: max_nodes must be >= 1")

    def eager_stage_time(self, nbytes):
        """Sender-side cost of an eager message of ``nbytes``: the NIC's
        per-message initiation plus the host copy into the eager buffer
        (a float or a float64 array, shared by both engines)."""
        return (self.fabric.nic.per_message_overhead
                + self.node.host.memcpy_time(nbytes))

    def describe(self) -> dict:
        """Summary for the Table I harness."""
        info = {"System": self.name, "Nodes": self.max_nodes,
                "NIC": self.fabric.nic.name,
                "Net GB/s": self.fabric.nic.bandwidth / 1e9,
                "Net latency us": self.fabric.nic.latency * 1e6}
        info.update(self.node.describe())
        return info


class Cluster:
    """Simulator-bound cluster of ``num_nodes`` identical nodes."""

    def __init__(self, env: Environment, spec: ClusterSpec,
                 num_nodes: int | None = None):
        num_nodes = spec.max_nodes if num_nodes is None else num_nodes
        if not (1 <= num_nodes <= spec.max_nodes):
            raise ConfigurationError(
                f"{spec.name} supports 1..{spec.max_nodes} nodes, "
                f"requested {num_nodes}")
        self.env = env
        self.spec = spec
        self.fabric = Fabric(env, spec.fabric, num_nodes)
        self.nodes = [Node(env, spec.node, i, self.fabric.nics[i])
                      for i in range(num_nodes)]

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, i: int) -> Node:
        return self.nodes[i]

"""Interconnect model: per-node NICs plus a non-blocking fabric.

A message from node A to node B occupies A's transmit port and B's receive
port for ``latency + size/bandwidth``; the switch itself is modelled as
non-blocking (full bisection), which holds for both testbeds at the scales
evaluated (4-node GbE switch; RICC's IB DDR fat tree).  Contention
therefore appears exactly where the paper sees it: at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Callable

from repro.errors import ConfigurationError
from repro.sim import Chain, Environment, Event, Resource
from repro.sim.core import Next

__all__ = ["NicSpec", "Nic", "FabricSpec", "Fabric", "FabricChain"]


@dataclass(frozen=True)
class NicSpec:
    """Static NIC parameters.

    Attributes
    ----------
    name:
        e.g. ``"GbE"`` or ``"IB DDR (IPoIB)"``.
    bandwidth:
        Effective sustained point-to-point bandwidth in bytes/s (already
        discounted for protocol overhead; IPoIB on DDR is far below the
        16 Gbit/s signalling rate — see §V.A's IPoIB note).
    latency:
        One-way small-message latency in seconds.
    per_message_overhead:
        Host-side cost to initiate a send/receive (stack traversal).
    """

    name: str
    bandwidth: float
    latency: float
    per_message_overhead: float = 2e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: non-positive bandwidth")
        if self.latency < 0 or self.per_message_overhead < 0:
            raise ConfigurationError(f"{self.name}: negative latency")


class Nic:
    """One node's network interface: independent tx and rx ports."""

    def __init__(self, env: Environment, spec: NicSpec, node_id: int):
        self.env = env
        self.spec = spec
        self.node_id = node_id
        self.tx = Resource(env, 1, name=f"nic{node_id}.tx")
        self.rx = Resource(env, 1, name=f"nic{node_id}.rx")
        self.lane = f"node{node_id}.nic"


@dataclass(frozen=True)
class FabricSpec:
    """Fabric-wide parameters (applies to every NIC pair), and the
    fabric's timing rules, stated once for both engines as plain
    arithmetic over a float or a float64 array (one value per message).
    """

    nic: NicSpec
    #: extra per-hop switch latency
    switch_latency: float = 1e-6
    #: bandwidth for intra-node (same node_id) "transfers" — a memcpy
    loopback_bandwidth: float = 4e9

    def __post_init__(self) -> None:
        if self.switch_latency < 0:
            raise ConfigurationError("negative switch latency")
        if self.loopback_bandwidth <= 0:
            raise ConfigurationError("non-positive loopback bandwidth")

    def wire_time(self, nbytes, bandwidth):
        """How long a data frame of ``nbytes`` holds both NIC ports when
        streamed at ``bandwidth`` (the NIC's, or a slower rate cap)."""
        return (self.nic.latency + nbytes / bandwidth) + self.switch_latency

    def control_time(self):
        """One-way time of a control packet (rendezvous RTS/CTS, acks)."""
        return self.nic.latency + self.switch_latency

    def loopback_time(self, nbytes):
        """An intra-node "transfer" of ``nbytes``: a memcpy."""
        return nbytes / self.loopback_bandwidth


class Fabric:
    """The cluster interconnect: a NIC per node + non-blocking switch."""

    def __init__(self, env: Environment, spec: FabricSpec, num_nodes: int):
        if num_nodes < 1:
            raise ConfigurationError("fabric needs at least one node")
        self.env = env
        self.spec = spec
        self.nics = [Nic(env, spec.nic, i) for i in range(num_nodes)]

    def _check_node(self, node: int, role: str) -> int:
        """Validate a src/dst node id; returns it as a plain index."""
        try:
            idx = index(node)
        except TypeError:
            raise ConfigurationError(
                f"fabric {role} node id must be an integer, "
                f"got {node!r}") from None
        if not 0 <= idx < len(self.nics):
            raise ConfigurationError(
                f"fabric {role} node id {idx} out of range "
                f"[0, {len(self.nics)})")
        return idx

    def send(self, src: int, dst: int, nbytes: int,
             label: str = "msg",
             rate_limit: float | None = None,
             flow: int = 0) -> "FabricChain":
        """Move ``nbytes`` from node ``src`` to node ``dst``, starting now.

        Returns the transfer, an event firing with the elapsed time once
        the bytes have landed (its ``fate`` says whether a fault
        injector lost them; see :meth:`FabricChain._wire`).  Protocol
        layers drive the same step from their own chains instead.
        Raises ValueError for a negative ``nbytes``.
        """
        src = self._check_node(src, "src")
        dst = self._check_node(dst, "dst")
        if nbytes < 0:
            raise ValueError("negative message size")
        chain = FabricChain(self, "fabric.send")
        chain._wait(*chain._wire(src, dst, nbytes, label, rate_limit, flow,
                                 FabricChain._sent))
        return chain

    def control_message(self, src: int, dst: int) -> "FabricChain":
        """A control packet from ``src`` to ``dst``, starting now.

        Returns an event firing with the packet's fate (see
        :meth:`FabricChain._control`).
        """
        src = self._check_node(src, "src")
        dst = self._check_node(dst, "dst")
        chain = FabricChain(self, "fabric.control")
        chain._wait(*chain._control(src, dst, FabricChain._controlled))
        return chain

    def _effective_bandwidth(self, src: int, dst: int,
                             rate_limit: float | None) -> float:
        """NIC bandwidth after rate limiting and straggler derating."""
        bw = self.spec.nic.bandwidth
        if rate_limit is not None and rate_limit < bw:
            bw = rate_limit
        faults = self.env.faults
        if faults is not None:
            derate = faults.slowdown("nic", src)
            other = faults.slowdown("nic", dst)
            if other > derate:
                derate = other
            if derate > 1.0:
                bw /= derate
        return bw


class FabricChain(Chain):
    """A chain that moves bytes over a :class:`Fabric`.

    The fabric's two protocol steps live here, once: :meth:`_wire` (a
    data frame holding the ports) and :meth:`_control` (a control
    packet), each priced by its :class:`FabricSpec` rule.  Both are
    called from inside a step, return what that step should wait for,
    and run a continuation step when done, leaving the outcome in
    :attr:`fate` — so protocol chains (the MPI send path) put them in
    sequence without a generator frame or an event of their own.  Node
    ids must already be valid indices: :meth:`Fabric.send` and
    :meth:`Fabric.control_message` check theirs, protocol layers pass
    the cluster's own.
    """

    __slots__ = ("fabric", "fate", "_src", "_dst", "_nbytes", "_label",
                 "_rate", "_flow", "_start", "_tx", "_rx", "_then")

    def __init__(self, fabric: Fabric, name: str):
        super().__init__(fabric.env, name)
        self.fabric = fabric
        #: outcome of the last wire or control step: "ok", or a fault
        #: injector's "drop"/"corrupt"/"down"/"dead"
        self.fate = "ok"

    def _wire(self, src: int, dst: int, nbytes: int, label: str,
              rate_limit: float | None, flow: int, then: Callable) -> Next:
        """Move ``nbytes`` from ``src`` to ``dst``; then run ``then``.

        A frame occupies the source tx port and the destination rx port
        for its whole duration (store-and-forward at message
        granularity, which is how MPI-over-sockets and IPoIB behave for
        the sizes evaluated).  Its fate comes from ``env.faults``
        (``"ok"`` when no injector is attached):

        * ``"ok"`` — the bytes arrive.
        * ``"drop"`` / ``"corrupt"`` — the frame occupies the wire for
          its full duration (the bytes travel; the receiver discards
          them), so a retransmitting sender pays realistic time.
        * ``"down"`` / ``"dead"`` — the local NIC stack detects the
          unreachable peer after its own latency; the ports are never
          occupied.

        Loopback (``src == dst``) is a memcpy: nothing on the wire to
        lose.
        """
        fabric = self.fabric
        self._src = src
        self._dst = dst
        self._nbytes = nbytes
        self._label = label
        self._rate = rate_limit
        self._flow = flow
        env = self.env
        self._start = env._now
        if src == dst:
            self.fate = "ok"
            return env.timeout(fabric.spec.loopback_time(nbytes)), then
        faults = env.faults
        fate = ("ok" if faults is None
                else faults.link_fate(src, dst, nbytes, label, flow=flow))
        self.fate = fate
        if fate == "down" or fate == "dead":
            return env.timeout(fabric.spec.nic.latency), then
        self._then = then
        self._tx = fabric.nics[src].tx.request()
        return self._tx, FabricChain._tx_granted

    def _tx_granted(self, event: Event) -> Next:
        self._rx = self.fabric.nics[self._dst].rx.request()
        return self._rx, FabricChain._rx_granted

    def _rx_granted(self, event: Event) -> Next:
        fabric = self.fabric
        try:
            bw = fabric._effective_bandwidth(self._src, self._dst,
                                             self._rate)
            wire = self.env.timeout(fabric.spec.wire_time(self._nbytes, bw))
        except BaseException:
            self._release()
            raise
        return wire, FabricChain._landed

    def _release(self) -> None:
        rx, tx = self._rx, self._tx
        rx.resource.release(rx)
        tx.resource.release(tx)

    def _landed(self, event: Event) -> Next:
        self._release()
        env = self.env
        nbytes = self._nbytes
        metrics = env.metrics
        if metrics is not None:
            metrics.inc("net.messages")
            metrics.inc("net.bytes", nbytes)
        if env.tracer is not None:
            fate = self.fate
            label = self._label
            env.tracer.record(self.fabric.nics[self._src].lane + ".tx",
                              label if fate == "ok" else f"{label}!{fate}",
                              self._start, env.now, "net", flow=self._flow,
                              nbytes=nbytes, dst=self._dst)
        return self._then(self, event)

    def _control(self, src: int, dst: int, then: Callable) -> Next:
        """A tiny control packet (rendezvous RTS/CTS, acks); then run
        ``then``.

        Does not occupy the ports — control traffic rides the wire
        alongside bulk data.  Its fate is ``"ok"``, or ``"down"`` /
        ``"dead"`` when a fault injector has taken an endpoint's NIC
        offline (control packets are never dropped or corrupted — they
        are tiny and checksummed/retried below the layer we model).
        """
        fabric = self.fabric
        env = self.env
        if src == dst:
            self.fate = "ok"
            return env.timeout(0.0), then
        faults = env.faults
        self.fate = ("ok" if faults is None
                     else faults.control_fate(src, dst))
        return env.timeout(fabric.spec.control_time()), then

    # -- standalone endings (Fabric.send / Fabric.control_message) -----
    def _sent(self, event: Event) -> Next:
        self.succeed(self.env.now - self._start)
        return None

    def _controlled(self, event: Event) -> Next:
        self.succeed(self.fate)
        return None

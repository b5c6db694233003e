"""Generic serialized link: fixed latency + size/bandwidth, FIFO access."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.errors import ConfigurationError
from repro.sim import Environment, Resource

__all__ = ["LinkSpec", "Link"]


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of a point-to-point transfer path.

    Attributes
    ----------
    latency:
        Fixed per-transfer startup cost in seconds (driver call, DMA
        descriptor setup, first-byte wire latency, ...).
    bandwidth:
        Sustained streaming bandwidth in bytes/second.
    name:
        Diagnostic label.
    """

    latency: float
    bandwidth: float
    name: str = "link"

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigurationError(f"{self.name}: negative latency")
        if self.bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: non-positive bandwidth")

    def time(self, nbytes: int) -> float:
        """Unloaded transfer time for ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        return self.latency + nbytes / self.bandwidth


class Link:
    """A :class:`LinkSpec` bound to the simulator as a FIFO resource.

    ``channels`` > 1 models independent engines sharing the same spec
    (e.g. the dual copy engines of a Fermi-class GPU).
    """

    def __init__(self, env: Environment, spec: LinkSpec, channels: int = 1,
                 lane: Optional[str] = None):
        self.env = env
        self.spec = spec
        self.resource = Resource(env, capacity=channels, name=spec.name)
        self.lane = lane or spec.name

    @property
    def busy(self) -> bool:
        return self.resource.count > 0

    def transfer(self, nbytes: int, label: str = "xfer",
                 category: str = "net",
                 derate: float = 1.0,
                 flow: int = 0) -> Generator[Any, Any, float]:
        """Coroutine: :meth:`occupy` a channel for ``spec.time(nbytes)``."""
        return self.occupy(self.spec.time(nbytes), nbytes, label, category,
                           derate, flow)

    def occupy(self, cost: float, nbytes: int, label: str = "xfer",
               category: str = "net",
               derate: float = 1.0,
               flow: int = 0) -> Generator[Any, Any, float]:
        """Coroutine: occupy one channel for ``cost`` seconds.

        ``derate`` (>= 1) stretches the transfer — used by fault
        injection to model straggling buses.  ``flow`` links the trace
        record into a causal chain (see :class:`~repro.sim.trace.
        TraceRecord`).  Returns the transfer duration.  Reports the
        busy interval to the probe when an observer is attached.
        """
        probe = self.env.probe
        if probe is not None:
            probe.on_link_queue(self.spec.name,
                                self.resource.queue_len + self.resource.count)
        grant = yield from self.resource.acquire()
        start = self.env.now
        try:
            if derate > 1.0:
                cost *= derate
            yield self.env.timeout(cost)
        finally:
            self.resource.release(grant)
        if probe is not None:
            probe.on_lane_busy("link", self.lane, label, start, self.env.now,
                               category, nbytes=nbytes, flow=flow)
        return self.env.now - start

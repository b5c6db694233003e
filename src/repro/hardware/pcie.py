"""PCIe host↔device path model.

Three distinct access modes matter to the paper (§III):

* **pinned** — DMA from/to page-locked host memory: full PCIe streaming
  bandwidth, but each explicit read/write carries a driver latency and the
  host must stage data.
* **pageable** — DMA from/to ordinary host memory: the driver bounces
  through an internal pinned buffer, roughly halving bandwidth.
* **mapped** — the device buffer is mapped into host address space
  (``clEnqueueMapBuffer``); loads/stores stream over PCIe at a (usually
  much lower, device-generation-dependent) bandwidth, but with almost no
  per-operation setup cost.  On Cichlid's C2070 mapped access is decent;
  on RICC's C1060 it is poor — that asymmetry drives Fig 8's shapes.

Devices with a single copy engine (C1060) serialize h2d and d2h; dual
copy engines (C2070) allow one transfer each way concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import ConfigurationError
from repro.hardware.link import Link, LinkSpec
from repro.sim import Environment

__all__ = ["PcieSpec", "PcieModel"]


@dataclass(frozen=True)
class PcieSpec:
    """Static PCIe path parameters (all bandwidths in bytes/s)."""

    pinned_bandwidth: float
    pageable_bandwidth: float
    mapped_bandwidth: float
    #: driver + DMA-descriptor latency of an explicit read/write
    copy_latency: float = 10e-6
    #: one-time cost of map/unmap bookkeeping (no data motion)
    map_overhead: float = 4e-6
    #: first-access latency of a mapped transfer (no staging, tiny setup)
    mapped_latency: float = 2e-6

    def __post_init__(self) -> None:
        for field in ("pinned_bandwidth", "pageable_bandwidth",
                      "mapped_bandwidth"):
            if getattr(self, field) <= 0:
                raise ConfigurationError(f"PcieSpec.{field} must be positive")
        if min(self.copy_latency, self.map_overhead, self.mapped_latency) < 0:
            raise ConfigurationError("PcieSpec latencies must be non-negative")

    def dma_time(self, nbytes):
        """One explicit DMA copy of ``nbytes`` at the pinned rate (a float
        or a float64 array: plain arithmetic, shared by both engines)."""
        return self.copy_latency + nbytes / self.pinned_bandwidth


class PcieModel:
    """A :class:`PcieSpec` bound to the simulator.

    ``copy_engines=2`` gives independent h2d and d2h channels;
    ``copy_engines=1`` makes them share a single channel (all DMA
    serializes, as on the C1060).
    """

    def __init__(self, env: Environment, spec: PcieSpec, copy_engines: int = 2,
                 lane: str = "pcie", node_id: int = 0):
        self.env = env
        self.spec = spec
        self.lane = lane
        self.node_id = node_id
        # the DMA links are priced by PcieSpec.dma_time (see _copy)
        if copy_engines == 2:
            self._d2h = Link(env, "pcie.d2h", lane=f"{lane}.d2h")
            self._h2d = Link(env, "pcie.h2d", lane=f"{lane}.h2d")
        elif copy_engines == 1:
            shared = Link(env, "pcie.dma", lane=f"{lane}.dma")
            self._d2h = shared
            self._h2d = shared
        else:
            raise ConfigurationError("copy_engines must be 1 or 2")
        # Mapped access has its own path: it does not use the DMA engines,
        # it is the host (or NIC) issuing loads/stores over the bus.
        self._mapped = Link(env, LinkSpec(spec.mapped_latency,
                                          spec.mapped_bandwidth, "pcie.mapped"),
                            lane=f"{lane}.mapped")

    # -- explicit copies --------------------------------------------------------
    def d2h(self, nbytes: int, pinned: bool = True,
            label: str = "d2h", flow: int = 0) -> Generator[Any, Any, float]:
        """Device→host explicit copy; returns elapsed time."""
        return (yield from self._copy(self._d2h, nbytes, pinned, label,
                                      "d2h", flow))

    def h2d(self, nbytes: int, pinned: bool = True,
            label: str = "h2d", flow: int = 0) -> Generator[Any, Any, float]:
        """Host→device explicit copy; returns elapsed time."""
        return (yield from self._copy(self._h2d, nbytes, pinned, label,
                                      "h2d", flow))

    def _derate(self) -> float:
        faults = self.env.faults
        return 1.0 if faults is None else faults.slowdown("pcie", self.node_id)

    def _copy(self, link: Link, nbytes: int, pinned: bool, label: str,
              category: str, flow: int = 0) -> Generator[Any, Any, float]:
        if nbytes < 0:
            raise ValueError("negative copy size")
        if not pinned:
            # Pageable copies bounce through the driver's staging buffer:
            # model as the same engine at reduced bandwidth.
            scale = self.spec.pinned_bandwidth / self.spec.pageable_bandwidth
            nbytes = int(nbytes * scale)
        return (yield from link.occupy(self.spec.dma_time(nbytes), nbytes,
                                       label, category,
                                       derate=self._derate(), flow=flow))

    # -- mapped access -------------------------------------------------------------
    def map_buffer(self) -> Generator[Any, Any, float]:
        """Coroutine pricing a map (or unmap) operation."""
        start = self.env.now
        yield self.env.timeout(self.spec.map_overhead)
        return self.env.now - start

    def mapped_read(self, nbytes: int, label: str = "mapped-read",
                    flow: int = 0) -> Generator[Any, Any, float]:
        """Stream ``nbytes`` out of a mapped device buffer."""
        return (yield from self._mapped.transfer(nbytes, label, "d2h",
                                                 derate=self._derate(),
                                                 flow=flow))

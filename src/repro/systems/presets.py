"""Calibrated machine models for the two evaluation systems of Table I.

Every timing constant used anywhere in the simulator lives here, with its
provenance.  The calibration goal is *shape fidelity* for Figures 8-10:
who wins, by roughly what factor, and where crossovers fall — not absolute
GFLOPS (our substrate is a simulator, not the authors' testbeds).

Provenance notes
----------------
* GbE effective point-to-point bandwidth: ~117 MB/s (TCP over 1 Gb/s).
* IPoIB over IB DDR: the paper runs Open MPI over IPoIB (§V.A).  DDR
  signals 16 Gb/s (data 1.6 GB/s after 8b/10b); IPoIB typically sustains
  ~1.0-1.4 GB/s.  We use 1.25 GB/s.
* Tesla C2070 (Fermi): dual copy engines, PCIe gen2 x16 pinned ~5.7 GB/s,
  mapped (zero-copy) access is serviceable (~3 GB/s).
* Tesla C1060 (GT200): single copy engine, pinned ~5.3 GB/s, and mapped
  host access is notoriously slow (~0.8 GB/s) — this is why the mapped
  implementation loses badly on RICC in Fig 8(b) while being the best
  small-message option on Cichlid in Fig 8(a).
* Sustained Himeno-kernel GFLOPS: ~45 SP on C2070, ~28 SP on C1060
  (published Himeno GPU ports of that era; only their *ratio* to network
  speed matters for the figure shapes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.hardware import (
    ClusterSpec,
    FabricSpec,
    GpuSpec,
    HostSpec,
    NicSpec,
    NodeSpec,
    PcieSpec,
)

__all__ = ["TransferPolicy", "SystemPreset", "cichlid", "ricc", "custom",
           "get_system", "SYSTEMS"]

KiB = 1024
MiB = 1024 * 1024


@dataclass(frozen=True)
class TransferPolicy:
    """Automatic transfer-mode selection policy (§V.B).

    The paper's runtime "can use either the pinned or mapped data transfer
    for small messages, and the pipelined data transfer can be performed
    for large messages", with mapped chosen on Cichlid and pinned on RICC.

    Attributes
    ----------
    small_mode:
        ``"mapped"`` or ``"pinned"``: engine for messages below
        ``pipeline_threshold``.
    pipeline_threshold:
        Messages of at least this many bytes use the pipelined engine.
    pipeline_block:
        Function from message size to pipeline block size in bytes.
    pipeline_base:
        Staging engine used by the pipelined transfer (``"pinned"`` or
        ``"mapped"`` — §V.B: "the pipelined data transfer can also be
        implemented using either the pinned or mapped data transfer").
    """

    small_mode: str = "pinned"
    pipeline_threshold: int = 4 * MiB
    pipeline_block: Callable[[int], int] = field(
        default=lambda nbytes: max(256 * KiB, min(4 * MiB, nbytes // 8)))
    pipeline_base: str = "pinned"

    def __post_init__(self) -> None:
        if self.small_mode not in ("pinned", "mapped"):
            raise ConfigurationError(f"bad small_mode {self.small_mode!r}")
        if self.pipeline_base not in ("pinned", "mapped"):
            raise ConfigurationError(f"bad pipeline_base {self.pipeline_base!r}")
        if self.pipeline_threshold < 1:
            raise ConfigurationError("pipeline_threshold must be positive")

    def select(self, nbytes: int) -> tuple[str, Optional[int]]:
        """Return ``(mode, block_size)`` for a message of ``nbytes``."""
        if nbytes >= self.pipeline_threshold:
            block = min(self.pipeline_block(nbytes), nbytes)
            return "pipelined", max(1, block)
        return self.small_mode, None


@dataclass(frozen=True)
class SystemPreset:
    """A cluster spec plus its runtime tuning (one Table I column)."""

    cluster: ClusterSpec
    policy: TransferPolicy
    #: eager/rendezvous switch-over of the MPI layer (Open MPI-like)
    mpi_eager_threshold: int = 64 * KiB

    @property
    def name(self) -> str:
        return self.cluster.name


def cichlid(max_nodes: int = 4) -> SystemPreset:
    """The Cichlid testbed: 4 nodes, Core i7 930 + Tesla C2070, GbE."""
    host = HostSpec(
        name="Intel Core i7 930 (2.8 GHz)",
        sustained_gflops=10.0,        # serial host phases
        memcpy_bandwidth=3.0e9,       # single-thread memcpy
        call_overhead=1.5e-6,
        sync_overhead=60e-6,          # clFinish / MPI_Wait wake-up poll
    )
    gpu = GpuSpec(
        name="NVIDIA Tesla C2070",
        sustained_gflops=45.0,        # Himeno-class stencil, SP
        mem_bandwidth=100e9,          # of 144 GB/s peak
        launch_overhead=8e-6,
        copy_engines=2,               # Fermi: concurrent h2d+d2h
        memory_bytes=6 * 2**30,
    )
    pcie = PcieSpec(
        pinned_bandwidth=5.7e9,       # PCIe gen2 x16, page-locked DMA
        pageable_bandwidth=2.8e9,     # driver bounce buffers
        mapped_bandwidth=3.0e9,       # zero-copy access, Fermi
        copy_latency=18e-6,           # driver + DMA descriptor per copy
        map_overhead=4e-6,
        mapped_latency=2e-6,
    )
    nic = NicSpec(
        name="Gigabit Ethernet",
        bandwidth=117e6,              # effective TCP payload rate
        latency=50e-6,
        per_message_overhead=4e-6,
    )
    node = NodeSpec(host=host, gpu=gpu, pcie=pcie, host_cores=4)
    fabric = FabricSpec(nic=nic, switch_latency=2e-6,
                        loopback_bandwidth=4e9)
    cluster = ClusterSpec(name="Cichlid", node=node, fabric=fabric,
                          max_nodes=max_nodes)
    # §V.B: "the mapped ... data transfers are used for Cichlid": mapped has
    # the lowest fixed latency and GbE (117 MB/s) is far below the mapped
    # PCIe rate, so staging buys nothing on this system.
    policy = TransferPolicy(small_mode="mapped",
                            pipeline_threshold=8 * MiB,
                            pipeline_base="mapped")
    return SystemPreset(cluster=cluster, policy=policy,
                        mpi_eager_threshold=64 * KiB)


def ricc(max_nodes: int = 100) -> SystemPreset:
    """The RICC multi-purpose PC cluster: Xeon 5570 + Tesla C1060, IB DDR."""
    host = HostSpec(
        name="Intel Xeon 5570 (x2)",
        sustained_gflops=11.0,
        memcpy_bandwidth=4.0e9,
        call_overhead=1.2e-6,
        sync_overhead=15e-6,
    )
    gpu = GpuSpec(
        name="NVIDIA Tesla C1060",
        sustained_gflops=28.0,
        mem_bandwidth=73e9,           # of 102 GB/s peak
        launch_overhead=10e-6,
        copy_engines=1,               # GT200: one DMA engine
        memory_bytes=4 * 2**30,
    )
    pcie = PcieSpec(
        pinned_bandwidth=5.3e9,
        pageable_bandwidth=2.2e9,
        mapped_bandwidth=0.8e9,       # zero-copy is slow on GT200
        copy_latency=12e-6,
        map_overhead=15e-6,           # GT200 zero-copy setup is expensive
        mapped_latency=10e-6,
    )
    nic = NicSpec(
        name="InfiniBand DDR (IPoIB)",
        bandwidth=1.25e9,             # IPoIB sustained (§V.A)
        latency=25e-6,
        per_message_overhead=3e-6,
    )
    node = NodeSpec(host=host, gpu=gpu, pcie=pcie, host_cores=8)
    fabric = FabricSpec(nic=nic, switch_latency=1e-6,
                        loopback_bandwidth=5e9)
    cluster = ClusterSpec(name="RICC", node=node, fabric=fabric,
                          max_nodes=max_nodes)
    # §V.B: pinned is the small-message engine on RICC (mapped PCIe access
    # on the C1060 is slower than the IB network), pipelining for large.
    policy = TransferPolicy(small_mode="pinned",
                            pipeline_threshold=1 * MiB,
                            pipeline_base="pinned")
    return SystemPreset(cluster=cluster, policy=policy,
                        mpi_eager_threshold=64 * KiB)


def custom(name: str, *, net_bandwidth: float, net_latency: float,
           gpu_gflops: float, pinned_bandwidth: float,
           mapped_bandwidth: float, copy_engines: int = 2,
           max_nodes: int = 16,
           policy: Optional[TransferPolicy] = None) -> SystemPreset:
    """Build an ad-hoc system preset for what-if studies and tests."""
    host = HostSpec(name=f"{name}-cpu", sustained_gflops=10.0,
                    memcpy_bandwidth=4.0e9)
    gpu = GpuSpec(name=f"{name}-gpu", sustained_gflops=gpu_gflops,
                  mem_bandwidth=100e9, copy_engines=copy_engines)
    pcie = PcieSpec(pinned_bandwidth=pinned_bandwidth,
                    pageable_bandwidth=pinned_bandwidth / 2,
                    mapped_bandwidth=mapped_bandwidth)
    nic = NicSpec(name=f"{name}-nic", bandwidth=net_bandwidth,
                  latency=net_latency)
    node = NodeSpec(host=host, gpu=gpu, pcie=pcie)
    fabric = FabricSpec(nic=nic)
    cluster = ClusterSpec(name=name, node=node, fabric=fabric,
                          max_nodes=max_nodes)
    return SystemPreset(cluster=cluster,
                        policy=policy or TransferPolicy())


#: Registry used by the CLI harness (``--system cichlid``).
SYSTEMS: dict[str, Callable[[], SystemPreset]] = {
    "cichlid": cichlid,
    "ricc": ricc,
}


def get_system(name: str, max_nodes: Optional[int] = None,
               min_nodes: Optional[int] = None) -> SystemPreset:
    """Look up a preset by (case-insensitive) name.

    ``max_nodes`` overrides the preset's default node count — the
    mesoscale (vectorized-engine) sweeps run the paper's testbeds well
    past their physical size (1k–10k ranks), which the timing model
    supports: the fabric is a full-bisection star, so scaling the node
    count changes nothing but the number of lanes.  ``min_nodes`` grows
    the node count only where it is short, so a sweep point builds its
    preset once whatever its size.
    """
    try:
        factory = SYSTEMS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown system {name!r}; choose from {sorted(SYSTEMS)}") from None
    preset = factory() if max_nodes is None else factory(max_nodes=max_nodes)
    if min_nodes is not None and min_nodes > preset.cluster.max_nodes:
        # max_nodes only gates construction, it never shapes timing
        preset = replace(preset, cluster=replace(preset.cluster,
                                                 max_nodes=min_nodes))
    return preset

"""GPU compute-device model.

A device has one in-order *compute engine* (kernels serialize on it, as on
the Tesla C1060/C2070 of Table I) and one or two *copy engines* modelled by
:class:`repro.hardware.pcie.PcieModel`.  Kernel *functional* execution
(the NumPy body) is handled by the OpenCL layer; this model only prices
the time a kernel occupies the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import ConfigurationError
from repro.sim import Environment, Resource

__all__ = ["GpuSpec", "GpuModel"]


@dataclass(frozen=True)
class GpuSpec:
    """Static GPU performance parameters.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"Tesla C2070"``.
    sustained_gflops:
        Sustained single-precision throughput (GFLOP/s) for the
        stencil-style kernels used in the evaluation — *not* peak.
    mem_bandwidth:
        Device-memory bandwidth in bytes/s (prices memory-bound kernels).
    launch_overhead:
        Fixed per-kernel launch cost in seconds.
    copy_engines:
        1 (C1060) or 2 (C2070): independent DMA engines, i.e. whether
        h2d and d2h transfers can run concurrently.
    memory_bytes:
        Device memory capacity; allocations beyond it fail like
        ``CL_MEM_OBJECT_ALLOCATION_FAILURE``.
    """

    name: str
    sustained_gflops: float
    mem_bandwidth: float
    launch_overhead: float = 5e-6
    copy_engines: int = 2
    memory_bytes: int = 3 * 2**30

    def __post_init__(self) -> None:
        if self.sustained_gflops <= 0 or self.mem_bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: non-positive throughput")
        if self.copy_engines not in (1, 2):
            raise ConfigurationError(f"{self.name}: copy_engines must be 1 or 2")
        if self.launch_overhead < 0 or self.memory_bytes <= 0:
            raise ConfigurationError(f"{self.name}: invalid overhead/memory")

    def kernel_time(self, flops: float = 0.0, mem_bytes: float = 0.0) -> float:
        """Roofline-style kernel duration: launch + max(compute, memory)."""
        if flops < 0 or mem_bytes < 0:
            raise ValueError("negative kernel cost inputs")
        compute = flops / (self.sustained_gflops * 1e9)
        memory = mem_bytes / self.mem_bandwidth
        return self.launch_overhead + max(compute, memory)


class GpuModel:
    """A :class:`GpuSpec` bound to the simulator."""

    def __init__(self, env: Environment, spec: GpuSpec, lane: str = "gpu",
                 node_id: int = 0):
        self.env = env
        self.spec = spec
        self.lane = lane
        self.node_id = node_id
        self.compute = Resource(env, capacity=1, name=f"{spec.name}.compute")
        self._allocated = 0

    # -- memory accounting -----------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    def allocate(self, nbytes: int) -> None:
        """Account a device-memory allocation; raises when over capacity."""
        if nbytes < 0:
            raise ValueError("negative allocation")
        if self._allocated + nbytes > self.spec.memory_bytes:
            raise ConfigurationError(
                f"{self.spec.name}: device memory exhausted "
                f"({self._allocated + nbytes} > {self.spec.memory_bytes})")
        self._allocated += nbytes

    def free(self, nbytes: int) -> None:
        """Release a previous allocation."""
        self._allocated = max(0, self._allocated - nbytes)

    # -- execution ---------------------------------------------------------------
    def run_kernel(self, duration: float,
                   label: str = "kernel") -> Generator[Any, Any, float]:
        """Coroutine: occupy the compute engine for ``duration`` seconds."""
        if duration < 0:
            raise ValueError("negative kernel duration")
        grant = yield from self.compute.acquire()
        start = self.env.now
        try:
            faults = self.env.faults
            if faults is not None:
                # An injected failure surfaces here, at the moment the
                # command starts on the engine — the queue dispatcher
                # catches it and fails the command's event.
                faults.check_gpu(self.node_id, label)
                derate = faults.slowdown("gpu", self.node_id)
                if derate > 1.0:
                    duration *= derate
            yield self.env.timeout(duration)
        finally:
            self.compute.release(grant)
        if self.env.probe is not None:
            self.env.probe.on_lane_busy("gpu", self.lane, label, start,
                                        self.env.now, "compute")
        return self.env.now - start

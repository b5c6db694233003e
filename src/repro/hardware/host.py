"""Host CPU model.

The host's role in this reproduction is mostly *control*: host threads are
DES coroutines, and what costs time on the host is (a) host-side compute
phases (e.g. the nanopowder nucleation/condensation stages, which are
serial on rank 0 in §V.D) and (b) small fixed costs of runtime calls
(enqueue, synchronization polls).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import ConfigurationError
from repro.sim import Environment, Resource

__all__ = ["HostSpec", "HostModel"]


@dataclass(frozen=True)
class HostSpec:
    """Static host parameters.

    Attributes
    ----------
    name:
        CPU marketing name, e.g. ``"Intel Core i7 930"``.
    sustained_gflops:
        Sustained host compute throughput for the serial phases.
    memcpy_bandwidth:
        Host memory copy bandwidth (staging copies, packing).
    call_overhead:
        Fixed cost of one runtime API call from a host thread (enqueue,
        request creation, ...).
    sync_overhead:
        Extra cost of a blocking synchronization (``clFinish``,
        ``MPI_Wait`` wake-up): models the poll/wake latency that makes
        fine-grained host-side serialization expensive (§III).
    """

    name: str
    sustained_gflops: float
    memcpy_bandwidth: float
    call_overhead: float = 1e-6
    sync_overhead: float = 15e-6

    def __post_init__(self) -> None:
        if self.sustained_gflops <= 0 or self.memcpy_bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: non-positive throughput")
        if self.call_overhead < 0 or self.sync_overhead < 0:
            raise ConfigurationError(f"{self.name}: negative overhead")

    def compute_time(self, flops: float) -> float:
        """Duration of a host compute phase of ``flops`` floating ops."""
        if flops < 0:
            raise ValueError("negative flops")
        return flops / (self.sustained_gflops * 1e9)

    def memcpy_time(self, nbytes):
        """Duration of a host-memory copy of ``nbytes`` (a float or a
        float64 array: plain arithmetic, shared by both engines)."""
        return nbytes / self.memcpy_bandwidth


class HostModel:
    """A :class:`HostSpec` bound to the simulator.

    The ``cores`` resource bounds how many host compute phases can run
    concurrently (host *control* coroutines are free — only modelled
    compute occupies a core).
    """

    def __init__(self, env: Environment, spec: HostSpec, cores: int = 4,
                 lane: str = "host", node_id: int = 0):
        if cores < 1:
            raise ConfigurationError("host needs at least one core")
        self.env = env
        self.spec = spec
        self.lane = lane
        self.node_id = node_id
        self.cores = Resource(env, capacity=cores, name=f"{spec.name}.cores")

    def _derate(self) -> float:
        faults = self.env.faults
        return 1.0 if faults is None else faults.slowdown("cpu", self.node_id)

    def compute(self, flops: float,
                label: str = "host-compute") -> Generator[Any, Any, float]:
        """Coroutine: occupy one core for a compute phase."""
        grant = yield from self.cores.acquire()
        start = self.env.now
        try:
            yield self.env.timeout(self.spec.compute_time(flops)
                                   * self._derate())
        finally:
            self.cores.release(grant)
        if self.env.metrics is not None:
            self.env.metrics.inc("host.busy_s", self.env.now - start)
        if self.env.tracer is not None:
            self.env.tracer.record(self.lane, label, start, self.env.now,
                                   "host")
        return self.env.now - start

    def memcpy(self, nbytes: int,
               label: str = "memcpy") -> Generator[Any, Any, float]:
        """Coroutine: host-memory copy of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("negative size")
        grant = yield from self.cores.acquire()
        start = self.env.now
        try:
            yield self.env.timeout(self.spec.memcpy_time(nbytes)
                                   * self._derate())
        finally:
            self.cores.release(grant)
        if self.env.metrics is not None:
            self.env.metrics.inc("host.busy_s", self.env.now - start)
        if self.env.tracer is not None:
            self.env.tracer.record(self.lane, label, start, self.env.now,
                                   "host", nbytes=nbytes)
        return self.env.now - start

    def api_call(self) -> Generator[Any, Any, None]:
        """Coroutine: fixed cost of one runtime API call."""
        yield self.env.timeout(self.spec.call_overhead)

    def sync_wakeup(self) -> Generator[Any, Any, None]:
        """Coroutine: fixed cost of returning from a blocking sync."""
        yield self.env.timeout(self.spec.sync_overhead)

"""Per-node storage model (for the §VI file-I/O extension commands).

Era-appropriate node-local disk: a FIFO device with separate read/write
bandwidths and a fixed access latency.  Files are simulated objects whose
bytes live in host memory (functional mode), so file↔device transfers are
checkable end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim import Environment, Resource

__all__ = ["StorageSpec", "StorageModel", "SimFile"]


@dataclass(frozen=True)
class StorageSpec:
    """Static storage parameters (bytes/s, seconds)."""

    read_bandwidth: float = 250e6
    write_bandwidth: float = 180e6
    latency: float = 0.5e-3

    def __post_init__(self) -> None:
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ConfigurationError("storage bandwidths must be positive")
        if self.latency < 0:
            raise ConfigurationError("storage latency must be non-negative")


class StorageModel:
    """A node's disk, bound to the simulator."""

    def __init__(self, env: Environment, spec: StorageSpec,
                 lane: str = "disk"):
        self.env = env
        self.spec = spec
        self.lane = lane
        # one spindle/controller: reads and writes serialize
        self._dev = Resource(env, 1, name="disk")
        self._files: dict[str, "SimFile"] = {}

    def _access(self, nbytes: int, bandwidth: float, label: str,
                first: bool) -> Generator[Any, Any, float]:
        grant = yield from self._dev.acquire()
        start = self.env.now
        try:
            cost = nbytes / bandwidth
            if first:
                cost += self.spec.latency  # seek; sequential blocks skip it
            yield self.env.timeout(cost)
        finally:
            self._dev.release(grant)
        if self.env.probe is not None:
            self.env.probe.on_lane_busy("disk", self.lane, label, start,
                                        self.env.now, "host", nbytes=nbytes)
        return self.env.now - start

    def read(self, nbytes: int, label: str = "disk-read",
             first: bool = True) -> Generator[Any, Any, float]:
        """Coroutine: read ``nbytes``; ``first=False`` marks a sequential
        continuation (no seek latency)."""
        return (yield from self._access(nbytes, self.spec.read_bandwidth,
                                        label, first))

    def write(self, nbytes: int, label: str = "disk-write",
              first: bool = True) -> Generator[Any, Any, float]:
        """Coroutine: write ``nbytes`` (see :meth:`read`)."""
        return (yield from self._access(nbytes, self.spec.write_bandwidth,
                                        label, first))

    def open(self, name: str, size: int = 0) -> "SimFile":
        """Open (creating if missing) a simulated file."""
        if name not in self._files:
            self._files[name] = SimFile(self, name, size)
        f = self._files[name]
        if size > f.size:
            f.truncate(size)
        return f


class SimFile:
    """A simulated file: a named byte region on one node's disk."""

    def __init__(self, storage: StorageModel, name: str, size: int = 0):
        if size < 0:
            raise ConfigurationError("negative file size")
        self.storage = storage
        self.name = name
        self._data: Optional[np.ndarray] = (
            np.zeros(size, dtype=np.uint8) if size else
            np.zeros(0, dtype=np.uint8))

    @property
    def size(self) -> int:
        return int(self._data.nbytes)

    @property
    def data(self) -> np.ndarray:
        """The file's bytes (functional content)."""
        return self._data

    def truncate(self, size: int) -> None:
        """Grow/shrink the file to ``size`` bytes (zero-filled)."""
        new = np.zeros(size, dtype=np.uint8)
        n = min(size, self.size)
        new[:n] = self._data[:n]
        self._data = new

    def check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.size:
            raise ConfigurationError(
                f"file range [{offset}, {offset + size}) outside "
                f"{self.name!r} of {self.size} bytes")

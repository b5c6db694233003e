"""Memory objects (``cl_mem``).

A :class:`Buffer` owns a NumPy byte array standing in for device memory.
The *functional* content is always host-visible to the simulator (we are
one address space), but the *timing* of every access is charged through
the PCIe / GPU models by the commands that touch it.  Allocation is
accounted against the owning device's memory capacity.
"""

from __future__ import annotations

import weakref
from typing import Optional

import numpy as np

from repro.errors import OclError

__all__ = ["Buffer"]


class Buffer:
    """A device memory object of ``size`` bytes."""

    def __init__(self, context, size: int,
                 hostbuf: Optional[np.ndarray] = None, name: str = ""):
        if size <= 0:
            raise OclError("CL_INVALID_BUFFER_SIZE",
                           f"buffer size must be positive, got {size}")
        # weak: the context keeps its buffers (for ``Context.release``),
        # and a strong way back would make a reference cycle per buffer
        self._context = weakref.ref(context)
        self.size = int(size)
        self.name = name or f"buf{context.env.next_id('buf')}"
        self.device = context.device
        self.device.gpu.allocate(self.size)
        # Backing storage is lazy: timing-only runs never touch it, so a
        # 40-rank paper-scale sweep does not allocate 40 × 42 MB of NumPy.
        self._data: Optional[np.ndarray] = None
        if hostbuf is not None:
            src = _as_bytes(hostbuf)
            if src.nbytes > self.size:
                raise OclError("CL_INVALID_HOST_PTR",
                               "hostbuf larger than the buffer")
            self._storage()[:src.nbytes] = src  # CL_MEM_COPY_HOST_PTR
        self._mapped = 0
        self._released = False

    @property
    def context(self):
        """The :class:`~repro.ocl.context.Context` the buffer was created
        against (None once that context is gone)."""
        return self._context()

    def _storage(self) -> np.ndarray:
        if self._data is None:
            self._data = np.zeros(self.size, dtype=np.uint8)
        return self._data

    # -- lifetime ----------------------------------------------------------
    def release(self) -> None:
        """Free the device allocation (``clReleaseMemObject``)."""
        if not self._released:
            self._released = True
            self.device.gpu.free(self.size)

    def _check_alive(self) -> None:
        if self._released:
            raise OclError("CL_INVALID_MEM_OBJECT",
                           f"{self.name} has been released")

    # -- raw access (simulator-internal and kernel bodies) -------------------
    def check_range(self, offset: int, size: Optional[int] = None) -> int:
        """Validate ``[offset, offset+size)``; returns the resolved size.

        Does not materialize backing storage (timing-only safe).
        """
        self._check_alive()
        size = self.size - offset if size is None else size
        if offset < 0 or size < 0 or offset + size > self.size:
            raise OclError("CL_INVALID_VALUE",
                           f"range [{offset}, {offset + size}) outside "
                           f"{self.name} of {self.size} bytes")
        return size

    def bytes_view(self, offset: int = 0,
                   size: Optional[int] = None) -> np.ndarray:
        """uint8 view of ``[offset, offset+size)`` (bounds-checked)."""
        size = self.check_range(offset, size)
        return self._storage()[offset:offset + size]

    def view(self, dtype, shape=None, offset: int = 0) -> np.ndarray:
        """Typed ndarray view over the buffer (used by kernel bodies)."""
        self._check_alive()
        dt = np.dtype(dtype)
        if shape is None:
            count = (self.size - offset) // dt.itemsize
            shape = (count,)
        nbytes = int(np.prod(shape)) * dt.itemsize
        return self.bytes_view(offset, nbytes).view(dt).reshape(shape)

    # -- mapping state (timing handled by the queue's map commands) -----------
    @property
    def is_mapped(self) -> bool:
        return self._mapped > 0

    def _map(self) -> None:
        self._check_alive()
        self._mapped += 1

    def _unmap(self) -> None:
        if self._mapped == 0:
            raise OclError("CL_INVALID_OPERATION",
                           f"{self.name} is not mapped")
        self._mapped -= 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Buffer {self.name} {self.size}B on {self.device.name}>"


def _as_bytes(arr: np.ndarray) -> np.ndarray:
    if not isinstance(arr, np.ndarray):
        raise OclError("CL_INVALID_HOST_PTR",
                       f"host buffer must be a numpy array, got {type(arr)!r}")
    if not arr.flags.c_contiguous:
        raise OclError("CL_INVALID_HOST_PTR",
                       "host buffers must be C-contiguous")
    return arr.reshape(-1).view(np.uint8)

"""Contexts (``cl_context``).

A context groups a device with the resources created against it (buffers,
user events, queues).  As in the paper's setting we use one context per
MPI process managing that node's single GPU; multi-device shared contexts
(the alternative §II dismisses for its memory-footprint cost) are
deliberately out of scope.
"""

from __future__ import annotations

import weakref
from typing import Optional

import numpy as np

from repro.errors import OclError
from repro.ocl.buffer import Buffer
from repro.ocl.device import Device
from repro.ocl.event import UserEvent

__all__ = ["Context"]


class Context:
    """One device's resource container."""

    def __init__(self, device: Device, host=None, functional: bool = True):
        self.device = device
        self.env = device.env
        #: HostModel charging API-call overheads; defaults to the node's
        self.host = host or device.node.host
        #: False → timing-only mode: kernel bodies and payload copies are
        #: skipped; the virtual clock is still exact.  Used to run
        #: paper-scale problem sizes quickly (see DESIGN.md §7).
        self.functional = functional
        #: every buffer not yet released (a buffer refers back weakly)
        self.buffers: list[Buffer] = []
        # weak: a queue refers to its context, and the program holds the
        # queues it uses
        self._queues: list[weakref.ref] = []
        #: extension slot: set by :class:`repro.clmpi.ClmpiRuntime`
        self.clmpi_runtime = None

    @property
    def queues(self) -> list:
        """The queues created against this context that are still in
        use, in creation order."""
        return [q for q in (ref() for ref in self._queues) if q is not None]

    def create_buffer(self, size: int, hostbuf: Optional[np.ndarray] = None,
                      name: str = "") -> Buffer:
        """``clCreateBuffer``; ``hostbuf`` gives COPY_HOST_PTR semantics."""
        buf = Buffer(self, size, hostbuf, name)
        self.buffers.append(buf)
        return buf

    def create_user_event(self, label: str = "user-event") -> UserEvent:
        """``clCreateUserEvent``."""
        return UserEvent(self.env, label)

    def create_queue(self, in_order: bool = True, name: str = ""):
        """``clCreateCommandQueue`` (out-of-order via ``in_order=False``)."""
        from repro.ocl.queue import CommandQueue
        q = CommandQueue(self, in_order=in_order, name=name)
        self._queues.append(weakref.ref(q))
        return q

    def release(self) -> None:
        """Release all buffers created against this context."""
        for buf in self.buffers:
            buf.release()
        self.buffers.clear()

    def _check_buffer(self, buf: Buffer, what: str = "buffer") -> None:
        if not isinstance(buf, Buffer) or buf.context is not self:
            raise OclError("CL_INVALID_MEM_OBJECT",
                           f"{what} does not belong to this context")

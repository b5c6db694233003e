"""The paper-facing clMPI API (§IV).

Inter-node communication *commands* (§IV.A) — enqueued like any other
OpenCL command, executed under queue order + event wait-list rules, with
the host thread free immediately after enqueue:

* :func:`enqueue_send_buffer`  (``clEnqueueSendBuffer``)
* :func:`enqueue_recv_buffer`  (``clEnqueueRecvBuffer``)

Event interoperation (§IV.B/C):

* :func:`event_from_mpi_request` (``clCreateEventFromMPIRequest``)

Host-side MPI interoperability with ``MPI_CL_MEM`` (§IV.C): standard-
looking MPI calls whose peer is a communicator device:

* :func:`isend` / :func:`send` — host buffer → remote device
* :func:`irecv` / :func:`recv` — remote device → host buffer
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

import numpy as np

from repro.clmpi.runtime import ClmpiRuntime
from repro.errors import ClmpiError
from repro.mpi.comm import Communicator
from repro.mpi.datatypes import CL_MEM, Datatype
from repro.mpi.request import Request
from repro.ocl.buffer import Buffer
from repro.ocl.enums import CommandType
from repro.ocl.event import CLEvent, UserEvent
from repro.ocl.queue import CommandQueue

__all__ = ["enqueue_send_buffer", "enqueue_recv_buffer",
           "event_from_mpi_request", "isend", "irecv", "send", "recv"]


def _runtime_of(queue: CommandQueue) -> ClmpiRuntime:
    rt = queue.context.clmpi_runtime
    if rt is None:
        raise ClmpiError(
            f"no ClmpiRuntime attached to the context of queue "
            f"{queue.name!r} (device {queue.device.name!r}); create one "
            "with ClmpiRuntime(context, comm, policy=...)")
    return rt


def enqueue_send_buffer(queue: CommandQueue, buf: Buffer, blocking: bool,
                        offset: int, size: int, dest: int, tag: int,
                        comm: Communicator,
                        wait_for: Sequence[CLEvent] = ()
                        ) -> Generator[Any, Any, CLEvent]:
    """``clEnqueueSendBuffer``: send ``buf[offset:offset+size]`` to rank
    ``dest``.

    The device becomes the *communicator device* for this transfer
    (§IV.A): the command executes inside the queue — serialized after its
    predecessors and its ``wait_for`` events — while the host thread
    returns immediately (unless ``blocking``).

    Returns the command's event; use it in later wait lists.
    """
    runtime = _runtime_of(queue)
    queue.context._check_buffer(buf)
    buf.check_range(offset, size)  # validate bounds at enqueue time

    def execute():
        yield from runtime.device_send(buf, offset, size, dest, tag, comm)

    return (yield from queue.enqueue_custom(
        CommandType.SEND_BUFFER, f"clmpi.send->r{dest} t{tag}", execute,
        wait_for=wait_for, blocking=blocking, nbytes=size, peer=dest,
        tag=tag, comm=comm, accesses=[(buf, offset, size, "r")]))


def enqueue_recv_buffer(queue: CommandQueue, buf: Buffer, blocking: bool,
                        offset: int, size: int, source: int, tag: int,
                        comm: Communicator,
                        wait_for: Sequence[CLEvent] = ()
                        ) -> Generator[Any, Any, CLEvent]:
    """``clEnqueueRecvBuffer``: receive into ``buf[offset:offset+size]``
    from rank ``source`` (a host thread or another communicator device)."""
    runtime = _runtime_of(queue)
    queue.context._check_buffer(buf)
    buf.check_range(offset, size)

    def execute():
        yield from runtime.device_recv(buf, offset, size, source, tag, comm)

    return (yield from queue.enqueue_custom(
        CommandType.RECV_BUFFER, f"clmpi.recv<-r{source} t{tag}", execute,
        wait_for=wait_for, blocking=blocking, nbytes=size, peer=source,
        tag=tag, comm=comm, accesses=[(buf, offset, size, "w")]))


def event_from_mpi_request(context, request: Request,
                           label: str = "mpi-request") -> UserEvent:
    """``clCreateEventFromMPIRequest`` (§IV.C, Fig 7).

    Returns an OpenCL user event that completes exactly when the
    nonblocking MPI operation behind ``request`` completes, so OpenCL
    commands can wait on MPI progress with no host involvement.

    The request must still be live: once a ``wait``/``test`` has consumed
    it, the handle is the analogue of ``MPI_REQUEST_NULL`` and bridging
    it is a use-after-free (raises :class:`ClmpiError`).  Bridging a
    request that has *completed* but has not been waited on is fine —
    the returned event is complete immediately.
    """
    env = request.env
    if request.consumed:
        message = (f"request {request.label!r} was already consumed by "
                   "wait/test (MPI_REQUEST_NULL); create the event before "
                   "waiting on the request")
        if env.probe is not None:
            env.probe.on_misuse("bridge-consumed-request", message,
                                entity=request)
        raise ClmpiError(message)
    uev = context.create_user_event(label)
    if env.probe is not None:
        env.probe.on_event_bridge(request, uev)

    def _fire(ev):
        if ev.ok:
            uev.set_complete()
        else:
            uev.set_failed(ev.value)

    if request.completion.processed:
        _fire(request.completion)
    else:
        request.completion.callbacks.append(_fire)
    return uev


# ---------------------------------------------------------------------------
# host-side MPI_CL_MEM wrappers (§IV.C)
# ---------------------------------------------------------------------------
def isend(runtime: ClmpiRuntime, array: Optional[np.ndarray], dest: int,
          tag: int, comm: Communicator, datatype: Datatype = CL_MEM,
          nbytes: Optional[int] = None) -> Generator[Any, Any, Request]:
    """``MPI_Isend(..., MPI_CL_MEM, ...)``: host buffer → remote device.

    With ``datatype=CL_MEM`` the receiver is expected to be a communicator
    device (its rank posts :func:`enqueue_recv_buffer`); the runtime picks
    an optimized collaboration — pipelined for large payloads — without
    the application spelling it out.  Any other datatype falls through to
    the plain MPI path.
    """
    if not datatype.is_cl_mem:
        return (yield from comm.isend(array, dest, tag))
    size = _payload_size(array, nbytes)
    side = runtime._host_side(array, size, comm)
    proc = runtime.env.process(
        runtime.do_send(side, dest, tag, comm),
        name=f"clmpi.host-send r{comm.rank}->r{dest}")
    req = Request(runtime.env, proc, kind="clmpi-send")
    if runtime.env.probe is not None:
        runtime.env.probe.on_clmpi_host_transfer(
            req, proc, "send", comm, dest, tag, size)
    return req


def irecv(runtime: ClmpiRuntime, array: Optional[np.ndarray], source: int,
          tag: int, comm: Communicator, datatype: Datatype = CL_MEM,
          nbytes: Optional[int] = None) -> Generator[Any, Any, Request]:
    """``MPI_Irecv(..., MPI_CL_MEM, ...)``: remote device → host buffer
    (the Fig 7 pattern)."""
    if not datatype.is_cl_mem:
        return (yield from comm.irecv(array, source, tag))
    size = _payload_size(array, nbytes)
    side = runtime._host_side(array, size, comm)
    proc = runtime.env.process(
        runtime.do_recv(side, source, tag, comm),
        name=f"clmpi.host-recv r{comm.rank}<-r{source}")
    req = Request(runtime.env, proc, kind="clmpi-recv")
    if runtime.env.probe is not None:
        runtime.env.probe.on_clmpi_host_transfer(
            req, proc, "recv", comm, source, tag, size)
    return req


def _payload_size(array: Optional[np.ndarray], nbytes: Optional[int]) -> int:
    """Resolve the payload size of a host-side CL_MEM transfer."""
    if nbytes is not None:
        return nbytes
    if array is None:
        raise ClmpiError("pass nbytes when array is None (timing-only)")
    return array.reshape(-1).view(np.uint8).nbytes


def send(runtime: ClmpiRuntime, array: Optional[np.ndarray], dest: int,
         tag: int, comm: Communicator, datatype: Datatype = CL_MEM,
         nbytes: Optional[int] = None) -> Generator[Any, Any, None]:
    """Blocking :func:`isend`."""
    req = yield from isend(runtime, array, dest, tag, comm, datatype, nbytes)
    yield from req.wait()
    yield from comm.node().host.sync_wakeup()


def recv(runtime: ClmpiRuntime, array: Optional[np.ndarray], source: int,
         tag: int, comm: Communicator, datatype: Datatype = CL_MEM,
         nbytes: Optional[int] = None) -> Generator[Any, Any, None]:
    """Blocking :func:`irecv`."""
    req = yield from irecv(runtime, array, source, tag, comm, datatype,
                           nbytes)
    yield from req.wait()
    yield from comm.node().host.sync_wakeup()

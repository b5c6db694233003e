"""Command queues (``cl_command_queue``).

An **in-order** queue executes its commands strictly one after another (a
command starts only when its predecessor completed *and* its wait list is
satisfied) — this is the serialization the Himeno code of Fig 2/6 relies
on.  An **out-of-order** queue starts each command as soon as its wait
list allows, so ordering comes only from events.

All ``enqueue_*`` methods are simulation coroutines (they charge the
calling host thread the API-call overhead and may block when
``blocking=True``); they return the command's :class:`CLEvent` —
``evt = yield from queue.enqueue_read_buffer(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from repro.errors import OclError
from repro.ocl.buffer import Buffer, _as_bytes
from repro.ocl.enums import CommandStatus, CommandType
from repro.ocl.event import CLEvent
from repro.ocl.kernel import Kernel
from repro.sim import Store

__all__ = ["Command", "CommandQueue"]


@dataclass
class Command:
    """One unit of queued work."""

    type: CommandType
    label: str
    event: CLEvent
    wait_events: tuple[CLEvent, ...]
    #: zero-arg factory returning the execution coroutine
    execute: Callable[[], Any]
    meta: dict = field(default_factory=dict)


class CommandQueue:
    """A command queue bound to one context/device."""

    def __init__(self, context, in_order: bool = True, name: str = ""):
        self.context = context
        self.device = context.device
        self.env = context.env
        self.in_order = in_order
        self.name = name or f"queue{self.env.next_id('queue')}"
        #: events of the commands not yet completed, in enqueue order
        #: (a dict used as an insertion-ordered set)
        self._pending: dict[CLEvent, None] = {}
        #: out-of-order queues: event of the latest barrier, which gates
        #: every subsequently enqueued command
        self._ooo_barrier: Optional[CLEvent] = None
        if in_order:
            self._fifo: Store = Store(self.env, name=f"{self.name}.fifo")
            self.env.process(self._dispatch_in_order(),
                             name=f"{self.name}.dispatcher")

    # ------------------------------------------------------------------
    # dispatch machinery
    # ------------------------------------------------------------------
    def _submit(self, cmd: Command) -> None:
        self._pending[cmd.event] = None
        cmd.event.completion.callbacks.append(
            lambda _e: self._pending.pop(cmd.event, None))
        if not self.in_order:
            if (self._ooo_barrier is not None
                    and cmd.type != CommandType.BARRIER
                    and not self._ooo_barrier.is_complete):
                cmd.wait_events = cmd.wait_events + (self._ooo_barrier,)
        if self.env.probe is not None:
            self.env.probe.on_command_enqueued(self, cmd)
        if self.in_order:
            self._fifo.put(cmd)
        else:
            self.env.process(self._run_one(cmd),
                             name=f"{self.name}.{cmd.label}")

    def _dispatch_in_order(self):
        while True:
            cmd = yield self._fifo.get()
            yield from self._run_one(cmd)

    def _run_one(self, cmd: Command):
        # Wait-list first (commands may depend on other queues' events).
        if cmd.wait_events:
            try:
                yield self.env.all_of([e.completion for e in cmd.wait_events])
            except BaseException as exc:
                failed = ", ".join(repr(e.label) for e in cmd.wait_events
                                   if e.error is not None) or repr(str(exc))
                cmd.event._fail(OclError(
                    "CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST",
                    f"{cmd.label!r} on queue {self.name!r}: wait-list "
                    f"event(s) {failed} failed: {exc}"))
                return
        cmd.event._advance(CommandStatus.SUBMITTED)
        cmd.event._advance(CommandStatus.RUNNING)
        if self.env.probe is not None:
            self.env.probe.on_command_running(cmd)
        try:
            yield from cmd.execute()
        except BaseException as exc:
            cmd.event._fail(exc)
            return
        cmd.event._advance(CommandStatus.COMPLETE)

    def _new_command(self, ctype: CommandType, label: str,
                     wait_for: Optional[Sequence[CLEvent]],
                     execute: Callable[[], Any], **meta) -> Command:
        wait = tuple(wait_for or ())
        for ev in wait:
            if not isinstance(ev, CLEvent):
                raise OclError("CL_INVALID_EVENT_WAIT_LIST",
                               f"wait list entry {ev!r} is not an event")
        event = CLEvent(self.env, ctype, label)
        return Command(ctype, label, event, wait, execute, dict(meta))

    def _enqueue(self, cmd: Command,
                 blocking: bool = False) -> Generator[Any, Any, CLEvent]:
        yield from self.context.host.api_call()
        self._submit(cmd)
        if blocking:
            yield cmd.event.completion
            if self.env.probe is not None:
                self.env.probe.on_host_sync([cmd.event])
            yield from self.context.host.sync_wakeup()
        return cmd.event

    # ------------------------------------------------------------------
    # kernel execution
    # ------------------------------------------------------------------
    def enqueue_nd_range_kernel(self, kernel: Kernel, args: Sequence[Any] = (),
                                wait_for: Sequence[CLEvent] = (),
                                label: str = ""
                                ) -> Generator[Any, Any, CLEvent]:
        """``clEnqueueNDRangeKernel``: run ``kernel`` with ``args``.

        Buffer arguments must belong to this queue's context; the kernel's
        functional body receives them as-is.
        """
        if not isinstance(kernel, Kernel):
            raise OclError("CL_INVALID_KERNEL", f"not a kernel: {kernel!r}")
        for a in args:
            if isinstance(a, Buffer):
                self.context._check_buffer(a, f"kernel arg of {kernel.name}")
        label = label or kernel.name
        args = tuple(args)

        def execute():
            duration = kernel.duration(self.device.spec, *args)
            yield from self.device.gpu.run_kernel(duration, label)
            kernel.run(*args, functional=self.context.functional)

        accesses = []
        if kernel.arg_access is not None:
            for a, mode in zip(args, kernel.arg_access):
                if isinstance(a, Buffer) and mode:
                    accesses.append((a, 0, a.size, mode))
        cmd = self._new_command(CommandType.NDRANGE_KERNEL, label, wait_for,
                                execute, kernel=kernel.name,
                                accesses=accesses)
        return (yield from self._enqueue(cmd))

    # ------------------------------------------------------------------
    # host <-> device transfers
    # ------------------------------------------------------------------
    def enqueue_read_buffer(self, buf: Buffer, blocking: bool, offset: int,
                            size: int, host_array: np.ndarray,
                            wait_for: Sequence[CLEvent] = (),
                            pinned: bool = True
                            ) -> Generator[Any, Any, CLEvent]:
        """``clEnqueueReadBuffer``: device → host copy.

        ``pinned`` says whether ``host_array`` models a page-locked
        allocation (§III footnote: vendors provide pinning via mapped
        host buffers; we model it as a flag).
        """
        self.context._check_buffer(buf)
        buf.check_range(offset, size)
        dst = None
        if host_array is not None:
            dst = _as_bytes(host_array)
            if dst.nbytes < size:
                raise OclError("CL_INVALID_VALUE",
                               f"host array of {dst.nbytes}B cannot hold "
                               f"{size}B")
        elif self.context.functional:
            raise OclError("CL_INVALID_HOST_PTR",
                           "host_array may only be None in timing-only mode")

        def execute():
            yield from self.device.pcie.d2h(size, pinned=pinned,
                                            label=f"read {buf.name}")
            if self.context.functional and dst is not None:
                dst[:size] = buf.bytes_view(offset, size)

        cmd = self._new_command(CommandType.READ_BUFFER, f"read:{buf.name}",
                                wait_for, execute, nbytes=size,
                                accesses=[(buf, offset, size, "r")])
        return (yield from self._enqueue(cmd, blocking))

    def enqueue_write_buffer(self, buf: Buffer, blocking: bool, offset: int,
                             size: int, host_array: np.ndarray,
                             wait_for: Sequence[CLEvent] = (),
                             pinned: bool = True
                             ) -> Generator[Any, Any, CLEvent]:
        """``clEnqueueWriteBuffer``: host → device copy."""
        self.context._check_buffer(buf)
        buf.check_range(offset, size)
        src = None
        if host_array is not None:
            src = _as_bytes(host_array)
            if src.nbytes < size:
                raise OclError("CL_INVALID_VALUE",
                               f"host array of {src.nbytes}B is smaller "
                               f"than the {size}B write")
        elif self.context.functional:
            raise OclError("CL_INVALID_HOST_PTR",
                           "host_array may only be None in timing-only mode")

        def execute():
            yield from self.device.pcie.h2d(size, pinned=pinned,
                                            label=f"write {buf.name}")
            if self.context.functional and src is not None:
                buf.bytes_view(offset, size)[:] = src[:size]

        cmd = self._new_command(CommandType.WRITE_BUFFER, f"write:{buf.name}",
                                wait_for, execute, nbytes=size,
                                accesses=[(buf, offset, size, "w")])
        return (yield from self._enqueue(cmd, blocking))

    def enqueue_copy_buffer(self, src: Buffer, dst: Buffer, src_offset: int,
                            dst_offset: int, size: int,
                            wait_for: Sequence[CLEvent] = ()
                            ) -> Generator[Any, Any, CLEvent]:
        """``clEnqueueCopyBuffer``: on-device copy (device memory b/w)."""
        self.context._check_buffer(src, "source")
        self.context._check_buffer(dst, "destination")
        src.check_range(src_offset, size)
        dst.check_range(dst_offset, size)

        def execute():
            # read + write of device memory
            duration = 2 * size / self.device.spec.mem_bandwidth
            yield from self.device.gpu.run_kernel(duration,
                                                  f"copy:{src.name}")
            if self.context.functional:
                dst.bytes_view(dst_offset, size)[:] = \
                    src.bytes_view(src_offset, size)

        cmd = self._new_command(CommandType.COPY_BUFFER,
                                f"copy:{src.name}->{dst.name}", wait_for,
                                execute, nbytes=size,
                                accesses=[(src, src_offset, size, "r"),
                                          (dst, dst_offset, size, "w")])
        return (yield from self._enqueue(cmd))

    # ------------------------------------------------------------------
    # mapping
    # ------------------------------------------------------------------
    def enqueue_map_buffer(self, buf: Buffer, blocking: bool = True,
                           offset: int = 0, size: Optional[int] = None,
                           wait_for: Sequence[CLEvent] = ()
                           ) -> Generator[Any, Any, tuple[CLEvent, np.ndarray]]:
        """``clEnqueueMapBuffer``; returns ``(event, mapped_view)``.

        The view is valid once the event completes.  Access *timing*
        through a mapping is the accessor's business (the clMPI mapped
        engine charges PCIe mapped bandwidth for its streaming).
        """
        self.context._check_buffer(buf)
        view = buf.bytes_view(offset, size)

        def execute():
            yield from self.device.pcie.map_buffer()
            buf._map()

        cmd = self._new_command(CommandType.MAP_BUFFER, f"map:{buf.name}",
                                wait_for, execute)
        event = yield from self._enqueue(cmd, blocking)
        return event, view

    def enqueue_unmap_mem_object(self, buf: Buffer,
                                 wait_for: Sequence[CLEvent] = ()
                                 ) -> Generator[Any, Any, CLEvent]:
        """``clEnqueueUnmapMemObject``."""
        self.context._check_buffer(buf)

        def execute():
            yield from self.device.pcie.map_buffer()
            buf._unmap()

        cmd = self._new_command(CommandType.UNMAP_MEM_OBJECT,
                                f"unmap:{buf.name}", wait_for, execute)
        return (yield from self._enqueue(cmd))

    # ------------------------------------------------------------------
    # ordering primitives
    # ------------------------------------------------------------------
    def enqueue_marker(self, wait_for: Sequence[CLEvent] = ()
                       ) -> Generator[Any, Any, CLEvent]:
        """``clEnqueueMarkerWithWaitList``: completes after ``wait_for``
        (and, in order, after all predecessors in this queue)."""

        def execute():
            yield self.env.timeout(0.0)

        cmd = self._new_command(CommandType.MARKER, "marker", wait_for,
                                execute)
        return (yield from self._enqueue(cmd))

    def enqueue_barrier(self) -> Generator[Any, Any, CLEvent]:
        """``clEnqueueBarrier``: all previously enqueued commands must
        complete before any later one starts (meaningful out-of-order)."""
        prior = tuple(ev for ev in self._pending if not ev.is_complete)

        def execute():
            yield self.env.timeout(0.0)

        cmd = self._new_command(CommandType.BARRIER, "barrier", prior,
                                execute)
        if not self.in_order:
            self._ooo_barrier = cmd.event
        return (yield from self._enqueue(cmd))

    # ------------------------------------------------------------------
    # generic extension commands (used by clMPI and file I/O)
    # ------------------------------------------------------------------
    def enqueue_custom(self, ctype: CommandType, label: str,
                       execute: Callable[[], Any],
                       wait_for: Sequence[CLEvent] = (),
                       blocking: bool = False,
                       **meta) -> Generator[Any, Any, CLEvent]:
        """Enqueue an extension command with a caller-supplied coroutine.

        This is the hook the clMPI layer uses: its inter-node transfer
        commands run *in the queue*, under exactly the same dispatch and
        event rules as built-in commands (§IV: "executed in the same
        manner as the other OpenCL commands").
        """
        cmd = self._new_command(ctype, label, wait_for, execute, **meta)
        return (yield from self._enqueue(cmd, blocking))

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """``clFlush``: a no-op here (commands are always submitted)."""

    def finish(self) -> Generator[Any, Any, None]:
        """``clFinish``: block the calling host thread until the queue
        drains.  Free when the queue is already empty (no wait, no
        wake-up — as with the real call)."""
        blocked = False
        drained: list[CLEvent] = []
        while self._pending:
            blocked = True
            waited = tuple(self._pending)
            drained.extend(waited)
            try:
                yield self.env.all_of([e.completion for e in waited])
            except GeneratorExit:
                raise  # host coroutine torn down (abandoned at env end)
            except BaseException:
                # a command failed; its error lives on its event
                # (clFinish itself still just waits for the drain)
                pass
        if blocked:
            if self.env.probe is not None:
                self.env.probe.on_host_sync(drained)
            yield from self.context.host.sync_wakeup()
        else:
            yield from self.context.host.api_call()

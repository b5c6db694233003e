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

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from repro.errors import OclError
from repro.ocl.buffer import Buffer, _as_bytes
from repro.ocl.enums import CommandStatus, CommandType
from repro.ocl.event import CLEvent
from repro.ocl.kernel import Kernel
from repro.sim import Chain, Event, SimulationError
from repro.sim.core import PENDING, PROCESSED

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


def _wait_list_error(cmd: Command, queue_name: str,
                     exc: BaseException) -> OclError:
    failed = ", ".join(repr(e.label) for e in cmd.wait_events
                       if e.error is not None) or repr(str(exc))
    return OclError(
        "CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST",
        f"{cmd.label!r} on queue {queue_name!r}: wait-list "
        f"event(s) {failed} failed: {exc}")


class _Dispatcher(Chain):
    """An in-order queue's dispatcher: a chain that takes the queue's
    commands one at a time, waits for each one's wait list, and steps
    its body.  :meth:`put` kicks it when it is idle.

    It pushes the calendar entries a dispatcher process reading a FIFO
    mailbox would: the ``HIGH`` bootstrap, one ``NORMAL`` entry when it
    takes each command, and the wait-list condition, kicks and body
    targets of each command — all labelled ``<queue>.dispatcher``.
    While it steps, it is the environment's active process, so observers
    attribute what a command does (an MPI operation posted by a clMPI
    body) to that command.

    It holds no reference to its queue: a queue and its context die by
    reference counting once the program drops them.
    """

    __slots__ = ("_queue_name", "_cmds", "_idle", "_cmd", "_body",
                 "_waiting_on")

    def __init__(self, env, queue_name: str):
        super().__init__(env, f"{queue_name}.dispatcher")
        self._queue_name = queue_name
        self._cmds: deque[Command] = deque()
        self._idle = False
        self._cmd: Optional[Command] = None
        self._body = None
        #: what it is parked on (the deadlock detector's wait edge)
        self._waiting_on: Optional[Event] = None
        self._boot(_Dispatcher._take)

    @property
    def is_alive(self) -> bool:
        """True until a step raised (a dispatcher never finishes)."""
        return self._state == PENDING

    def put(self, cmd: Command) -> None:
        """Queue ``cmd``; an idle dispatcher takes it at once."""
        if not self._idle:
            self._cmds.append(cmd)
            return
        self._idle = False
        taken = Event(self.env)
        self._wait(taken, _Dispatcher._start)
        self._waiting_on = taken
        taken.succeed(cmd)

    def _resume(self, event: Event) -> None:
        env = self.env
        if not event._ok:
            event._defused = True
        env._active_process = self
        try:
            nxt = self._step(self, event)
        except BaseException as exc:
            env._active_process = None
            self._waiting_on = None
            self.fail(exc)
            return
        env._active_process = None
        if nxt is None:  # idle until put()
            self._waiting_on = None
            return
        target, step = nxt
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; coroutines "
                "must yield Event instances (did you forget 'yield from'?)")
        self._waiting_on = target
        if target._state != PROCESSED:  # Chain._wait's live-target case
            self._step = step
            target.callbacks.append(self._resume)
        else:
            self._wait(target, step)

    # -- steps ------------------------------------------------------------
    def _take(self, _event=None):
        self._cmd = None
        if not self._cmds:
            self._idle = True
            return None
        taken = Event(self.env)
        taken.succeed(self._cmds.popleft())
        return taken, _Dispatcher._start

    def _start(self, event):
        cmd = self._cmd = event._value
        # wait list first (commands may depend on other queues' events)
        if cmd.wait_events:
            return (self.env.all_of([e.completion for e in cmd.wait_events]),
                    _Dispatcher._waited)
        return self._run(cmd)

    def _waited(self, event):
        cmd = self._cmd
        if not event._ok:
            cmd.event._fail(_wait_list_error(cmd, self._queue_name,
                                             event._value))
            return self._take()
        return self._run(cmd)

    def _run(self, cmd: Command):
        cmd.event._advance(CommandStatus.SUBMITTED)
        cmd.event._advance(CommandStatus.RUNNING)
        if self.env.probe is not None:
            self.env.probe.on_command_running(cmd)
        self._body = cmd.execute()
        return self._step_body(True, None)

    def _stepped(self, event):
        return self._step_body(event._ok, event._value)

    def _step_body(self, ok: bool, value: Any):
        try:
            target = (self._body.send(value) if ok
                      else self._body.throw(value))
        except StopIteration:
            failure = None
        except BaseException as exc:
            failure = exc
        else:
            return target, _Dispatcher._stepped
        self._body = None
        if failure is None:
            self._cmd.event._advance(CommandStatus.COMPLETE)
        else:
            self._cmd.event._fail(failure)
        return self._take()


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
            self._dispatcher = _Dispatcher(self.env, self.name)

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
            self._dispatcher.put(cmd)
        else:
            self.env.process(self._run_one(cmd),
                             name=f"{self.name}.{cmd.label}")

    def _run_one(self, cmd: Command):
        """An out-of-order command's process: the in-order dispatcher's
        steps as one coroutine."""
        if cmd.wait_events:
            try:
                yield self.env.all_of([e.completion for e in cmd.wait_events])
            except BaseException as exc:
                cmd.event._fail(_wait_list_error(cmd, self.name, exc))
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

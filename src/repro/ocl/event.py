"""OpenCL event objects.

A :class:`CLEvent` tracks a command through the queued → submitted →
running → complete lifecycle, records profiling timestamps at each
transition (``CL_PROFILING_COMMAND_*``), runs status callbacks
(``clSetEventCallback``), and exposes a simulation event that waiters
block on.

:class:`UserEvent` is ``clCreateUserEvent``: the application (or the clMPI
runtime, exactly as §V.A describes) completes it explicitly.  Our user
events mimic command events fully — status, profiling, callbacks — which
is the property the paper's implementation had to build by hand on top of
NVIDIA's runtime.

When an :class:`~repro.analysis.Sanitizer` is active, every lifecycle
transition is reported to ``env.monitor`` so the analysis layer can build
its happens-before graph (see :mod:`repro.analysis`).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.errors import OclError
from repro.ocl.enums import CommandStatus, CommandType, error_code
from repro.sim import Environment, Event

__all__ = ["CLEvent", "UserEvent"]


class CLEvent:
    """Event bound to one enqueued command."""

    def __init__(self, env: Environment,
                 command_type: CommandType = CommandType.USER,
                 label: str = ""):
        self.env = env
        self.command_type = command_type
        self.label = label or command_type.value
        self._status = CommandStatus.QUEUED
        #: profiling timestamps, keyed by CommandStatus
        self.profile: dict[CommandStatus, float] = {
            CommandStatus.QUEUED: env.now,
        }
        #: simulation event fired on completion, with no value (None):
        #: a value pointing back at this CLEvent would be a reference
        #: cycle per command; a failed command fails it with the error
        self.completion = Event(env)
        self._callbacks: list[tuple[CommandStatus,
                                    Callable[["CLEvent", CommandStatus], None]]] = []
        #: failure exception, if the command failed (or a callback raised)
        self.error: Optional[BaseException] = None
        mon = env.monitor
        if mon is not None:
            mon.on_event_created(self)

    # -- status -----------------------------------------------------------
    @property
    def status(self) -> CommandStatus:
        """Current execution status."""
        return self._status

    @property
    def is_complete(self) -> bool:
        return self._status == CommandStatus.COMPLETE

    @property
    def execution_status(self) -> int:
        """``CL_EVENT_COMMAND_EXECUTION_STATUS`` as a ``cl_int``.

        Non-negative while the command progresses normally (QUEUED=3 …
        COMPLETE=0); a *negative* error code once the command terminated
        abnormally — exactly the spec's encoding, which is what the clMPI
        runtime inspects to decide whether a transfer must degrade.
        """
        if self.error is not None:
            return error_code(getattr(self.error, "code",
                                      "CL_INVALID_OPERATION"))
        return int(self._status)

    def _advance(self, status: CommandStatus) -> None:
        if status > self._status:  # IntEnum: later stages compare smaller
            raise OclError("CL_INVALID_OPERATION",
                           f"event {self.label!r}: status cannot go "
                           f"{self._status.name} -> {status.name}")
        self._status = status
        self.profile[status] = self.env.now
        metrics = self.env.metrics
        if metrics is not None:
            metrics.inc(f"ocl.event.{status.name.lower()}")
        mon = self.env.monitor
        if mon is not None:
            mon.on_event_status(self, status)
        for trigger, fn in list(self._callbacks):
            if trigger == status:
                self._dispatch_callback(fn, status)
        if status == CommandStatus.COMPLETE:
            self.completion.succeed()

    def _fail(self, exc: BaseException) -> None:
        self.error = exc
        self._status = CommandStatus.COMPLETE
        self.profile[CommandStatus.COMPLETE] = self.env.now
        if self.env.metrics is not None:
            self.env.metrics.inc("ocl.event.failed")
        mon = self.env.monitor
        if mon is not None:
            mon.on_event_failed(self, exc)
        for trigger, fn in list(self._callbacks):
            if trigger == CommandStatus.COMPLETE:
                self._dispatch_callback(fn, CommandStatus.COMPLETE)
        self.completion.fail(exc)
        # OpenCL semantics: a command failure is event *status*, observed
        # by whoever waits on the event (possibly later, possibly never) —
        # it must not crash the world when unobserved at fire time.
        self.completion._defused = True

    def _dispatch_callback(self, fn: Callable[["CLEvent", CommandStatus], None],
                           status: CommandStatus) -> None:
        """Run one ``clSetEventCallback`` callback.

        A raising callback must not unwind the simulator (the real driver
        runs callbacks on an internal thread the application cannot
        crash): the exception is captured on :attr:`error` and surfaced
        through the sanitizer's report instead.
        """
        try:
            fn(self, status)
        except Exception as exc:
            if self.error is None:
                self.error = exc
            mon = self.env.monitor
            if mon is not None:
                mon.on_callback_error(self, exc)

    def _misuse(self, kind: str, message: str) -> None:
        """Report an API-misuse to the monitor, then raise it."""
        mon = self.env.monitor
        if mon is not None:
            mon.on_misuse(kind, message, entity=self)
        raise OclError("CL_INVALID_OPERATION", message)

    # -- public API --------------------------------------------------------
    def set_callback(self, fn: Callable[["CLEvent", CommandStatus], None],
                     status: CommandStatus = CommandStatus.COMPLETE) -> None:
        """Register ``fn(event, status)`` for a status transition
        (``clSetEventCallback``).  Fires immediately if already reached."""
        if self._status <= status:
            self._dispatch_callback(fn, status)
        else:
            self._callbacks.append((status, fn))

    def wait(self) -> Generator[Any, Any, "CLEvent"]:
        """Coroutine: suspend until complete (``clWaitForEvents`` on one)."""
        yield self.completion
        mon = self.env.monitor
        if mon is not None:
            mon.on_host_sync([self])
        return self

    def duration(self) -> float:
        """RUNNING→COMPLETE profiling delta (``CL_PROFILING_*`` math)."""
        try:
            return (self.profile[CommandStatus.COMPLETE]
                    - self.profile[CommandStatus.RUNNING])
        except KeyError:
            raise OclError("CL_PROFILING_INFO_NOT_AVAILABLE",
                           f"event {self.label!r} has not run") from None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CLEvent {self.label!r} {self._status.name}>"


class UserEvent(CLEvent):
    """``clCreateUserEvent``: completed explicitly by the application."""

    def __init__(self, env: Environment, label: str = "user-event"):
        super().__init__(env, CommandType.USER, label)
        self._status = CommandStatus.SUBMITTED
        self.profile[CommandStatus.SUBMITTED] = env.now

    def set_complete(self) -> None:
        """Mark the user event complete (``clSetUserEventStatus(CL_COMPLETE)``)."""
        if self.is_complete:
            self._misuse(
                "double-complete",
                f"user event {self.label!r} has already completed; "
                "clSetUserEventStatus may be called at most once")
        self._advance(CommandStatus.RUNNING)
        self._advance(CommandStatus.COMPLETE)

    def set_failed(self, exc: BaseException) -> None:
        """Mark the user event failed (negative status in the C API)."""
        if self.is_complete:
            self._misuse(
                "double-complete",
                f"user event {self.label!r} has already completed; "
                "it cannot be failed afterwards")
        self._fail(exc)

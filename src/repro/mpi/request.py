"""Nonblocking-operation requests (``MPI_Request``)."""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from repro.sim import Environment, Event

__all__ = ["Request", "waitall", "waitany", "testall"]


class Request:
    """Handle for a nonblocking send/receive.

    Wraps a completion :class:`~repro.sim.Event`; for receives the event
    value is the :class:`~repro.mpi.status.Status`.

    Use inside a simulation coroutine::

        req = comm.irecv(buf, source=1, tag=0)
        ...                       # overlap other work here
        status = yield from req.wait()
    """

    #: receive requests carry their PostedRecv so callers can read
    #: matching results beyond the Status (e.g. the causal flow id)
    posted = None

    def __init__(self, env: Environment, completion: Event, kind: str = "op"):
        self.env = env
        self.completion = completion
        self.kind = kind
        self._label: Optional[str] = None
        #: True once the request has been consumed by a successful
        #: ``wait``/``test`` (the analogue of MPI freeing the request and
        #: replacing the handle with ``MPI_REQUEST_NULL``)
        self.consumed = False
        if env.probe is not None:
            env.probe.on_request_created(self)

    @property
    def label(self) -> str:
        """Human-readable handle name, materialized on first use."""
        if self._label is None:
            self._label = f"{self.kind}#{self.env.next_id(self.kind)}"
        return self._label

    @property
    def done(self) -> bool:
        """True once the operation has completed (non-consuming probe)."""
        return self.completion.triggered

    def wait(self) -> Generator[Any, Any, Any]:
        """Coroutine: block until completion; returns the Status (recv).

        A failed operation raises out of the wait, but the request still
        counts as consumed — MPI_Wait on an erroneous operation frees
        the handle all the same.
        """
        try:
            result = yield self.completion
        except BaseException:
            self.consumed = True
            raise
        self.consumed = True
        return result

    def test(self) -> tuple[bool, Optional[Any]]:
        """Nonblocking completion probe: ``(done, status-or-None)``."""
        if self.completion.triggered:
            self.consumed = True
            return True, self.completion.value
        return False, None


def waitall(env: Environment,
            requests: Iterable[Request]) -> Generator[Any, Any, list]:
    """Coroutine: wait for every request; returns their values in order."""
    requests = list(requests)
    values = yield env.all_of([r.completion for r in requests])
    for r in requests:
        r.consumed = True
    return values


def waitany(env: Environment,
            requests: list[Request]) -> Generator[Any, Any, tuple[int, Any]]:
    """Coroutine: wait for the first completion; returns ``(index, value)``."""
    event, value = yield env.any_of([r.completion for r in requests])
    for i, req in enumerate(requests):
        if req.completion is event:
            req.consumed = True
            return i, value
    raise RuntimeError("completed event not among requests")  # pragma: no cover


def testall(requests: Iterable[Request]) -> bool:
    """True if every request has completed (no time passes)."""
    return all(r.done for r in requests)

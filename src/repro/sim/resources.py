"""Shared-resource primitive for the DES core.

:class:`Resource` models a fixed number of identical servers (a PCIe copy
engine, a NIC port, a GPU compute engine).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.sim.core import PENDING, Environment, Event, SimulationError

__all__ = ["Resource"]


class Request(Event):
    """Grant event handed out by :meth:`Resource.request`.

    It fires with itself as its value; :meth:`Resource.release` resets
    the value to None, so a released grant holds no reference cycle.
    """

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource"):
        # Event.__init__ inlined: one grant per port hold on every message.
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = PENDING
        self._defused = False
        self.resource = resource


class Resource:
    """``capacity`` identical servers with a FIFO wait queue.

    Usage (inside a simulation coroutine)::

        grant = yield from link.acquire()
        try:
            yield env.timeout(cost)
        finally:
            link.release(grant)
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._queue: deque[Request] = deque()

    # -- introspection -----------------------------------------------------
    @property
    def count(self) -> int:
        """Number of grants currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting."""
        return len(self._queue)

    # -- protocol ------------------------------------------------------------
    def request(self) -> Request:
        """Return a grant event; it fires when a server is free (FIFO)."""
        req = Request(self.env, self)
        if len(self._users) < self.capacity and not self._queue:
            self._users.add(req)
            req.succeed(req)
        else:
            self._queue.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a previously granted server; wakes the next waiter."""
        if req in self._users:
            self._users.remove(req)
            # a held grant's value is the grant itself: drop that
            # self-reference so the released grant dies by refcount
            req._value = None
        elif req in self._queue:  # cancelled before grant
            self._queue.remove(req)
            return
        else:
            raise SimulationError(f"release of a grant not held on {self.name!r}")
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed(nxt)

    def acquire(self) -> Generator[Event, Any, Request]:
        """Coroutine helper: ``grant = yield from res.acquire()``."""
        req = self.request()
        yield req
        return req

"""Deterministic discrete-event simulation (DES) core.

Everything in :mod:`repro` runs on this engine.  It plays the role that the
real operating system, POSIX threads, and wall-clock time played in the
paper's testbeds: simulated "host threads" are generator-based coroutines
scheduled on a virtual clock, so blocking a host thread to serialize MPI
and OpenCL operations (the exact pathology the paper attacks) is modelled
precisely and deterministically.

Coroutine convention
--------------------
A *simulation coroutine* is a generator that yields :class:`Event`
instances (or uses ``yield from`` to delegate to sub-coroutines).  A
coroutine becomes a schedulable :class:`Process` via
:meth:`Environment.process`.  ``yield event`` suspends the coroutine until
the event fires; the ``yield`` expression evaluates to the event's value.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(1.5)
...     return env.now
>>> p = env.process(hello(env))
>>> env.run()
>>> p.value
1.5
"""

from repro.sim.core import (
    ENGINES,
    HIGH,
    LOW,
    NORMAL,
    POINT_ENGINES,
    AllOf,
    AnyOf,
    Chain,
    EngineError,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    try_vectorized,
)
from repro.sim.resources import Resource
from repro.sim.trace import Tracer, TraceRecord

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Chain",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "EngineError",
    "ENGINES",
    "POINT_ENGINES",
    "try_vectorized",
    "Resource",
    "TraceRecord",
    "Tracer",
    "NORMAL",
    "HIGH",
    "LOW",
]

"""DES engine: virtual clock, events, and generator-based processes.

The engine is a classic calendar-queue simulator.  The event heap is
ordered by ``(time, priority, sequence)`` so runs are bit-for-bit
reproducible: ties at equal timestamps resolve first by priority band and
then by scheduling order.

Cross-engine determinism invariant
----------------------------------
Two execution engines share the :class:`Environment` facade (select with
``Environment(engine=...)``):

* ``"coroutine"`` (default) — this module's generator-based calendar.
* ``"vectorized"`` — :mod:`repro.sim.vectorized`, a timing-only engine
  that batches homogeneous events into NumPy array operations and
  virtualizes ranks (P simulated ranks never cost P Python coroutines).

Byte-identical results across engines rest on one invariant: **at equal
virtual timestamps, outcomes are fixed by the ``(time, priority,
sequence)`` order and never by anything the tie-break cannot see.**
Concretely:

* Ties at one timestamp fire in priority bands ``HIGH`` (process
  bootstrap/kicks) → ``NORMAL`` (timeouts, completions) → ``LOW``
  (deferred-matching flush rounds), then in scheduling (``_seq``) order
  within a band — exactly the order :meth:`Environment._run_scheduled`
  exposes to schedule policies as explicit tie batches.
* Every *timing-relevant* consequence of a tie is a pure ``max``: a
  FIFO :class:`~repro.sim.resources.Resource` wakes its next waiter at
  the release timestamp itself, so a waiter's start time is
  ``max(request_time, release_time)`` regardless of which same-time
  entry fired first.  The vectorized engine replays these chains as
  elementwise float64 ``max``/``+``/``*``/``/`` operations — IEEE-754
  identical to the scalar arithmetic performed here — which is what
  makes bit-for-bit agreement achievable without running coroutines.
* Therefore no layer may make a timing decision depend on heap *arrival*
  order beyond the ``(time, priority, sequence)`` key (e.g. iterating a
  ``set`` of waiters, or branching on ``len(heap)``).  Matching (see
  :mod:`repro.mpi.matching`) is registration-order FIFO for the same
  reason.

Hot-path notes (see docs/performance.md)
----------------------------------------
A sweep spends nearly all of its real time inside this module, so the
inner loop is written for CPython's profile rather than for symmetry:

* ``succeed``/``fail``/``Timeout`` push onto the calendar directly,
  with no scheduling helper in between (one call frame per event saved).
* Each :class:`Process` caches its bound ``_resume`` once instead of
  materialising a fresh bound method per wait, and drops it when the
  coroutine exits (the cached method points back at its process).
* Per-grant, per-command and per-process objects hold no reference
  cycle once they are done (a grant's value is cleared on release, a
  finished process drops its cached ``_resume``, an OpenCL completion
  fires with no value), so reference counting frees them the moment
  they die.  Each cycle left on the hot path is work for CPython's
  cycle collector, whose collections are triggered by allocation
  counts and scan every young object each time.
* Bootstrapping a process or chain and resuming one that waits on an
  *already processed* event go through one helper, :func:`_kick`: a
  plain :class:`Event` pushed as one ``HIGH`` entry at ``now`` that
  hands the outcome to the resume callback.  A waiter on a live event
  pushes nothing.  An interrupt is a ``HIGH`` kick failed with
  :class:`Interrupt`, so it too resumes through ``_resume``.
* Per-message work (the MPI send and receive sides) and the in-order
  OpenCL queue's dispatcher run as a :class:`Chain` — steps as
  callbacks on the awaited events — instead of a generator process.  A
  chain pushes one calendar entry per step, exactly the one a process
  would (``HIGH`` bootstrap, ``HIGH`` kick for an already-processed
  target), so the heap order is unchanged.
* A point's world dies by reference counting too: no parked process
  keeps a cached ``_resume`` (the queue dispatchers are chains), and the
  OpenCL context's back-references (buffer → context, context → queue)
  are weak, so the cluster, contexts, queues and buffers are freed the
  moment a point drops them.  A coroutine point of any sweep workload
  leaves nothing for the cycle collector.
* So :meth:`Environment.run` turns the cycle collector off while any
  run is in progress (in any thread, nested or not) and puts it back
  as it was when the last run returns or raises.  Inside a run the
  collector would only rescan the live world, as its allocation count
  grows, and free nothing; one ``paper_cold`` pass went from 176
  collections freeing about 45k objects to 24 freeing none.
* ``Environment.run`` inlines :meth:`step` so the drain loop costs one
  heappop plus one callback dispatch per event.
"""

from __future__ import annotations

import gc
import threading
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.probe import Tee, fan_out

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
    "NORMAL",
    "HIGH",
    "LOW",
]

#: Engine names accepted by ``Environment(engine=...)``.
ENGINES = ("coroutine", "vectorized")
#: Engine names a timing-only point accepts (:func:`try_vectorized`).
POINT_ENGINES = ENGINES + ("auto",)

#: Priority bands for same-timestamp ordering.  Lower sorts earlier.
HIGH = 0
NORMAL = 1
LOW = 2

# Event lifecycle states.
PENDING = 0
TRIGGERED = 1  # scheduled on the heap, callbacks not yet run
PROCESSED = 2  # callbacks have run


class SimulationError(RuntimeError):
    """Raised for engine misuse (double-trigger, yielding non-events, ...)."""


class EngineError(SimulationError):
    """Raised for execution-engine misuse.

    Examples: spawning a coroutine on a vectorized environment (rank
    virtualization means P ranks never get P generator frames), asking
    the vectorized engine for a functional (payload-moving) run, or
    requesting an unknown engine name.
    """


def _check_engine(engine: str, allowed: tuple = ENGINES) -> None:
    if engine not in allowed:
        raise EngineError(
            f"unknown engine {engine!r}; choose from {allowed}")


def try_vectorized(engine: str, replay: Callable[[], Any], *,
                   functional: bool = False,
                   unsupported: dict[str, bool] | None = None) -> Any:
    """The apps' engine policy for one point: ``replay()`` (a mesoscale
    model of the point), or None where the caller runs its coroutine
    program — always for ``"coroutine"``.

    ``"vectorized"`` raises :class:`EngineError` for a functional run, a
    requested ``unsupported`` feature (name → requested) or the replay's
    own refusal; ``"auto"`` returns None there (same row, no warning).
    """
    _check_engine(engine, POINT_ENGINES)
    if engine == "coroutine":
        return None
    try:
        if functional:
            raise EngineError(
                "engine='vectorized' is timing-only: functional "
                "(payload-moving) runs need engine='coroutine' (pass "
                "functional=False for mesoscale sweeps)")
        asked = [name for name, on in (unsupported or {}).items() if on]
        if asked:
            raise EngineError(
                f"engine='vectorized' does not support {', '.join(asked)}")
        return replay()
    except EngineError:
        if engine == "auto":
            return None
        raise


#: ``Environment.run`` calls in progress, in every thread
_runs = 0
_runs_lock = threading.Lock()
#: whether the collector was enabled when the outermost run began
_collector_was_enabled = False


def _pause_collector() -> None:
    """Enter a run: the first of the runs in progress turns the cycle
    collector off, noting whether it was on."""
    global _runs, _collector_was_enabled
    with _runs_lock:
        if _runs == 0:
            _collector_was_enabled = gc.isenabled()
            gc.disable()
        _runs += 1


def _resume_collector() -> None:
    """Leave a run: the last of the runs in progress turns the collector
    back on if it was on before the first began."""
    global _runs
    with _runs_lock:
        _runs -= 1
        if _runs == 0 and _collector_was_enabled:
            gc.enable()


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the virtual timeline.

    An event starts *pending*, is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, and then has its callbacks run at the
    trigger time.  Processes waiting on a failed event have the failure
    exception re-raised at their ``yield`` site.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: int = PENDING
        self._defused: bool = False

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception)."""
        if self._state == PENDING:
            raise SimulationError("value of a pending event is undefined")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        env = self.env
        env._seq += 1
        heappush(env._heap, (env._now, priority, env._seq, self))
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiters will see ``exc`` raised."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self._ok = False
        self._value = exc
        self._state = TRIGGERED
        env = self.env
        env._seq += 1
        heappush(env._heap, (env._now, priority, env._seq, self))
        return self

    def trigger_from(self, other: "Event") -> None:
        """Mirror another (already triggered) event's outcome."""
        if other._ok:
            self.succeed(other._value)
        else:
            other._defused = True
            self.fail(other._value)

    # -- internal ---------------------------------------------------------
    def _run_callbacks(self) -> None:
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)
        if not self._ok and not self._defused:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self._defused = False
        env._seq += 1
        heappush(env._heap, (env._now + delay, priority, env._seq, self))


def _kick(env: "Environment", resume: Callable,
          target: Optional[Event] = None) -> Event:
    """Call ``resume`` on the next scheduling round at the current time —
    one ``HIGH`` entry after those already due now — with an event
    carrying ``target``'s outcome (a plain success when None).

    This is how a process or chain is bootstrapped and how it resumes on
    a target that has already been processed.  Returns the pushed event.
    A carried failure is defused on the kick too: ``resume`` is its only
    consumer, and if an interrupt detaches ``resume`` first, the failure
    already surfaced when ``target`` fired.
    """
    kick = Event(env)
    kick.callbacks.append(resume)
    if target is not None:
        kick._ok = target._ok
        kick._value = target._value
        if not target._ok:
            target._defused = True
            kick._defused = True
    kick._state = TRIGGERED
    env._seq += 1
    heappush(env._heap, (env._now, HIGH, env._seq, kick))
    return kick


class Process(Event):
    """A running simulation coroutine.

    A ``Process`` is itself an event that fires when the coroutine
    finishes: its value is the coroutine's ``return`` value, or the
    exception if the coroutine raised.
    """

    __slots__ = ("_generator", "_waiting_on", "_resume_cb", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = PENDING
        self._defused = False
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        _kick(env, self._resume_cb)

    @property
    def is_alive(self) -> bool:
        """True while the coroutine has not finished."""
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the coroutine at its yield point."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has already terminated")
        target = self._waiting_on
        if target is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._waiting_on = None
        kick = Event(self.env)
        kick.callbacks.append(self._resume_cb)
        kick.fail(Interrupt(cause), priority=HIGH)

    # -- coroutine stepping -------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._resume_cb = None
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # No waiters: complete in place, skipping the calendar
                # round-trip.  Anyone who yields or inspects the process
                # afterwards sees an ordinary processed event.  (Failures
                # below always go through the calendar so an unhandled
                # one still propagates out of Environment.run.)
                self._value = stop.value
                self._state = PROCESSED
            return
        except BaseException as exc:
            env._active_process = None
            self._resume_cb = None
            self.fail(exc)
            return
        env._active_process = None
        # Fast path: waiting on a live event — append the cached bound
        # resume to its callbacks.  Everything else (processed targets,
        # non-events) takes the slow path.
        if target.__class__ is Timeout or isinstance(target, Event):
            if target._state != PROCESSED:
                target.callbacks.append(self._resume_cb)
                self._waiting_on = target
                return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; coroutines must "
                "yield Event instances (did you forget 'yield from'?)")
        if target._state == PROCESSED:
            # already fired: resume on the next scheduling round
            self._waiting_on = _kick(self.env, self._resume_cb, target)
        else:
            target.callbacks.append(self._resume_cb)
            self._waiting_on = target


#: what a :class:`Chain` step returns: the event to wait on and the step
#: to run when it fires, or None once the chain is finished
Next = Optional[tuple[Event, Callable]]


class Chain(Event):
    """A process without a generator: a callback state machine.

    Subclasses split their work into *steps*: functions of the chain and
    the event that woke it.  A step returns ``(event, next_step)`` to
    wait — the way a process yields — or None once the chain is
    finished.  Steps are passed unbound (``Cls._step``), so a parked
    chain holds no reference cycle and a finished one is freed at once.
    :meth:`_boot` schedules the first step; :meth:`_wait` parks a chain
    started from outside a step.

    The calendar sees exactly the entries a :class:`Process` running the
    same code would push — one ``HIGH`` bootstrap entry, a ``HIGH`` kick
    for an already-processed target, nothing extra for a live one — so
    ``(time, priority, sequence)`` ties resolve as before, and ``name``
    labels the chain's entries in verifier tie batches the same way a
    process name does.

    Like a process, a chain is an event that nobody usually waits on: it
    finishes in place, and a step that raises fails the chain through
    the calendar, so an unhandled error still propagates out of
    :meth:`Environment.run`.  A failed event the chain waited on is
    defused before its step runs; the step reads ``event.ok`` and
    re-raises what it does not handle.
    """

    __slots__ = ("name", "_step")

    def __init__(self, env: "Environment", name: str):
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = PENDING
        self._defused = False
        self.name = name

    def _boot(self, step: Callable) -> None:
        """Run ``step`` at the current time, after the entries already
        due now (a process bootstrap)."""
        self._step = step
        _kick(self.env, self._resume)

    def _wait(self, target: Event, step: Callable) -> None:
        """Run ``step`` when ``target`` fires."""
        self._step = step
        if target._state != PROCESSED:
            target.callbacks.append(self._resume)
        else:
            _kick(self.env, self._resume, target)

    def _resume(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
        try:
            nxt = self._step(self, event)
        except BaseException as exc:
            self.fail(exc)
            return
        if nxt is None:
            # finished: in place, unless a step already triggered the
            # chain or someone waits on it
            if self._state == PENDING:
                if self.callbacks:
                    self.succeed()
                else:
                    self._state = PROCESSED
            return
        target, self._step = nxt
        if target._state != PROCESSED:
            target.callbacks.append(self._resume)
        else:
            _kick(self.env, self._resume, target)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
        # Count pending children BEFORE dispatching immediate checks, or
        # an already-processed first child would observe pending == 0 and
        # fire the condition while later children are still outstanding.
        self._pending = sum(1 for ev in self.events if not ev.processed)
        for ev in self.events:
            if ev.processed:
                self._check(ev, immediate=True)
            else:
                ev.callbacks.append(self._check)
        self._finalize_empty()

    def _finalize_empty(self) -> None:
        raise NotImplementedError

    def _check(self, event: Event, immediate: bool = False) -> None:
        raise NotImplementedError

    def _late_child(self, event: Event) -> None:
        """Handle a child firing after the condition itself has fired.

        A late *failure* must still be defused: the condition no longer
        propagates it (it already has an outcome), and without defusing it
        the exception would escape :meth:`Environment.run`.
        """
        if not event._ok:
            event._defused = True


class AllOf(_Condition):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ()

    def _finalize_empty(self) -> None:
        if self._state == PENDING and self._pending == 0:
            self.succeed([ev._value for ev in self.events])

    def _check(self, event: Event, immediate: bool = False) -> None:
        if self._state != PENDING:
            self._late_child(event)
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        if not immediate:
            self._pending -= 1
        if self._pending == 0:
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Fires when the first child event fires; value is ``(event, value)``."""

    __slots__ = ()

    def _finalize_empty(self) -> None:
        if self._state == PENDING and not self.events:
            self.succeed((None, None))

    def _check(self, event: Event, immediate: bool = False) -> None:
        if self._state != PENDING:
            self._late_child(event)
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed((event, event._value))


class Environment:
    """The simulation environment: virtual clock plus the event calendar.

    ``engine`` selects the execution engine behind this facade:
    ``"coroutine"`` (default) runs generator processes on the event heap;
    ``"vectorized"`` exposes the NumPy batch engine at :attr:`vector`
    (see :mod:`repro.sim.vectorized`) and *refuses* to spawn coroutines —
    timing-only models advance the shared clock through array operations
    instead.  Both engines honour the cross-engine determinism invariant
    documented at the top of this module.
    """

    def __init__(self, initial_time: float = 0.0,
                 engine: str = "coroutine"):
        _check_engine(engine)
        self.engine = engine
        self._vector = None
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: The observer slot (see :mod:`repro.sim.probe`): the tracer,
        #: metrics registry and sanitizer recorder attached with
        #: :meth:`attach`.  Detached (None) costs one attribute test per
        #: instrumentation site; the run loop accounts events via
        #: ``_seq`` deltas, never per event.
        self.probe = None
        #: Optional fault injector (see :mod:`repro.faults`); hardware and
        #: transport layers consult it for drops, derates, and failures.
        self.faults = None
        #: Optional schedule policy (see :mod:`repro.analysis.schedule`);
        #: while attached, :meth:`run` routes through
        #: :meth:`_run_scheduled` and same-``(time, priority)`` calendar
        #: ties become explicit choice points the policy resolves.
        #: Detached (None) costs one attribute check per ``run()`` call —
        #: never anything per event.
        self.schedule_policy = None
        #: ordinal of the next tie choice point (scheduled runs only)
        self._tie_no = 0
        #: per-kind counters backing auto-generated entity names
        #: (``buf3``, ``send#7``, ...) — see :meth:`next_id`
        self._name_ids: dict = {}

    # -- observers -----------------------------------------------------
    def attach(self, observer):
        """Attach ``observer`` (a :class:`~repro.sim.probe.Probe`) to the
        probe slot and return it.  With two or more attached, the slot
        holds a :class:`~repro.sim.probe.Tee` over them."""
        self.probe = fan_out(self.observers() + (observer,))
        return observer

    def detach(self, observer) -> None:
        """Detach ``observer``; the others stay attached."""
        self.probe = fan_out(tuple(o for o in self.observers()
                                   if o is not observer))

    def observers(self) -> tuple:
        """The attached observers, in attach order."""
        probe = self.probe
        if probe is None:
            return ()
        return probe.observers if isinstance(probe, Tee) else (probe,)

    def observer(self, cls):
        """The first attached observer that is a ``cls``, or None."""
        return next((o for o in self.observers() if isinstance(o, cls)),
                    None)

    def next_id(self, kind: str) -> int:
        """Next ordinal for auto-named entities of ``kind`` (1-based).

        Scoped to the environment so generated names are a function of
        the run alone — a case replayed in a fresh worker process and
        one simulated mid-batch in a long-lived parent produce the same
        labels (sanitizer findings must be byte-identical either way).
        """
        n = self._name_ids.get(kind, 0) + 1
        self._name_ids[kind] = n
        return n

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def vector(self):
        """The batch engine (:class:`repro.sim.vectorized.VectorEngine`).

        Only available when the environment was created with
        ``engine="vectorized"``; the coroutine engine has no array lanes.
        """
        if self.engine != "vectorized":
            raise EngineError(
                "env.vector requires Environment(engine='vectorized'); "
                f"this environment runs the {self.engine!r} engine")
        if self._vector is None:
            from repro.sim.vectorized import VectorEngine

            self._vector = VectorEngine(self)
        return self._vector

    def advance_to(self, when: float) -> float:
        """Advance the clock to ``when`` (vectorized-engine models only).

        The clock is monotone: an earlier ``when`` is a no-op, matching
        the coroutine engine where ``now`` only moves forward.  Refuses
        to jump over undrained calendar entries — batch models must not
        silently starve pending events.
        """
        if self._heap and self._heap[0][0] < when:
            raise EngineError(
                f"advance_to({when}) would skip over a calendar event at "
                f"t={self._heap[0][0]}; drain with run() first")
        if when > self._now:
            self._now = float(when)
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped (None between steps)."""
        return self._active_process

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Inline Timeout construction: this is the single hottest
        # allocation in any sweep, so skip the __init__ call frame.
        to = Timeout.__new__(Timeout)
        to.env = self
        to.callbacks = []
        to._value = value
        to._ok = True
        to._state = TRIGGERED
        to._defused = False
        self._seq += 1
        heappush(self._heap, (self._now + delay, NORMAL, self._seq, to))
        return to

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a coroutine for execution; returns its Process event."""
        if self.engine != "coroutine":
            generator.close()
            raise EngineError(
                "Environment(engine='vectorized') virtualizes ranks and "
                "cannot host coroutines; use env.vector batch operations, "
                "or engine='coroutine' for generator processes")
        proc = Process(self, generator, name=name)
        if self.probe is not None:
            self.probe.on_process_started(proc)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def step(self) -> None:
        """Process the single next event on the calendar."""
        when, _prio, _seq, event = heappop(self._heap)
        self._now = when
        event._run_callbacks()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar empties or the clock reaches ``until``.

        Unhandled process failures propagate out of ``run`` (matching the
        behaviour of an uncaught exception on a real thread).

        The loop inlines :meth:`Event._run_callbacks` (engine classes do
        not override it) so each event costs one heappop plus the
        callback dispatch — no per-event method-call frames.

        The cycle collector is off while any run is in progress, in any
        thread, and back as it was when the last one returns or raises:
        what a run allocates dies by reference counting (see the module
        notes), so a collection inside it would scan the live world and
        free nothing.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        _pause_collector()
        try:
            if self.schedule_policy is not None:
                return self._run_scheduled(until)
            heap = self._heap
            probe = self.probe
            if probe is not None:
                # Every heappush bumps _seq exactly once, so event counts
                # can be recovered from deltas at the loop boundaries —
                # the hot loop itself carries no instrumentation.
                seq0 = self._seq
                heap0 = len(heap)
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                when, _p, _s, event = heappop(heap)
                self._now = when
                event._state = PROCESSED
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
                if not event._ok and not event._defused:
                    raise event._value
            if until is not None:
                self._now = until
            if probe is not None:
                scheduled = self._seq - seq0
                probe.on_run(scheduled, heap0 + scheduled - len(heap))
        finally:
            _resume_collector()

    @staticmethod
    def _tie_label(event: Event) -> str:
        """Stable human-readable label for one tie-batch entry.

        Events a process or chain waits on carry its bound ``_resume``
        — the bound method's ``__self__`` is the Process or Chain, so
        its name labels the entry.  Anything without a named waiter
        (flush rounds, bare control events) falls back to its class name.
        """
        for cb in event.callbacks:
            name = getattr(getattr(cb, "__self__", None), "name", None)
            if name:
                return name
        return type(event).__name__

    def _run_scheduled(self, until: Optional[float]) -> None:
        """``run`` variant active while a schedule policy is attached.

        Same-``(time, priority)`` heap entries form a *tie batch*; with
        ``policy.explore_ties`` the policy picks which entry fires next
        (choice index 0 always reproduces the detached seq order).  This
        loop skips the hot path's event accounting — only the
        schedule-space verifier drives it, and it pays for introspection
        instead of throughput.
        """
        policy = self.schedule_policy
        heap = self._heap
        explore = bool(getattr(policy, "explore_ties", False))
        cap = int(getattr(policy, "tie_cap", 4))
        while heap:
            if until is not None and heap[0][0] > until:
                break
            entry = heappop(heap)
            if explore and heap and heap[0][0] == entry[0] \
                    and heap[0][1] == entry[1]:
                batch = [entry]
                while heap and len(batch) < cap \
                        and heap[0][0] == entry[0] \
                        and heap[0][1] == entry[1]:
                    batch.append(heappop(heap))
                labels = [self._tie_label(e[3]) for e in batch]
                if len(set(labels)) > 1:
                    self._tie_no += 1
                    idx = policy.choose(f"tie#{self._tie_no}", labels,
                                        "tie")
                else:
                    idx = 0
                entry = batch.pop(idx)
                for other in batch:
                    heappush(heap, other)
            when, _p, _s, event = entry
            self._now = when
            event._state = PROCESSED
            callbacks = event.callbacks
            if callbacks:
                event.callbacks = []
                for cb in callbacks:
                    cb(event)
            if not event._ok and not event._defused:
                raise event._value
        if until is not None:
            self._now = until

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

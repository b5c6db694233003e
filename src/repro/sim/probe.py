"""The probe: one observer slot and the hook set every observer offers.

Every instrumented layer reports to ``env.probe`` and nothing else.
The slot is None when no observer is attached, so a detached run pays
one attribute test per instrumentation site and enters no observer
code.  An attached probe receives one call per event, whoever consumes
it: the :class:`~repro.sim.Tracer` records lane intervals, the
:class:`~repro.obs.MetricsRegistry` counts, the sanitizer's
:class:`~repro.analysis.Recorder` builds its happens-before graph.

Observers are attached and detached with :meth:`Environment.attach` /
:meth:`Environment.detach`.  While two or more are attached the slot
holds a :class:`Tee` that forwards every hook to each of them; with one
the slot holds the observer itself.

Two names depend on the kind of observer attached, and reach outputs,
so no other observer may change them.  Only a tracer allocates causal
flow ids (:meth:`Probe.new_flow` is 0 otherwise), and only a flow-linked
message carries its tag in its wire label, which reaches the fault log.
Only a sanitizer recorder sets ``names``, which gives MPI send/receive
chains the descriptive names that witness chains and the verifier's tie
labels show.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Probe", "Tee", "fan_out"]


class Probe:
    """The hook set; every hook is a no-op here.

    A consumer subclasses this and overrides the hooks it consumes.
    New instrumentation adds a hook here and a method on the consumers
    that want it — never a second attribute on the environment.
    """

    #: a sanitizer recorder is attached (descriptive MPI chain names)
    names = False

    def new_flow(self) -> int:
        """A fresh causal-chain id, or 0 when no tracer allocates one."""
        return 0

    # -- hardware and runtime lanes -----------------------------------
    def on_lane_busy(self, kind, lane, label, start, end, category,
                     nbytes=None, flow=0, src=None, dst=None) -> None:
        """A lane was busy over ``[start, end]``.  ``kind`` names the
        sender: ``link``, ``gpu``, ``host``, ``disk``, ``net`` (a
        message landed on the wire) or ``mpi`` (receiver-side marker)."""

    def on_link_queue(self, link, depth) -> None:
        """A transfer asks for link ``link`` with ``depth`` ahead."""

    # -- simulation core ------------------------------------------------
    def on_process_started(self, name) -> None:
        """A coroutine process was registered."""

    def on_run(self, scheduled, fired) -> None:
        """One ``Environment.run`` call scheduled and fired events."""

    # -- OpenCL events and commands --------------------------------------
    def on_event_created(self, ev) -> None:
        """A CLEvent (command or user event) was created."""

    def on_event_status(self, ev, status) -> None:
        """A CLEvent advanced to ``status``."""

    def on_event_failed(self, ev, exc) -> None:
        """A CLEvent terminated abnormally."""

    def on_callback_error(self, ev, exc) -> None:
        """An event callback raised."""

    def on_misuse(self, kind, message, entity=None) -> None:
        """An API misuse is about to be raised."""

    def on_host_sync(self, events) -> None:
        """The active host process blocked until ``events`` completed."""

    def on_command_enqueued(self, queue, cmd) -> None:
        """A command was submitted to ``queue``."""

    def on_command_running(self, cmd) -> None:
        """A command started executing."""

    # -- MPI --------------------------------------------------------------
    def on_mpi_send(self, comm, envelope, completion, matched) -> None:
        """A point-to-point send was posted."""

    def on_mpi_recv(self, comm, posted, envelope) -> None:
        """A point-to-point receive was posted."""

    def on_mpi_ack(self, envelope) -> None:
        """A wire attempt was acknowledged (fault injection active)."""

    def on_mpi_retry(self, envelope, fate) -> None:
        """A lost attempt backs off before retransmitting."""

    def on_request_created(self, req) -> None:
        """An MPI request handle was created."""

    # -- clMPI -----------------------------------------------------------
    def on_event_bridge(self, request, uev) -> None:
        """An MPI request was bridged into an OpenCL user event."""

    def on_clmpi_host_transfer(self, req, proc, kind, comm, peer, tag,
                               nbytes) -> None:
        """A host-side clMPI transfer was started."""

    def on_transfer(self, kind, peer, tag, desc) -> None:
        """A clMPI endpoint chose its transfer engine."""

    # -- faults, recovery, launcher ------------------------------------
    def on_fault(self, record) -> None:
        """A fault was injected, or a tolerance layer reacted to one."""

    def on_rank_process(self, rank, proc) -> None:
        """A rank's main process was launched."""


class Tee(Probe):
    """Forwards every hook to two or more observers, in attach order.

    Exists only while more than one observer is attached.
    """

    def __init__(self, observers: tuple):
        self.observers = observers
        self.names = any(o.names for o in observers)

    def new_flow(self) -> int:
        return max(o.new_flow() for o in self.observers)


def fan_out(observers: tuple) -> Optional[Probe]:
    """What the slot holds for ``observers``: None, the one observer, or
    a :class:`Tee` over two or more."""
    if len(observers) > 1:
        return Tee(observers)
    return observers[0] if observers else None


def _forward(name: str):
    def hook(self, *args, **kwargs):
        for o in self.observers:
            getattr(o, name)(*args, **kwargs)
    hook.__name__ = name
    hook.__qualname__ = f"Tee.{name}"
    return hook


for _name in [n for n in vars(Probe) if n.startswith("on_")]:
    setattr(Tee, _name, _forward(_name))
del _name

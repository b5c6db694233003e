"""The sanitizer's consumer of the probe hooks (``env.probe``).

The :class:`Recorder` implements the lifecycle hooks of
:class:`~repro.sim.probe.Probe` that the ``repro.ocl``, ``repro.mpi``,
``repro.clmpi`` and ``repro.launcher`` layers call, and turns the stream
of notifications into

* an :class:`~repro.analysis.graph.ExecutionGraph` with happens-before
  edges (wait lists, in-order queue position, host sync points, MPI
  request → bridged event),
* per-buffer access interval lists for the race detector,
* entity tables (commands, requests, MPI operations, processes) that the
  deadlock and leak detectors interrogate at quiescence,
* direct findings for hazards that are conclusive the moment they happen
  (API misuse, exceptions escaping event callbacks, failed events).

Everything is keyed by ``id(entity)``; the recorder keeps a strong
reference to every entity it tracks so CPython can never recycle an id
for a different object mid-run.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.analysis import graph as G
from repro.analysis.graph import ExecutionGraph
from repro.analysis.report import Finding, WARNING
from repro.obs.metrics import MetricsRegistry
from repro.sim.probe import Probe

__all__ = ["Recorder"]


class Recorder(Probe):
    """Builds the execution model of one environment's run."""

    #: MPI chains get descriptive names for the witness chains
    names = True

    def __init__(self, env):
        self.env = env
        self.graph = ExecutionGraph()
        #: findings that are conclusive at notification time
        self.direct_findings: list[Finding] = []
        #: fault-injection / tolerance records (see Recorder.on_fault)
        self.fault_records: list[dict] = []
        # -- entity tables (ids stay valid: _keep pins every object) -----
        self._keep: list[Any] = []
        self._event_node: dict[int, int] = {}      # id(CLEvent) -> nid
        self._by_completion: dict[int, int] = {}   # id(sim Event) -> nid
        self._commands: dict[int, Any] = {}        # nid -> Command
        self._queues: dict[int, Any] = {}          # id(queue) -> queue
        self._queue_last: dict[int, int] = {}      # id(queue) -> last nid
        self._proc_sync: dict[int, int] = {}       # id(proc) -> sync nid
        self._proc_owner: dict[int, int] = {}      # id(proc) -> cmd/transfer
        self._accesses: dict[int, list] = {}       # id(buf) -> access list
        self._buffers: dict[int, Any] = {}         # id(buf) -> Buffer
        self._requests: dict[int, tuple] = {}      # id(req) -> (req, nid)
        self._bridged_requests: set[int] = set()   # id(req) bridged to events
        self._comm_states: dict[int, Any] = {}     # id(state) -> _CommState
        self.rank_procs: list[tuple] = []          # [(rank, Process)]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _pin(self, obj: Any) -> None:
        self._keep.append(obj)

    def _node_of_event(self, ev) -> Optional[int]:
        return self._event_node.get(id(ev))

    def _active_parent(self) -> Optional[int]:
        """The command/transfer node the active process is executing, if
        any (attributes MPI operations to their enclosing command)."""
        proc = self.env.active_process
        if proc is None:
            return None
        nid = self._proc_owner.get(id(proc))
        cmd = self._commands.get(nid)
        if cmd is not None and cmd.event.is_complete:
            return None
        return nid

    def _note_comm(self, comm) -> None:
        state = comm._state
        self._comm_states.setdefault(id(state), state)

    def node(self, nid: int) -> G.Node:
        return self.graph.nodes[nid]

    # ------------------------------------------------------------------
    # OpenCL events
    # ------------------------------------------------------------------
    def on_event_created(self, ev) -> None:
        from repro.ocl.event import UserEvent
        kind = G.USER_EVENT if isinstance(ev, UserEvent) else G.COMMAND
        node = self.graph.add_node(kind, ev.label, t=self.env.now)
        self._pin(ev)
        self._event_node[id(ev)] = node.nid
        self._by_completion[id(ev.completion)] = node.nid
        node.extra["event"] = ev
        if kind == G.USER_EVENT:
            node.extra["creator"] = self.env.active_process

    def on_event_status(self, ev, status) -> None:
        from repro.ocl.enums import CommandStatus
        nid = self._node_of_event(ev)
        if nid is None:
            return
        node = self.node(nid)
        if status == CommandStatus.RUNNING:
            node.started = True
        elif status == CommandStatus.COMPLETE:
            node.completed = True

    def on_event_failed(self, ev, exc) -> None:
        nid = self._node_of_event(ev)
        if nid is not None:
            node = self.node(nid)
            node.completed = True
            node.failed = exc
            witness = [node.describe()]
        else:  # pragma: no cover - event predates the monitor
            witness = []
        if getattr(exc, "injected", False):
            # Deliberately injected by repro.faults: report it (the user
            # wants to see what the plan did) but as a warning — it is
            # the experiment, not a program bug.  The causal flow id (if
            # the failing transfer carried one) locates the affected
            # message chain on the exported Perfetto timeline.
            flow = getattr(exc, "flow", 0)
            where = f" [flow {flow}]" if flow else ""
            self.direct_findings.append(Finding(
                "injected-fault",
                f"event {ev.label!r} failed by fault injection: "
                f"{exc}{where}",
                severity=WARNING, witness=witness))
            return
        self.direct_findings.append(Finding(
            "event-failed",
            f"event {ev.label!r} failed: {exc}",
            witness=witness))

    def on_fault(self, record: dict) -> None:
        """A fault injector (or tolerance layer) reports one occurrence.

        Injected faults are experiment input, not hazards: they are
        tallied in the stats, not turned into findings.
        """
        self.fault_records.append(record)

    def on_callback_error(self, ev, exc) -> None:
        self.direct_findings.append(Finding(
            "callback-error",
            f"callback of event {ev.label!r} raised "
            f"{type(exc).__name__}: {exc} (captured on event.error; "
            "callbacks must not raise)"))

    def on_misuse(self, kind: str, message: str, entity=None) -> None:
        self.direct_findings.append(Finding(f"misuse:{kind}", message))

    def on_host_sync(self, events) -> None:
        """The active host process blocked until ``events`` completed:
        everything it does afterwards happens-after those events."""
        proc = self.env.active_process
        if proc is None:
            return
        preds = [self._event_node[id(e)] for e in events
                 if id(e) in self._event_node]
        if not preds:
            return
        node = self.graph.add_node(
            G.SYNC, f"{getattr(proc, 'name', 'host')}@t={self.env.now:.6g}",
            t=self.env.now)
        self._pin(proc)
        for p in preds:
            self.graph.add_hb(p, node.nid)
        self.graph.add_hb(self._proc_sync.get(id(proc)), node.nid)
        self._proc_sync[id(proc)] = node.nid

    # ------------------------------------------------------------------
    # OpenCL commands
    # ------------------------------------------------------------------
    def on_command_enqueued(self, queue, cmd) -> None:
        nid = self._node_of_event(cmd.event)
        if nid is None:  # pragma: no cover - event predates the monitor
            return
        node = self.node(nid)
        node.label = cmd.label
        node.detail = f"on queue {queue.name!r}"
        node.extra["cmd"] = cmd
        node.extra["queue"] = queue.name
        self._commands[nid] = cmd
        self._pin(cmd)
        self._queues.setdefault(id(queue), queue)
        # happens-before: the wait list ...
        wait_nids = [self._event_node[id(e)] for e in cmd.wait_events
                     if id(e) in self._event_node]
        for w in wait_nids:
            self.graph.add_hb(w, nid)
        node.extra["wait"] = wait_nids
        # ... the in-order predecessor ...
        if queue.in_order:
            pred = self._queue_last.get(id(queue))
            self.graph.add_hb(pred, nid)
            node.extra["queue_pred"] = pred
            self._queue_last[id(queue)] = nid
        # ... and the enqueuing thread's last sync point.
        proc = self.env.active_process
        if proc is not None:
            self.graph.add_hb(self._proc_sync.get(id(proc)), nid)
        # buffer access intervals for the race detector
        for buf, offset, size, mode in cmd.meta.get("accesses") or ():
            self._buffers.setdefault(id(buf), buf)
            self._accesses.setdefault(id(buf), []).append(
                (nid, offset, size, mode))

    def on_command_running(self, cmd) -> None:
        proc = self.env.active_process
        nid = self._node_of_event(cmd.event)
        if proc is not None and nid is not None:
            self._proc_owner[id(proc)] = nid
            self._pin(proc)

    def on_process_started(self, proc) -> None:
        """A process started by one that executes a command or a host
        transfer works for it (a pipelined transfer's wire stage), so it
        inherits that owner."""
        nid = self._active_parent()
        if nid is not None:
            self._proc_owner[id(proc)] = nid
            self._pin(proc)

    # ------------------------------------------------------------------
    # MPI point-to-point
    # ------------------------------------------------------------------
    def on_mpi_send(self, comm, envelope, completion, matched) -> None:
        self._note_comm(comm)
        node = self.graph.add_node(
            G.MPI_SEND,
            f"send r{envelope.src}->r{envelope.dst} tag={envelope.tag}",
            f"{envelope.protocol} {envelope.nbytes}B on {comm.name}",
            t=self.env.now)
        self._pin(envelope)
        node.parent = self._active_parent()
        node.extra.update(envelope=envelope, completion=completion,
                          comm=comm.name, rank=envelope.src,
                          peer=envelope.dst)
        self._by_completion[id(completion)] = node.nid

    def on_mpi_recv(self, comm, posted, envelope) -> None:
        self._note_comm(comm)
        src = "any" if posted.source < 0 else f"r{posted.source}"
        tag = "any" if posted.tag < 0 else posted.tag
        node = self.graph.add_node(
            G.MPI_RECV,
            f"recv r{comm.rank}<-{src} tag={tag}",
            f"on {comm.name}", t=self.env.now)
        self._pin(posted)
        node.parent = self._active_parent()
        node.extra.update(posted=posted, completion=posted.completion,
                          comm=comm.name, rank=comm.rank,
                          peer=posted.source)
        self._by_completion[id(posted.completion)] = node.nid

    def on_request_created(self, req) -> None:
        self._pin(req)
        self._requests[id(req)] = (req, self._by_completion.get(
            id(req.completion)))

    # ------------------------------------------------------------------
    # clMPI
    # ------------------------------------------------------------------
    def on_event_bridge(self, request, uev) -> None:
        """clCreateEventFromMPIRequest: the request's completion
        happens-before the user event's completion."""
        unid = self._node_of_event(uev)
        if unid is None:  # pragma: no cover
            return
        rnid = self._by_completion.get(id(request.completion))
        node = self.node(unid)
        node.extra["bridge"] = rnid
        node.detail = f"bridges {request.label}"
        self._bridged_requests.add(id(request))
        if rnid is not None:
            self.graph.add_hb(rnid, unid)

    def on_clmpi_host_transfer(self, req, proc, kind, comm, peer, tag,
                               nbytes) -> None:
        self._note_comm(comm)
        node = self.graph.add_node(
            G.CLMPI_TRANSFER,
            f"clmpi.host-{kind} r{comm.rank}{'->' if kind == 'send' else '<-'}"
            f"r{peer} tag={tag}",
            f"{nbytes}B on {comm.name}", t=self.env.now)
        self._pin(proc)
        node.extra.update(proc=proc, completion=proc, comm=comm.name,
                          rank=comm.rank, peer=peer, op=kind)
        self._by_completion[id(proc)] = node.nid
        self._proc_owner[id(proc)] = node.nid
        self._requests[id(req)] = (req, node.nid)

    def on_transfer(self, kind, peer, tag, desc) -> None:
        """Engine choice made: annotate the enclosing command/transfer."""
        nid = self._active_parent()
        if nid is not None:
            node = self.node(nid)
            if "engine" not in node.extra:
                node.extra["engine"] = desc.mode
                node.detail = (f"{node.detail}, engine={desc.mode}"
                               if node.detail else f"engine={desc.mode}")

    # ------------------------------------------------------------------
    # launcher
    # ------------------------------------------------------------------
    def on_rank_process(self, rank, proc) -> None:
        self._pin(proc)
        self.rank_procs.append((rank, proc))

    # ------------------------------------------------------------------
    # detector-facing accessors
    # ------------------------------------------------------------------
    def buffer_accesses(self):
        """``[(Buffer, [(nid, offset, size, mode), ...]), ...]``"""
        return [(self._buffers[key], accs)
                for key, accs in self._accesses.items()]

    def pending_commands(self):
        """Incomplete commands: ``[(nid, Command), ...]``."""
        return [(nid, cmd) for nid, cmd in self._commands.items()
                if not cmd.event.is_complete]

    def queue_of(self, nid: int) -> str:
        return self.node(nid).extra.get("queue", "?")

    def incomplete_user_events(self):
        """``[(nid, UserEvent), ...]`` never completed/failed."""
        out = []
        for node in self.graph.nodes:
            if node.kind == G.USER_EVENT and not node.completed:
                out.append((node.nid, node.extra["event"]))
        return out

    def pending_ops(self):
        """MPI/clMPI operation nodes whose completion never fired."""
        out = []
        for node in self.graph.nodes:
            if node.kind not in (G.MPI_SEND, G.MPI_RECV, G.CLMPI_TRANSFER):
                continue
            completion = node.extra["completion"]
            if not completion.triggered:
                out.append(node.nid)
        return out

    def unconsumed_requests(self):
        """Completed requests never waited/tested on (and not bridged)."""
        out = []
        for req, nid in self._requests.values():
            if (req.done and not req.consumed
                    and id(req) not in self._bridged_requests):
                out.append((req, nid))
        return out

    def endpoint_sweep(self):
        """Ground truth from every communicator's matching engines:
        ``[(comm_name, rank, unmatched_envelopes, pending_recvs)]``.

        Revoked communicators are skipped: ULFM revocation deliberately
        abandons in-flight traffic so survivors can shrink away from the
        dead ranks — those stranded envelopes/receives are the *recovery
        mechanism working*, not deadlocks or leaks.
        """
        out = []
        for state in self._comm_states.values():
            if getattr(state, "revoked", False):
                continue
            for rank, ep in enumerate(state.endpoints):
                out.append((state.name, rank, ep.unmatched_envelope_list(),
                            ep.pending_recv_list()))
        return out

    def node_for_sim_event(self, event) -> Optional[int]:
        """Resolve a raw simulation event (or Process) to a graph node."""
        return self._by_completion.get(id(event))

    def stats(self) -> dict:
        out = {
            "nodes": len(self.graph),
            "hb_edges": sum(len(p) for p in self.graph.preds),
            "commands": len(self._commands),
            "buffers": len(self._buffers),
            "requests": len(self._requests),
            "faults": len(self.fault_records),
        }
        metrics = self.env.observer(MetricsRegistry)
        if metrics is not None:
            out["metrics"] = metrics.snapshot()
        return out

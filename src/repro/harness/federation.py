"""Federation worker agents for the sweep service.

``python -m repro.harness agent --socket /tmp/clmpi.sock`` attaches a
worker-agent process to a running coordinator (a ``serve`` daemon —
possibly on another host, reached over ``--tcp host:port``).  N agents
drain the coordinator's one journaled queue under **time-bounded
leases**:

* the agent forks ``--slots`` persistent worker processes
  (:class:`repro.harness.parallel.WorkerProcess`), registers (a
  stable, client-chosen id), then loops: claim up to ``--slots`` leases
  → compute each point through :func:`repro.harness.service.run_grant`
  on its own worker, exactly as the daemon's local slots do → report
  completions.  The workers are killed and joined when the agent
  exits; a worker whose agent is SIGKILLed exits on its own once idle;
* a heartbeat thread renews every held lease on an interval the
  coordinator suggests (ttl/3); if the agent dies or is partitioned
  away, the unrenewed leases expire and the coordinator re-queues the
  points — nothing is lost, and a late completion from the revenant
  agent is harmless (first write wins, the loser records
  ``duplicate_result``);
* every request runs through :class:`ServiceClient`'s transparent
  retry (exponential backoff + jitter), so a coordinator restart or a
  transient partition looks like latency, not failure.  An agent never
  exits on a connection error — it keeps backing off and re-registers
  when the coordinator answers again, resuming ownership of any of its
  leases that survived in the journal.

Agents hold **no durable state**: the queue journal and the shared
store belong to the coordinator.  That is what makes agent death free —
the acceptance bar (fig8 output byte-identical to a serial sweep under
any combination of agent kills, partitions, and coordinator restarts)
holds because results are deterministic, completion is arbitrated
first-write-wins, and every lease transition is journaled on exactly
one side.
"""

from __future__ import annotations

import os
import socket as socket_mod
import threading
import time
from typing import Any, Optional

from repro.harness.parallel import WorkerProcess
from repro.harness.service import ServiceClient, run_grant

__all__ = ["FederationAgent", "run_agent"]


class FederationAgent:
    """One worker-agent process (see module doc).

    ``once=True`` turns the infinite drain loop into "work until the
    coordinator has nothing pending, then exit" — what the smoke tests
    and benchmarks use.  The long-running form stops only on
    ``stop_event`` (or SIGTERM via the CLI wrapper).
    """

    def __init__(self, socket_path: Optional[str] = None,
                 tcp: Optional[tuple[str, int]] = None,
                 name: Optional[str] = None, slots: int = 1,
                 poll_s: float = 0.05, once: bool = False,
                 stop_event: Optional[threading.Event] = None,
                 verbose: bool = False):
        self.client = ServiceClient(socket_path, tcp=tcp, retries=6,
                                    backoff_s=0.1, backoff_cap_s=2.0)
        self.name = name
        self.slots = max(1, int(slots))
        self.poll_s = poll_s
        self.once = once
        self.verbose = verbose
        self.stop = stop_event or threading.Event()
        self.agent_id: Optional[str] = None
        self.lease_ttl = 30.0
        self.heartbeat_s = 10.0
        self._draining = False
        self._lock = threading.Lock()
        #: lease id -> lease grant payload, while computing
        self._held: dict[str, dict] = {}
        #: one worker process per slot, while :meth:`run` runs; each
        #: claim round's k-th lease computes on the k-th
        self._workers: list[WorkerProcess] = []
        self._summary = {"points": 0, "duplicates": 0,
                         "reconnects": 0}

    # -- coordinator conversation -------------------------------------------
    def _register(self) -> bool:
        """Introduce ourselves; retried forever by the caller's loop."""
        try:
            reply = self.client._call({
                "op": "agent.register", "name": self.name,
                "host": socket_mod.gethostname(), "pid": os.getpid(),
                "slots": self.slots})
        except (OSError, RuntimeError):
            return False
        self.agent_id = reply["agent"]
        self.lease_ttl = float(reply.get("lease_ttl", 30.0))
        self.heartbeat_s = float(reply.get("heartbeat",
                                           self.lease_ttl / 3.0))
        if self.name is None:
            self.name = self.agent_id  # keep the id across reconnects
        if self.verbose:
            print(f"agent {self.agent_id}: registered "
                  f"(ttl {self.lease_ttl}s)")
        return True

    def _heartbeat_loop(self) -> None:
        """Renew held leases until stopped; on a dead coordinator, keep
        trying — the main loop handles re-registration."""
        while not self.stop.wait(self.heartbeat_s):
            with self._lock:
                held = list(self._held)
            try:
                reply = self.client._call({
                    "op": "agent.heartbeat", "agent": self.agent_id,
                    "leases": held})
            except (OSError, RuntimeError):
                continue  # partitioned; leases may expire, that's fine
            self._draining = bool(reply.get("draining"))
            if not reply.get("known", True):
                # coordinator restarted and forgot us: re-register
                # under the same id so journaled leases stay ours
                self._summary["reconnects"] += 1
                self._register()

    def _complete(self, grant: dict, result: Any,
                  attempts: int) -> None:
        """Report one finished point; never give up on a partition —
        the result is already computed, so we block (with backoff)
        until the coordinator takes it or declares it a duplicate."""
        request = {"op": "agent.complete", "agent": self.agent_id,
                   "lease": grant["lease"], "job": grant["job"],
                   "index": grant["index"], "result": result,
                   "attempts": attempts}
        while not self.stop.is_set():
            try:
                reply = self.client._call(request)
            except (OSError, RuntimeError):
                self._summary["reconnects"] += 1
                time.sleep(min(2.0, self.heartbeat_s))
                continue
            if reply.get("disposition") == "duplicate_result":
                self._summary["duplicates"] += 1
            else:
                self._summary["points"] += 1
            return

    # -- the work itself ----------------------------------------------------
    def _run_lease(self, grant: dict, worker: WorkerProcess) -> None:
        # agents are stateless: the coordinator arbitrates storage on
        # completion (put_if_absent)
        result, attempts = run_grant(grant, worker)
        with self._lock:
            self._held.pop(grant["lease"], None)
        # Always report, even if our lease looks expired from here: the
        # coordinator arbitrates (first write wins) and a losing submit
        # deterministically lands in its duplicate_results counter —
        # which is exactly the accounting the failure matrix promises.
        self._complete(grant, result, attempts)

    def _claim_and_run(self) -> int:
        """One claim round; returns how many leases were granted."""
        try:
            reply = self.client._call({
                "op": "agent.claim", "agent": self.agent_id,
                "max": self.slots})
        except (OSError, RuntimeError):
            self._summary["reconnects"] += 1
            if not self._register():
                time.sleep(min(2.0, self.heartbeat_s))
            return 0
        if not reply.get("known", True):
            self._register()
            return 0
        self._draining = bool(reply.get("draining"))
        grants = reply.get("leases", [])
        if not grants:
            return 0
        with self._lock:
            for grant in grants:
                self._held[grant["lease"]] = grant
        threads = [threading.Thread(
            target=self._run_lease, args=(grant, worker),
            name=f"agent-lease-{grant['lease']}", daemon=True)
            for grant, worker in zip(grants, self._workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return len(grants)

    def _open_points(self) -> Optional[int]:
        try:
            stats = self.client.stats()
        except (OSError, RuntimeError):
            return None
        return int(stats.get("queue_depth", 0))

    def run(self) -> dict:
        """The agent main loop; returns a summary dict on exit.  The
        worker processes live exactly as long as this call."""
        self._workers = [WorkerProcess() for _ in range(self.slots)]
        try:
            return self._run()
        finally:
            for worker in self._workers:
                worker.close()
            self._workers = []

    def _run(self) -> dict:
        backoff = 0.1
        while not self.stop.is_set() and not self._register():
            if self.once:
                raise ConnectionError("no coordinator answered")
            time.sleep(backoff)
            backoff = min(2.0, backoff * 2)
        hb = threading.Thread(target=self._heartbeat_loop,
                              name="agent-heartbeat", daemon=True)
        hb.start()
        idle_rounds = 0
        try:
            while not self.stop.is_set():
                granted = self._claim_and_run()
                if granted:
                    idle_rounds = 0
                    continue
                idle_rounds += 1
                if self.once and idle_rounds >= 2:
                    depth = self._open_points()
                    if depth == 0:
                        break
                # drain or empty queue: keep polling — the coordinator
                # may restart, un-drain, or receive new jobs
                time.sleep(self.poll_s)
        finally:
            self.stop.set()
            hb.join(timeout=2.0)
            if self.agent_id is not None:
                try:
                    self.client._call({"op": "agent.deregister",
                                       "agent": self.agent_id})
                except (OSError, RuntimeError):
                    pass  # coordinator gone; our leases will expire
        if self.verbose:
            print(f"agent {self.agent_id}: {self._summary}")
        return dict(self._summary)


def run_agent(socket_path: Optional[str] = None,
              tcp: Optional[tuple[str, int]] = None,
              name: Optional[str] = None, slots: int = 1,
              poll_s: float = 0.05, once: bool = False,
              stop_event: Optional[threading.Event] = None,
              verbose: bool = False) -> dict:
    """Run one federation agent to completion (the CLI entry point and
    the in-process form tests/benchmarks embed)."""
    agent = FederationAgent(socket_path=socket_path, tcp=tcp,
                            name=name, slots=slots, poll_s=poll_s,
                            once=once, stop_event=stop_event,
                            verbose=verbose)
    return agent.run()

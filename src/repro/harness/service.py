"""The sweep service: a persistent, fault-tolerant harness daemon.

``python -m repro.harness serve --socket /tmp/clmpi.sock`` turns the
sweep machinery (content-addressed result store, reapable worker
processes, crash-proof error records) into a long-running *service*:

* **Durable job queue** — submissions, leases and completions are
  journaled (:mod:`repro.harness.queue`); a daemon killed mid-sweep —
  ``kill -9`` included — resumes its queue on restart and re-delivers
  results byte-identical to a serial :func:`repro.harness.parallel.sweep`.
* **One claim path** — every point is computed under a journaled
  lease from one pending-point walk.  The ``-j N`` local slots are
  in-process lease holders running the same claim → compute → complete
  loop as federation agents (:mod:`repro.harness.federation`): agent
  death, partitions, and coordinator restarts all resolve to
  byte-identical sweep output (see docs/service.md, "Federation").
* **One result store** — a :class:`~repro.harness.cache.ResultCache`
  (sharded dirs, atomic rename-into-place, advisory locking, LRU
  eviction under a byte budget) that many daemons and CLI runs can
  read and write concurrently; completions store first-write-wins.
* **Stuck-worker reaping** — each lease holder owns one persistent
  worker process (:class:`repro.harness.parallel.WorkerProcess`,
  forked when the daemon starts) and runs every point on it under a
  wall-clock budget with exponential-backoff retries
  (:func:`repro.harness.parallel.compute_with_retry`); an overrunning
  or dead worker is reaped and re-forked, so a hung worker becomes a
  completed (retried) point or an error record, never a hung client,
  and a poisoned worker can only ever take its own point down.
* **In-flight deduplication** — identical points submitted by
  different jobs (same content address and measurement policy) compute
  once and deliver everywhere.
* **Statistically sound measurement** — a job may request adaptive
  repetitions (:mod:`repro.harness.stats`); the point's result and its
  RunReport then carry ``stats`` (repetitions, confidence interval,
  run-to-run variance) per Hunold & Carpen-Amarie.  Single-repetition
  jobs never touch the stats machinery.

Clients speak newline-delimited JSON over a unix socket (every request
is one object with an ``"op"``; ``watch`` streams one event object per
line), or minimal HTTP (``POST /jobs``, ``GET /jobs``, ``GET
/jobs/<id>``, ``GET /jobs/<id>/result``, and Prometheus-format ``GET
/metrics``) on the same socket — the server sniffs the first bytes.
Every lifecycle transition also lands in a telemetry span log next to
the queue journal (:mod:`repro.obs.telemetry`); watch a live daemon
with ``python -m repro.harness top --socket ...``.  See
``docs/service.md`` and ``docs/observability.md``.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import socket
import socketserver
import threading
import time
import uuid
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Optional

from repro.harness.cache import ResultCache
from repro.harness.parallel import (
    RetryPolicy,
    WorkerProcess,
    compute_point,
    error_record,
    is_error_record,
)
from repro.harness.queue import LOCAL_HOLDER, JobQueue
from repro.harness.stats import MeasurePolicy
from repro.obs.telemetry import (
    PROM_CONTENT_TYPE,
    TELEMETRY_LOG_NAME,
    Telemetry,
    render_prometheus,
)

__all__ = ["WORKERS", "SweepService", "ServiceClient", "resolve_worker",
           "run_grant", "serve"]

#: job kinds the service accepts out of the box → worker dotted paths.
#: A job may instead name any importable ``module:function`` worker
#: explicitly via its ``options["worker"]``.
WORKERS: dict[str, str] = {
    "bandwidth": "repro.apps.pingpong:bandwidth_point",
    "himeno": "repro.harness.fig9:himeno_point",
    "nanopowder": "repro.harness.fig10:nanopowder_point",
    "chaos": "repro.faults.chaos:chaos_case",
}


def resolve_worker(path: str) -> Callable[[dict], Any]:
    """Import a ``module:function`` worker reference."""
    module, sep, name = path.partition(":")
    if not sep or not module or not name:
        raise ValueError(
            f"worker must be 'module:function', got {path!r}")
    fn = getattr(importlib.import_module(module), name, None)
    if not callable(fn):
        raise ValueError(f"worker {path!r} is not a callable")
    return fn


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_grant(grant: dict, process: WorkerProcess,
              on_failure: Optional[Callable] = None) -> tuple[Any, int]:
    """Compute one leased point on the holder's worker ``process``;
    returns ``(result, attempts)``.  The unit of work of every lease
    holder, local slot or federation agent; the coordinator, not the
    holder, stores the result."""
    try:
        return compute_point(resolve_worker(grant["worker"]),
                             grant["spec"],
                             RetryPolicy.from_dict(grant["policy"]),
                             process, measure=grant.get("measure"),
                             on_failure=on_failure)
    except Exception as exc:  # defensive: never lose a lease
        return error_record(grant["spec"], exc), 1


class SweepService:
    """The daemon: queue + store + lease holders (see module doc).

    Usable fully in-process (tests, embedding): ``start()`` forks one
    worker process per local slot, then spins up the slots, the
    housekeeping thread and — when a socket path or TCP port was given
    — the listener threads; ``submit()``/``wait()`` work with or
    without any socket.  ``stop()`` kills and joins every worker.
    """

    def __init__(self, root: Path | str,
                 socket_path: Optional[str] = None,
                 tcp_port: Optional[int] = None,
                 jobs: int = 2,
                 point_timeout_s: Optional[float] = 300.0,
                 retries: int = 2,
                 backoff_s: float = 0.1,
                 store_budget_bytes: Optional[int] = None,
                 lease_ttl_s: float = 30.0,
                 agent_timeout_s: Optional[float] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(self.root)
        self.store = ResultCache(self.root / "store",
                                 max_bytes=store_budget_bytes)
        # lifecycle spans, next to the queue journal (docs/observability.md)
        self.telemetry = Telemetry(self.root / TELEMETRY_LOG_NAME)
        self.socket_path = socket_path
        self.tcp_port = tcp_port
        # jobs=0 is a pure coordinator: it grants leases to federation
        # agents but computes nothing itself
        self.jobs = max(0, int(jobs))
        self.default_policy = RetryPolicy(
            timeout_s=point_timeout_s, retries=retries,
            backoff_s=backoff_s)
        self.lease_ttl_s = float(lease_ttl_s)
        #: a registered agent silent this long is reaped from the
        #: registry (its leases still live until their own deadlines)
        self.agent_timeout_s = (float(agent_timeout_s)
                                if agent_timeout_s is not None
                                else 3.0 * self.lease_ttl_s)
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._lock = threading.Lock()
        #: idle local slots wait for ``_work_gen`` to move (new or
        #: re-queued points)
        self._work = threading.Condition()
        self._work_gen = 0
        #: serializes the pending-point walk with completions, so an
        #: in-flight entry and its waiters never race; guards
        #: ``_inflight``, ``_waiting`` and ``_deduped``
        self._claim_lock = threading.RLock()
        #: dedup key -> (the lease computing it, the identical points
        #: (job_id, index) waiting on its result)
        self._inflight: dict[str, tuple[str, list]] = {}
        self._waiting: set[tuple[str, int]] = set()
        self._deduped = 0
        #: agent id -> registry entry (federation; see docs/service.md)
        self._agents: dict[str, dict] = {}
        self._threads: list[threading.Thread] = []
        #: slot i's worker process (forked at start, closed at stop)
        self._workers: list[WorkerProcess] = []
        self._servers: list[socketserver.BaseServer] = []
        self._watchers: list[tuple[Optional[str], "_Watcher"]] = []
        self.queue.on_event = self._on_queue_event
        self.started = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self.started:
            return
        self.started = True
        # Point workers fork from this process; close the listening
        # sockets in every child so an orphan (parent SIGKILLed
        # mid-point) cannot keep the address half-alive.
        mp_util.register_after_fork(self, SweepService._drop_listeners)
        # fork before any thread of ours exists; a worker re-forked
        # after a reap is the only fork from a threaded daemon
        self._workers = [WorkerProcess() for _ in range(self.jobs)]
        loops = [("svc-housekeeping", self._housekeeping_loop, ())]
        loops += [(f"svc-slot-{i}", self._slot_loop, (worker,))
                  for i, worker in enumerate(self._workers)]
        for name, loop, args in loops:
            t = threading.Thread(target=loop, name=name, args=args,
                                 daemon=True)
            t.start()
            self._threads.append(t)
        if self.socket_path is not None:
            self._serve_socket()
        if self.tcp_port is not None:
            self._serve_tcp()

    def stop(self) -> None:
        self._stop.set()
        self._notify_work()
        for server in self._servers:
            server.shutdown()
            server.server_close()
        self._servers.clear()
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        # kill the workers before joining their slots: a point in flight
        # fails at once instead of holding up stop(), and its slot then
        # leaves it uncompleted (see _slot_loop)
        for worker in self._workers:
            worker.close()
        self._workers.clear()
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads.clear()
        self.telemetry.close()
        self.started = False

    def _drop_listeners(self) -> None:
        """Runs in forked children: release inherited server sockets."""
        for server in self._servers:
            try:
                server.socket.close()
            except OSError:
                pass

    def run_forever(self) -> None:
        """Block until :meth:`stop` (the ``serve`` CLI's main thread)."""
        try:
            while not self._stop.wait(0.2):
                pass
        except KeyboardInterrupt:
            self.stop()

    def _serve_socket(self) -> None:
        if os.path.exists(self.socket_path):
            # A previous daemon's leftover (e.g. after SIGKILL): only a
            # daemon that actually *answers* keeps the address.  A bare
            # connect() is not enough — a dead daemon's listen backlog
            # (or an orphaned worker child holding the inherited fd)
            # accepts connections the kernel will never service.
            if self._socket_answers():
                raise RuntimeError(
                    f"another daemon is live on {self.socket_path}")
            os.unlink(self.socket_path)
        server = _UnixServer(self.socket_path, _Handler)
        server.service = self
        self._start_server(server, "svc-unix")

    def _socket_answers(self, timeout_s: float = 2.0) -> bool:
        probe = socket.socket(socket.AF_UNIX)
        probe.settimeout(timeout_s)
        try:
            probe.connect(self.socket_path)
            probe.sendall(b'{"op": "ping"}\n')
            return bool(probe.recv(1))
        except OSError:
            return False
        finally:
            probe.close()

    def _serve_tcp(self) -> None:
        server = _TcpServer(("127.0.0.1", self.tcp_port), _Handler)
        server.service = self
        self.tcp_port = server.server_address[1]  # resolve port 0
        self._start_server(server, "svc-tcp")

    def _start_server(self, server, name: str) -> None:
        self._servers.append(server)
        t = threading.Thread(target=server.serve_forever,
                             kwargs={"poll_interval": 0.05},
                             name=name, daemon=True)
        t.start()
        self._threads.append(t)

    # -- job intake ---------------------------------------------------------
    def submit(self, kind: str, specs: list[dict],
               options: Optional[dict] = None,
               token: Optional[str] = None) -> dict:
        """Accept a sweep; returns the job's status snapshot.

        ``token`` (client-supplied, optional) makes the call
        idempotent: a retried submit whose first reply was lost returns
        the already-enqueued job instead of a second copy.
        """
        options = dict(options or {})
        worker = options.get("worker") or WORKERS.get(kind)
        if worker is None:
            raise ValueError(
                f"unknown job kind {kind!r} and no options['worker'] "
                f"given; built-in kinds: {sorted(WORKERS)}")
        resolve_worker(worker)          # validate before journaling
        MeasurePolicy.from_dict(options.get("measure"))  # validate
        self._retry_policy(options)                      # validate
        job = self.queue.submit(kind, worker, specs, options,
                                token=token)
        return job.describe()

    def wait(self, job_id: str, timeout_s: Optional[float] = None
             ) -> dict:
        """Block until the job finishes; returns its full result set."""
        deadline = None if timeout_s is None \
            else time.monotonic() + timeout_s
        while True:
            job = self.queue.get(job_id)
            if job.finished:
                return self.result(job_id)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{job_id} still has {job.total - job.completed} "
                    f"open point(s) after {timeout_s}s")
            time.sleep(0.02)

    def result(self, job_id: str) -> dict:
        job = self.queue.get(job_id)
        return {"job": job.job_id, "status": job.status,
                "finished": job.finished,
                "results": list(job.results),
                "attempts": list(job.attempts),
                "errors": job.errors}

    def stats(self) -> dict:
        with self._claim_lock:
            inflight = len(self._inflight)
            deduped = self._deduped
        jobs = self.queue.list_jobs()
        return {
            "jobs": len(jobs),
            "open_jobs": sum(1 for j in jobs if j["status"] != "done"),
            "inflight_points": inflight,
            "deduped_points": deduped,
            "queue_depth": self.queue.depth(),
            "workers": self.jobs,
            "store": {"entries": self.store.entry_count(),
                      **self.store.read_stats()},
            "journal_recovered_drops": self.queue.recovered_drops,
            "journal_compactions": self.queue.compactions,
            "telemetry": self.telemetry.log.stats(),
            "draining": self._draining.is_set(),
            "agents": self.agent_table(),
            "leases_active": self.queue.active_leases(),
            "lease_expirations": self.queue.lease_expirations,
            "duplicate_results": self.queue.duplicate_results,
        }

    def agent_table(self) -> list[dict]:
        """Per-agent rows for ``stats()`` and the ``top`` view."""
        now = time.monotonic()
        with self._lock:
            entries = [(agent, dict(entry))
                       for agent, entry in sorted(self._agents.items())]
        return [{"agent": agent, "host": entry["host"],
                 "pid": entry["pid"], "slots": entry["slots"],
                 "leases": len(self.queue.agent_leases(agent)),
                 "points": entry["points"],
                 "last_seen_s": round(now - entry["last_seen"], 3)}
                for agent, entry in entries]

    def prometheus(self) -> str:
        """The ``GET /metrics`` exposition body — built on demand, so a
        daemon nobody scrapes never pays for rendering."""
        stats = self.stats()
        return render_prometheus(
            self.telemetry,
            queue_depth=stats["queue_depth"],
            inflight=stats["inflight_points"],
            open_jobs=stats["open_jobs"],
            workers=self.jobs,
            store_stats=stats["store"],
            store_entries=stats["store"]["entries"],
            agents=len(stats["agents"]),
            leases_active=stats["leases_active"],
            lease_expirations=stats["lease_expirations"],
            duplicate_results=stats["duplicate_results"])

    # -- the one claim path: leases ----------------------------------------
    def _housekeeping_loop(self) -> None:
        """Every tick: re-queue each lease whose deadline passed
        unrenewed (the agent died, was partitioned away, or is simply
        too slow), and forget agents silent past ``agent_timeout_s``
        (registry hygiene only — their leases expire on their own
        deadlines)."""
        while not self._stop.wait(0.2):
            self.queue.expire_due_leases(time.time())
            now = time.monotonic()
            with self._lock:
                lost = [agent for agent, entry in self._agents.items()
                        if now - entry["last_seen"]
                        > self.agent_timeout_s]
                for agent in lost:
                    del self._agents[agent]
            for agent in lost:
                self.telemetry.agent_lost(agent, "heartbeat")

    def _notify_work(self) -> None:
        with self._work:
            self._work_gen += 1
            self._work.notify_all()

    def _slot_loop(self, worker: WorkerProcess) -> None:
        """One local worker slot: the agent loop, in process — take a
        lease from the shared walk, compute it on the slot's own
        ``worker`` process, complete it.  A point cut short by
        :meth:`stop` is not completed: its local lease is released when
        the daemon next starts, and the point computes again then."""
        while not self._stop.is_set():
            with self._work:
                seen = self._work_gen
            grants = self._grant(LOCAL_HOLDER, 1)
            if not grants:
                with self._work:
                    self._work.wait_for(
                        lambda: self._work_gen != seen
                        or self._stop.is_set(), timeout=1.0)
                continue
            grant = grants[0]
            job_id, index, kind = grant["job"], grant["index"], \
                grant["kind"]
            self.telemetry.point_running(job_id, index, kind)
            result, attempts = run_grant(
                grant, worker,
                on_failure=lambda failure, attempt, will_retry:
                    self.telemetry.point_failure(
                        job_id, index, kind, failure, attempt,
                        will_retry))
            if self._stop.is_set():
                return
            self._complete(LOCAL_HOLDER, grant["lease"], job_id, index,
                           result, attempts)

    def _grant(self, holder: str, limit: int) -> list[dict]:
        """The one pending-point walk: local slots and ``agent.claim``
        both take their leases here, in submission order.

        Per pending point: an identical point (same content address
        and measurement policy) already in flight makes this one wait
        on its result instead (``deduped_points``); a single-shot
        point whose result is already stored completes at once with
        zero attempts — measured points always lease, since their
        merged stats live only in the journal; anything else is leased
        to ``holder``, up to ``limit`` grants.
        """
        granted: list[dict] = []
        if self._draining.is_set() or self._stop.is_set():
            return granted
        with self._claim_lock:
            for job in self.queue.open_jobs():
                for index in job.pending_indices():
                    if len(granted) >= limit:
                        return granted
                    grant = self._take(job, index, holder)
                    if grant is not None:
                        granted.append(grant)
        return granted

    def _take(self, job, index: int, holder: str) -> Optional[dict]:
        """One pending point of :meth:`_grant` (claim lock held)."""
        if (job.job_id, index) in self._waiting:
            return None
        point = {"job": job.job_id, "index": index, "kind": job.kind}
        spec = job.specs[index]
        key = self._dedup_key(job.kind, spec, job.options)
        if key in self._inflight:
            self._inflight[key][1].append((job.job_id, index))
            self._waiting.add((job.job_id, index))
            self._deduped += 1
            self._on_queue_event("claim", point)
            self.telemetry.point_deduped(job.job_id, index, job.kind)
            return None
        measure = job.options.get("measure")
        if MeasurePolicy.from_dict(measure).single_shot:
            cached = self.store.get(job.kind, spec)
            if cached is not None:
                self._on_queue_event("claim", point)
                self.telemetry.point_running(job.job_id, index, job.kind)
                self.queue.complete_leased(
                    None, job.job_id, index, cached,
                    is_error_record(cached), attempts=0, agent=holder)
                return None
        lease = self.queue.lease(job.job_id, index, holder,
                                 self.lease_ttl_s)
        self._inflight[key] = (lease.lease_id, [])
        return {**point, "lease": lease.lease_id, "worker": job.worker,
                "spec": spec, "measure": measure,
                "policy": self._retry_policy(job.options).to_dict(),
                "deadline": lease.deadline}

    def _complete(self, holder: str, lease_id: str, job_id: str,
                  index: int, result: Any, attempts: int) -> dict:
        """The one completion path, for local slots and agents alike: a
        successful single-shot result is stored first (``put_if_absent``,
        so a point never reads done before its result is stored), the
        queue records the point first-write-wins
        (:meth:`JobQueue.complete_leased`), and every identical point
        waiting on this lease completes with the same result."""
        job = self.queue.get(job_id)
        spec = job.specs[index]
        error = is_error_record(result)
        stored = False
        if not error and MeasurePolicy.from_dict(
                job.options.get("measure")).single_shot:
            stored = self.store.put_if_absent(job.kind, spec, result)
        key = self._dedup_key(job.kind, spec, job.options)
        with self._claim_lock:
            disposition = self.queue.complete_leased(
                lease_id, job_id, index, result, error, attempts,
                agent=holder)
            computing, waiters = self._inflight.get(key, (None, []))
            if computing == lease_id:
                del self._inflight[key]
                for waiter in waiters:
                    self._waiting.discard(waiter)
                    self.queue.complete_leased(None, *waiter, result,
                                               error, attempts,
                                               agent=holder)
        return {"disposition": disposition, "stored": stored}

    def _dedup_key(self, kind: str, spec: dict, options: dict) -> str:
        measure = options.get("measure") or {}
        return self.store.key(kind, spec) + "/" + _canonical(measure)

    def _retry_policy(self, options: dict) -> RetryPolicy:
        return RetryPolicy.from_dict(options, self.default_policy)

    # -- federation (coordinator side; see docs/service.md) -----------------
    def drain(self, grace_s: float = 30.0) -> dict:
        """Graceful shutdown, phase one: stop leasing, wait (bounded)
        for live leases — local slots' included — to finish, compact
        the journal.  The caller then :meth:`stop`\\ s and exits 0;
        anything still open is journaled and resumes on restart.
        """
        self._draining.set()
        deadline = time.monotonic() + max(0.0, grace_s)
        while time.monotonic() < deadline:
            self.queue.expire_due_leases(time.time())
            if self.queue.active_leases() == 0:
                break
            time.sleep(0.05)
        self.queue.compact()
        with self._claim_lock:
            inflight = len(self._inflight)
        leases = self.queue.active_leases()
        return {"drained": inflight == 0 and leases == 0,
                "inflight": inflight, "leases_active": leases}

    def _touch(self, agent: str) -> Optional[dict]:
        """The agent's registry entry, marked seen (None: unknown)."""
        with self._lock:
            entry = self._agents.get(agent)
            if entry is not None:
                entry["last_seen"] = time.monotonic()
        return entry

    def agent_register(self, name: Optional[str], host: str,
                       pid: int, slots: int) -> dict:
        """Admit (or re-admit) a federation agent.

        The agent id is client-stable — ``name`` when given, else
        derived from host+pid — so an agent reconnecting after a
        partition or a coordinator restart is recognised as the owner
        of its journaled leases.  The local slots' holder id is
        reserved and refused.
        """
        agent = name or f"agent-{host}-{pid}"
        if agent == LOCAL_HOLDER:
            raise ValueError(
                f"agent id {LOCAL_HOLDER!r} is reserved for the "
                "daemon's own worker slots")
        with self._lock:
            fresh = agent not in self._agents
            self._agents[agent] = {"host": host, "pid": int(pid),
                                   "slots": max(1, int(slots)),
                                   "points": self._agents.get(
                                       agent, {}).get("points", 0),
                                   "last_seen": time.monotonic()}
        if fresh:
            self.telemetry.agent_registered(agent)
        return {"agent": agent, "lease_ttl": self.lease_ttl_s,
                "heartbeat": self.lease_ttl_s / 3.0,
                "draining": self._draining.is_set()}

    def agent_heartbeat(self, agent: str,
                        leases: Optional[list[str]] = None) -> dict:
        """Keep the agent alive and renew every lease it still holds.

        Returns the coordinator's ``draining`` flag and the subset of
        the agent's claimed ``leases`` that are stale here (expired and
        possibly re-issued).  A stale lease's eventual completion is
        still accepted and arbitrated first-write-wins; the list just
        tells the agent to stop counting on those leases.
        """
        if self._touch(agent) is None:
            # coordinator restarted (or reaped us): the agent must
            # re-register; its journaled leases survive under its id
            return {"known": False, "stale": list(leases or []),
                    "draining": self._draining.is_set()}
        now = time.time()
        stale = []
        for lease_id in leases or []:
            try:
                self.queue.renew_lease(lease_id, agent, self.lease_ttl_s,
                                       now=now)
            except (KeyError, ValueError):  # expired, or not ours
                stale.append(lease_id)
        return {"known": True, "stale": stale,
                "draining": self._draining.is_set()}

    def agent_claim(self, agent: str, max_leases: int = 1) -> dict:
        """Grant up to ``max_leases`` time-bounded leases on pending
        points, from the same walk the local slots take theirs from
        (:meth:`_grant`)."""
        if self._touch(agent) is None:
            return {"known": False, "leases": [],
                    "draining": self._draining.is_set()}
        if self._draining.is_set() or self._stop.is_set():
            return {"known": True, "leases": [], "draining": True}
        return {"known": True,
                "leases": self._grant(agent, max(1, int(max_leases))),
                "draining": False}

    def agent_complete(self, agent: str, lease_id: str, job_id: str,
                       index: int, result: Any, attempts: int) -> dict:
        """Accept a leased point's result through :meth:`_complete`;
        dispositions ``recorded`` (live lease), ``adopted`` (lease
        expired, point still open — the deterministic result is taken
        rather than recomputed), ``duplicate_result`` (point already
        done; only the counter moves)."""
        entry = self._touch(agent)
        reply = self._complete(agent, lease_id, job_id, index, result,
                               max(1, int(attempts)))
        if entry is not None and \
                reply["disposition"] != "duplicate_result":
            with self._lock:
                entry["points"] += 1
        return reply

    def agent_abandon(self, agent: str, lease_id: str) -> dict:
        """An agent gives a lease back (shutdown, drain, overload);
        the point returns to pending immediately."""
        lease = self.queue.release_lease(lease_id, "abandoned")
        return {"released": lease is not None}

    def agent_deregister(self, agent: str) -> dict:
        """Clean agent exit: abandon its leases, forget it."""
        for lease in self.queue.agent_leases(agent):
            self.queue.release_lease(lease.lease_id, "abandoned")
        with self._lock:
            known = self._agents.pop(agent, None) is not None
        if known:
            self.telemetry.agent_lost(agent, "deregistered")
        return {"deregistered": known}

    # -- progress streaming -------------------------------------------------
    def _on_queue_event(self, kind: str, payload: dict) -> None:
        if kind == "lease" and payload.get("agent") == LOCAL_HOLDER:
            # a local slot's grant reads as the classic claim
            kind = "claim"
            payload = {key: payload[key]
                       for key in ("job", "index", "kind")}
        elif kind == "lease_end":
            # the lease ended without completing: identical points
            # waiting on it become claimable again
            with self._claim_lock:
                for key, (computing, waiters) in \
                        list(self._inflight.items()):
                    if computing == payload["lease"]:
                        del self._inflight[key]
                        self._waiting.difference_update(waiters)
        self._feed_telemetry(kind, payload)
        event = {"event": kind, **payload}
        with self._lock:
            watchers = list(self._watchers)
        for job_filter, watcher in watchers:
            if job_filter is None or payload.get("job") == job_filter:
                watcher.push(event)
        if kind in ("submit", "lease_end"):
            self._notify_work()  # new or re-queued points

    def _feed_telemetry(self, kind: str, payload: dict) -> None:
        """Queue transitions → lifecycle spans (docs/observability.md).

        ``running``/``reaped``/``retried``/``deduped`` spans come from
        the local slots and the walk directly; everything that flows
        through the queue (plus the walk's ``claim`` of a deduped or
        stored point) is mapped here, so the span log and the watch
        stream can never disagree about what happened.
        """
        t = self.telemetry
        if kind == "submit":
            t.job_submitted(payload["job"], payload["kind"],
                            payload["total"])
        elif kind == "claim":
            t.point_claimed(payload["job"], payload["index"],
                            payload["kind"])
        elif kind == "point":
            t.point_done(payload["job"], payload["index"],
                         payload["kind"],
                         error=payload["status"] == "error",
                         attempts=payload.get("attempts", 1))
        elif kind == "done":
            t.job_done(payload["job"], payload["kind"])
        elif kind == "lease":
            t.point_leased(payload["job"], payload["index"],
                           payload["kind"], payload.get("agent", "?"))
        elif kind == "lease_end":
            if payload.get("why") == "expired":
                t.lease_expired(payload["job"], payload["index"],
                                payload["kind"],
                                payload.get("agent", "?"))
        elif kind == "duplicate":
            t.point_duplicate(payload["job"], payload["index"],
                              payload["kind"],
                              payload.get("agent", "?"))
        t.queue_depth(self.queue.depth())
        t.registry.gauge("svc.leases.active",
                         self.queue.active_leases())
        with self._lock:
            t.registry.gauge("svc.agents", len(self._agents))

    def _add_watcher(self, job_filter: Optional[str]) -> "_Watcher":
        watcher = _Watcher()
        with self._lock:
            self._watchers.append((job_filter, watcher))
        return watcher

    def _remove_watcher(self, watcher: "_Watcher") -> None:
        with self._lock:
            self._watchers = [(f, w) for f, w in self._watchers
                              if w is not watcher]

    # -- request handling (both protocols funnel here) ----------------------
    def handle_request(self, request: dict) -> dict:
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True, "pid": os.getpid()}
            if op == "submit":
                return {"ok": True,
                        "job": self.submit(request["kind"],
                                           request["specs"],
                                           request.get("options"),
                                           request.get("token"))}
            if op == "agent.register":
                return {"ok": True,
                        **self.agent_register(
                            request.get("name"),
                            request.get("host", "?"),
                            request.get("pid", 0),
                            request.get("slots", 1))}
            if op == "agent.heartbeat":
                return {"ok": True,
                        **self.agent_heartbeat(
                            request["agent"],
                            request.get("leases"))}
            if op == "agent.claim":
                return {"ok": True,
                        **self.agent_claim(request["agent"],
                                           request.get("max", 1))}
            if op == "agent.complete":
                return {"ok": True,
                        **self.agent_complete(
                            request["agent"], request["lease"],
                            request["job"], request["index"],
                            request.get("result"),
                            request.get("attempts", 1))}
            if op == "agent.abandon":
                return {"ok": True,
                        **self.agent_abandon(request["agent"],
                                             request["lease"])}
            if op == "agent.deregister":
                return {"ok": True,
                        **self.agent_deregister(request["agent"])}
            if op == "drain":
                return {"ok": True,
                        **self.drain(request.get("grace", 30.0))}
            if op == "status":
                return {"ok": True,
                        "job": self.queue.get(
                            request["job"]).describe()}
            if op == "result":
                return {"ok": True, **self.result(request["job"])}
            if op == "wait":
                return {"ok": True,
                        **self.wait(request["job"],
                                    request.get("timeout"))}
            if op == "jobs":
                return {"ok": True, "jobs": self.queue.list_jobs()}
            if op == "stats":
                return {"ok": True, "stats": self.stats()}
            if op == "telemetry":
                return {"ok": True,
                        "telemetry": self.telemetry.snapshot()}
            if op == "shutdown":
                threading.Thread(target=self.stop, daemon=True).start()
                return {"ok": True, "stopping": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except (KeyError, ValueError, TimeoutError) as exc:
            return {"ok": False, "error": str(exc)}


class _Watcher:
    """One watching client's event mailbox."""

    def __init__(self):
        self._events: list[dict] = []
        self._cond = threading.Condition()

    def push(self, event: dict) -> None:
        with self._cond:
            self._events.append(event)
            self._cond.notify_all()

    def pop(self, timeout: float = 0.2) -> Optional[dict]:
        with self._cond:
            if self._cond.wait_for(lambda: bool(self._events), timeout):
                return self._events.pop(0)
            return None


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True
    service: "SweepService"


class _TcpServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: "SweepService"


class _Handler(socketserver.StreamRequestHandler):
    """Speaks JSON-lines natively; sniffs and answers minimal HTTP."""

    def handle(self) -> None:
        service: SweepService = self.server.service
        first = self.rfile.readline(1 << 20)
        if not first:
            return
        head = first.split(b" ", 1)[0]
        if head in (b"GET", b"POST", b"PUT", b"DELETE", b"HEAD"):
            self._handle_http(service, first)
            return
        # JSON-lines: serve requests until the client hangs up
        line = first
        while line:
            line = line.strip()
            if line:
                try:
                    request = json.loads(line)
                except ValueError:
                    self._send({"ok": False, "error": "bad JSON"})
                    return
                if request.get("op") == "watch":
                    self._stream_watch(service, request)
                    return
                self._send(service.handle_request(request))
            try:
                line = self.rfile.readline(1 << 20)
            except OSError:
                return

    def _send(self, payload: dict) -> None:
        try:
            self.wfile.write(_canonical(payload).encode() + b"\n")
            self.wfile.flush()
        except OSError:
            pass

    def _stream_watch(self, service: SweepService,
                      request: dict) -> None:
        """One event object per line until the watched job finishes."""
        job_id = request.get("job")
        watcher = service._add_watcher(job_id)
        try:
            try:
                job = service.queue.get(job_id) if job_id else None
            except KeyError:
                self._send({"ok": False,
                            "error": f"unknown job {job_id!r}"})
                return
            self._send({"ok": True, "watching": job_id})
            if job is not None and job.finished:
                self._send({"event": "done", **job.describe()})
                return
            while not service._stop.is_set():
                event = watcher.pop(timeout=0.2)
                if event is None:
                    continue
                self._send(event)
                if event.get("event") == "done" and (
                        job_id is None or event.get("job") == job_id):
                    return
        finally:
            service._remove_watcher(watcher)

    # -- minimal HTTP -------------------------------------------------------
    def _handle_http(self, service: SweepService,
                     request_line: bytes) -> None:
        try:
            method, target, _ = \
                request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            return
        length = 0
        while True:  # drain headers, remember the body length
            header = self.rfile.readline(1 << 16)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = 0
        body = self.rfile.read(length) if length else b""
        if method == "GET" and target.rstrip("/") == "/metrics":
            # Prometheus exposition is text, not JSON — and rendering
            # happens only here, so an unscraped daemon pays nothing.
            self._send_http(200, "OK", PROM_CONTENT_TYPE,
                            service.prometheus().encode())
            return
        status, payload = self._http_route(service, method,
                                           target.rstrip("/"), body)
        data = (_canonical(payload) + "\n").encode()
        reason = {200: "OK", 400: "Bad Request",
                  404: "Not Found"}.get(status, "OK")
        self._send_http(status, reason, "application/json", data)

    def _send_http(self, status: int, reason: str, ctype: str,
                   data: bytes) -> None:
        try:
            self.wfile.write(
                f"HTTP/1.0 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(data)}\r\n\r\n".encode() + data)
            self.wfile.flush()
        except OSError:
            pass

    def _http_route(self, service: SweepService, method: str,
                    target: str, body: bytes) -> tuple[int, dict]:
        if method == "POST" and target == "/jobs":
            try:
                request = json.loads(body or b"{}")
            except ValueError:
                return 400, {"ok": False, "error": "bad JSON body"}
            request["op"] = "submit"
            reply = service.handle_request(request)
            return (200 if reply.get("ok") else 400), reply
        if method == "GET":
            if target in ("", "/", "/ping"):
                return 200, service.handle_request({"op": "ping"})
            if target == "/jobs":
                return 200, service.handle_request({"op": "jobs"})
            if target == "/stats":
                return 200, service.handle_request({"op": "stats"})
            if target.startswith("/jobs/"):
                parts = target.split("/")  # ['', 'jobs', id, ...]
                op = "result" if parts[3:] == ["result"] else "status"
                reply = service.handle_request({"op": op,
                                                "job": parts[2]})
                return (200 if reply.get("ok") else 404), reply
        return 404, {"ok": False, "error": f"no route {method} {target}"}


class ServiceClient:
    """Talk to a running daemon over its unix socket — or TCP — with
    one JSON-lines connection per request.

    One connection per request keeps the client trivial and the failure
    mode clean: a daemon that died mid-request surfaces as
    ``ConnectionError``, and a fresh daemon on the same socket serves
    the next call.  With ``retries > 0`` transient transport failures
    (connection refused during a daemon restart, a broken pipe through
    a partition) are retried transparently with exponential backoff
    plus jitter; :meth:`submit` always carries an idempotency token, so
    a retried submit whose first reply was lost can never double-
    enqueue the job.
    """

    #: exceptions worth retrying — the daemon is restarting, the socket
    #: file briefly missing, or the connection died mid-exchange
    _TRANSIENT = (ConnectionRefusedError, ConnectionResetError,
                  BrokenPipeError, ConnectionError,
                  FileNotFoundError, socket.timeout)

    def __init__(self, socket_path: Optional[str] = None,
                 timeout_s: float = 30.0,
                 tcp: Optional[tuple[str, int]] = None,
                 retries: int = 0, backoff_s: float = 0.2,
                 backoff_cap_s: float = 5.0, jitter: float = 0.25):
        if socket_path is None and tcp is None:
            raise ValueError("need a socket_path or a tcp address")
        self.socket_path = socket_path
        self.tcp = tcp
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.jitter = jitter

    def _connect(self, timeout_s: Optional[float]) -> socket.socket:
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX)
            address: Any = self.socket_path
        else:
            sock = socket.socket(socket.AF_INET)
            address = (self.tcp[0], int(self.tcp[1]))
        sock.settimeout(timeout_s if timeout_s is not None
                        else self.timeout_s)
        try:
            sock.connect(address)
        except BaseException:
            sock.close()
            raise
        return sock

    def _call(self, request: dict,
              timeout_s: Optional[float] = None) -> dict:
        attempt = 0
        while True:
            try:
                reply = self._call_once(request, timeout_s)
                break
            except self._TRANSIENT:
                if attempt >= self.retries:
                    raise
                delay = min(self.backoff_cap_s,
                            self.backoff_s * (2 ** attempt))
                delay += random.uniform(0, self.jitter * delay)
                time.sleep(delay)
                attempt += 1
        if not reply.get("ok", False):
            raise RuntimeError(
                f"service error: {reply.get('error', reply)}")
        return reply

    def _call_once(self, request: dict,
                   timeout_s: Optional[float] = None) -> dict:
        sock = self._connect(timeout_s)
        try:
            sock.sendall(_canonical(request).encode() + b"\n")
            return self._read_line(sock)
        finally:
            sock.close()

    @staticmethod
    def _read_line(sock: socket.socket) -> dict:
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        data = b"".join(chunks)
        if not data:
            raise ConnectionError("service closed the connection")
        return json.loads(data.decode())

    def ping(self) -> dict:
        return self._call({"op": "ping"})

    def submit(self, kind: str, specs: list[dict],
               options: Optional[dict] = None,
               token: Optional[str] = None) -> dict:
        # the idempotency token rides every attempt of this call, so a
        # retry after a dropped reply returns the same job
        return self._call({"op": "submit", "kind": kind, "specs": specs,
                           "options": options or {},
                           "token": token or uuid.uuid4().hex})["job"]

    def status(self, job_id: str) -> dict:
        return self._call({"op": "status", "job": job_id})["job"]

    def result(self, job_id: str) -> dict:
        return self._call({"op": "result", "job": job_id})

    def wait(self, job_id: str,
             timeout_s: Optional[float] = None) -> dict:
        return self._call({"op": "wait", "job": job_id,
                           "timeout": timeout_s},
                          timeout_s=(None if timeout_s is None
                                     else timeout_s + 5.0))

    def jobs(self) -> list[dict]:
        return self._call({"op": "jobs"})["jobs"]

    def stats(self) -> dict:
        return self._call({"op": "stats"})["stats"]

    def telemetry(self) -> dict:
        """The daemon's telemetry snapshot (counters, gauges, per-kind
        latency histograms, span-log stats)."""
        return self._call({"op": "telemetry"})["telemetry"]

    def shutdown(self) -> None:
        self._call({"op": "shutdown"})

    def watch(self, job_id: str,
              on_event: Callable[[dict], None],
              timeout_s: Optional[float] = None) -> None:
        """Stream the job's progress events; returns when it is done."""
        sock = self._connect(timeout_s)
        sock.settimeout(timeout_s if timeout_s is not None else None)
        try:
            sock.sendall(_canonical({"op": "watch",
                                     "job": job_id}).encode() + b"\n")
            buf = b""
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    return
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if not line.strip():
                        continue
                    event = json.loads(line.decode())
                    if event.get("ok") is False:
                        raise RuntimeError(
                            f"service error: {event.get('error')}")
                    if "event" in event:
                        on_event(event)
                        if event["event"] == "done":
                            return
        finally:
            sock.close()

    def sweep(self, kind: str, specs: list[dict],
              options: Optional[dict] = None,
              timeout_s: Optional[float] = None) -> list[Any]:
        """Submit + wait: a drop-in for
        :func:`repro.harness.parallel.sweep` running on the daemon."""
        job = self.submit(kind, specs, options)
        return self.wait(job["job"], timeout_s=timeout_s)["results"]


def serve(root: str, socket_path: Optional[str] = None,
          tcp_port: Optional[int] = None, jobs: int = 2,
          point_timeout_s: Optional[float] = 300.0, retries: int = 2,
          backoff_s: float = 0.1,
          store_budget_bytes: Optional[int] = None,
          lease_ttl_s: float = 30.0,
          verbose: bool = True) -> SweepService:
    """Build, start, and return a daemon (``python -m repro.harness
    serve`` blocks on it via :meth:`SweepService.run_forever`)."""
    if socket_path is None and tcp_port is None:
        socket_path = str(Path(root) / "service.sock")
    service = SweepService(
        root, socket_path=socket_path, tcp_port=tcp_port, jobs=jobs,
        point_timeout_s=point_timeout_s, retries=retries,
        backoff_s=backoff_s, store_budget_bytes=store_budget_bytes,
        lease_ttl_s=lease_ttl_s)
    service.start()
    if verbose:
        open_jobs = len(service.queue.open_jobs())
        where = socket_path or f"127.0.0.1:{service.tcp_port}"
        resumed = (f", resuming {open_jobs} journaled job(s)"
                   if open_jobs else "")
        print(f"sweep service on {where} ({service.jobs} worker "
              f"slot(s), journal {service.queue.journal_path})"
              f"{resumed}")
    return service

"""Durable job queue for the sweep service.

A *job* is one sweep: a worker (named by dotted path, resolvable in any
process), a list of JSON-able spec dicts, and per-job execution options
(timeout/retry/backoff, measurement repetitions).  The queue records
every state transition in an append-only JSONL journal, so a daemon
killed at any instant — ``kill -9`` included — rebuilds its exact state
by replaying the file:

* ``{"event": "submit", "job": ..., "kind": ..., "worker": ...,
  "specs": [...], "options": {...}, "token": ...}``
* ``{"event": "lease", "job": ..., "index": i, "lease": ...,
  "agent": ..., "deadline": wall}`` — a holder's time-bounded claim on
  one point (grants and renewals both land here)
* ``{"event": "lease_end", "lease": ..., "why": "done" | "expired" |
  "abandoned" | "stale"}``
* ``{"event": "point", "job": ..., "index": i, "status": "done" |
  "error", "result": ..., "attempts": n}``
* ``{"event": "done", "job": ...}``
* ``{"event": "duplicate", "job": ..., "index": i, "agent": ...}`` —
  a completion that lost the first-write-wins race
* ``{"event": "snapshot", ...}`` — a compaction checkpoint carrying the
  whole queue state in one line (see :meth:`JobQueue.compact`)

Completed points carry their full result inline, so a resumed job
re-delivers byte-identical rows even if the shared store has since
evicted the entry.  Appends are flushed and fsynced; a torn final line
(the write the crash interrupted) is detected and ignored on replay,
losing at most the transitions it described — which the resumed daemon
simply recomputes.

A **lease** is the only claim: a journaled hold with a wall-clock
deadline.  A federation agent renews its leases by heartbeat; the
coordinator re-queues a point whose deadline passes unrenewed, and a
restarted coordinator replays outstanding leases so a surviving agent's
completion is neither lost nor double-counted.  The daemon's own worker
slots lease under the reserved holder id :data:`LOCAL_HOLDER`; a local
slot cannot be partitioned away, so its leases never expire at runtime,
and a restarted daemon releases them on replay — those points are
pending again at once.

The journal is kept bounded by :meth:`JobQueue.compact`: the whole
state collapses into a single ``snapshot`` line written to a temp file
and atomically renamed over the journal, so a crash mid-compaction
leaves the previous journal fully intact.  Compaction runs at startup
and whenever the journal crosses ``compact_bytes``.

The queue is process-local (one daemon owns one journal) but
thread-safe: the service's worker slots, housekeeping thread, and
client handlers all mutate it under one lock.  Open jobs are indexed
apart from finished ones, so the pending-point walk and the queue-depth
gauge cost O(open work), however many jobs the daemon has ever held.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

__all__ = ["Job", "JobQueue", "Lease", "JOURNAL_NAME", "LOCAL_HOLDER"]

JOURNAL_NAME = "journal.jsonl"

#: the lease holder id of the daemon's own worker slots (agents may not
#: register under it)
LOCAL_HOLDER = "local"

#: point states, in lifecycle order
_PENDING, _LEASED = "pending", "leased"
_DONE, _ERROR = "done", "error"
_TERMINAL = (_DONE, _ERROR)


@dataclass
class Lease:
    """One holder's time-bounded hold on one point."""

    lease_id: str
    job_id: str
    index: int
    agent: str
    deadline: float  # wall clock (time.time()); survives restarts

    def describe(self) -> dict:
        return {"lease": self.lease_id, "job": self.job_id,
                "index": self.index, "agent": self.agent,
                "deadline": self.deadline}

    @classmethod
    def from_record(cls, record: dict) -> "Lease":
        return cls(lease_id=record["lease"], job_id=record["job"],
                   index=record["index"], agent=record.get("agent", ""),
                   deadline=float(record["deadline"]))


@dataclass
class Job:
    """One submitted sweep and its per-point progress."""

    job_id: str
    kind: str
    worker: str
    specs: list[dict]
    options: dict = field(default_factory=dict)
    status: str = "queued"          # queued | running | done
    point_status: list[str] = field(default_factory=list)
    results: list[Any] = field(default_factory=list)
    attempts: list[int] = field(default_factory=list)
    token: Optional[str] = None     # submit idempotency token

    def __post_init__(self):
        n = len(self.specs)
        if not self.point_status:
            self.point_status = [_PENDING] * n
        if not self.results:
            self.results = [None] * n
        if not self.attempts:
            self.attempts = [0] * n
        #: points done or errored (kept current by :meth:`settle`)
        self.completed = sum(1 for s in self.point_status
                             if s in _TERMINAL)

    @classmethod
    def from_record(cls, r: dict) -> "Job":
        """From a journal ``submit`` record or a snapshot entry."""
        return cls(job_id=r["job"], kind=r["kind"], worker=r["worker"],
                   specs=list(r["specs"]),
                   options=dict(r.get("options") or {}),
                   status=r.get("status", "queued"),
                   point_status=list(r.get("point_status", [])),
                   results=list(r.get("results", [])),
                   attempts=list(r.get("attempts", [])),
                   token=r.get("token"))

    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def errors(self) -> int:
        return sum(1 for s in self.point_status if s == _ERROR)

    @property
    def finished(self) -> bool:
        return self.completed == self.total

    def pending_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.point_status)
                if s == _PENDING]

    def settle(self, index: int, status: str, result: Any,
               attempts: int) -> bool:
        """Record point ``index``'s terminal outcome; True when the
        point was still open."""
        was_open = self.point_status[index] not in _TERMINAL
        self.point_status[index] = status
        self.results[index] = result
        self.attempts[index] = attempts
        if was_open:
            self.completed += 1
        return was_open

    def describe(self) -> dict:
        """JSON-able status snapshot (what clients poll)."""
        return {"job": self.job_id, "kind": self.kind,
                "status": self.status, "total": self.total,
                "completed": self.completed, "errors": self.errors,
                "leased": sum(1 for s in self.point_status
                              if s == _LEASED),
                "retried_points": sum(1 for a in self.attempts if a > 1),
                "options": dict(self.options)}


class JobQueue:
    """Journaled, crash-resumable queue of sweep jobs (see module doc).

    ``on_event(kind, payload)`` — when set — fires after every recorded
    transition (``"submit"``, ``"lease"``, ``"point"``, ``"done"``,
    ``"lease_end"``, ``"duplicate"``); the service uses it to stream
    progress to watching clients and to feed the telemetry span log.
    """

    def __init__(self, root: Path,
                 compact_bytes: int = 8 << 20):
        if compact_bytes < 1:
            raise ValueError(
                f"compact_bytes must be >= 1, got {compact_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / JOURNAL_NAME
        self.compact_bytes = compact_bytes
        self.jobs: dict[str, Job] = {}
        self.leases: dict[str, Lease] = {}
        self._order: list[str] = []          # submission order
        #: unfinished jobs in submission order, and their open points
        self._open: dict[str, Job] = {}
        self._open_points = 0
        self._tokens: dict[str, str] = {}    # idempotency token -> job
        self._lock = threading.RLock()
        self._seq = 0
        self.on_event: Optional[Callable[[str, dict], None]] = None
        #: journal lines dropped on replay (torn tail, corruption)
        self.recovered_drops = 0
        #: leases that passed their deadline and were re-queued
        self.lease_expirations = 0
        #: completions that arrived after the point was already done
        self.duplicate_results = 0
        #: snapshot-and-truncate passes over the journal
        self.compactions = 0
        self._journal_bytes = 0
        # A crash mid-compaction leaves a stale temp snapshot beside an
        # intact journal; drop it so a torn snapshot can never be read.
        try:
            os.unlink(self._compact_tmp_path)
        except OSError:
            pass
        self._replay()
        if self._journal_bytes > 0:
            # startup compaction: fold the replayed history into one
            # snapshot line so restarts never re-pay old replay cost
            self.compact()

    # -- journal ------------------------------------------------------------
    @property
    def _compact_tmp_path(self) -> Path:
        return self.journal_path.with_name(
            self.journal_path.name + ".compact.tmp")

    def _append(self, *records: dict) -> None:
        """Journal ``records`` with one write and one fsync.  Callers
        mutate memory first, so a compaction this append triggers
        snapshots the new state."""
        data = "".join(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n"
                       for record in records)
        with open(self.journal_path, "a") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
            self._journal_bytes = fh.tell()
        if self._journal_bytes > self.compact_bytes:
            self.compact()

    def _replay(self) -> None:
        """Rebuild queue state from the journal (daemon restart path)."""
        if not self.journal_path.exists():
            return
        with open(self.journal_path) as fh:
            for line in fh:
                self._journal_bytes += len(line.encode())
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    self._apply(record)
                except (ValueError, KeyError, IndexError, TypeError):
                    # a torn tail line (the crash-interrupted write) or
                    # hand-damage: drop it — at worst one transition is
                    # recomputed
                    self.recovered_drops += 1
        # Spent leases (the point line outlived the lease_end line) are
        # dropped instead of re-expiring, and so are the local slots'
        # leases: the slots died with the daemon that ran them.
        for lease_id, lease in list(self.leases.items()):
            job = self.jobs.get(lease.job_id)
            if job is None or lease.agent == LOCAL_HOLDER or \
                    job.point_status[lease.index] in _TERMINAL:
                del self.leases[lease_id]
        # a leased point with no live lease (released above, or its
        # lease_end line was torn away) is simply pending again
        leased = {(lease.job_id, lease.index)
                  for lease in self.leases.values()}
        for job in self.jobs.values():
            for i, s in enumerate(job.point_status):
                if s == _LEASED and (job.job_id, i) not in leased:
                    job.point_status[i] = _PENDING
            if not job.finished and job.status == "done":
                job.status = "queued"  # journal said done prematurely
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the open-job index and the open-point count."""
        self._open = {job_id: self.jobs[job_id] for job_id in self._order
                      if not self.jobs[job_id].finished}
        self._open_points = sum(job.total - job.completed
                                for job in self._open.values())

    def _apply(self, record: dict) -> None:
        event = record["event"]
        if event == "snapshot":
            self._apply_snapshot(record)
        elif event == "submit":
            self._register_job(Job.from_record(record))
        elif event == "point":
            self.jobs[record["job"]].settle(
                record["index"], record["status"], record.get("result"),
                int(record.get("attempts", 1)))
        elif event == "done":
            self.jobs[record["job"]].status = "done"
        elif event == "lease":
            job = self.jobs[record["job"]]
            lease = Lease.from_record(record)
            self.leases[lease.lease_id] = lease
            if job.point_status[lease.index] == _PENDING:
                job.point_status[lease.index] = _LEASED
        elif event == "lease_end":
            lease = self.leases.pop(record["lease"], None)
            if record.get("why") == "expired":
                self.lease_expirations += 1
            if lease is not None:
                job = self.jobs.get(lease.job_id)
                if job is not None and \
                        job.point_status[lease.index] == _LEASED:
                    job.point_status[lease.index] = _PENDING
        elif event == "duplicate":
            self.duplicate_results += 1

    def _register_job(self, job: Job) -> None:
        self.jobs[job.job_id] = job
        self._order.append(job.job_id)
        if job.token:
            self._tokens[job.token] = job.job_id
        num = job.job_id.rsplit("-", 1)[-1]
        if num.isdigit():
            self._seq = max(self._seq, int(num))

    # -- compaction ---------------------------------------------------------
    def _snapshot_record(self) -> dict:
        return {
            "event": "snapshot",
            "jobs": [{"job": j.job_id, "kind": j.kind,
                      "worker": j.worker, "specs": j.specs,
                      "options": j.options, "status": j.status,
                      "point_status": j.point_status,
                      "results": j.results, "attempts": j.attempts,
                      "token": j.token}
                     for j in (self.jobs[job_id]
                               for job_id in self._order)],
            "leases": [lease.describe()
                       for lease in self.leases.values()],
            "seq": self._seq,
            "counters": {"lease_expirations": self.lease_expirations,
                         "duplicate_results": self.duplicate_results,
                         "recovered_drops": self.recovered_drops},
        }

    def _apply_snapshot(self, record: dict) -> None:
        """Load a compaction checkpoint (always the journal's first
        line when present; later lines replay on top of it)."""
        self.jobs.clear()
        self.leases.clear()
        self._order.clear()
        self._tokens.clear()
        for entry in record["jobs"]:
            self._register_job(Job.from_record(entry))
        for entry in record.get("leases", []):
            lease = Lease.from_record(entry)
            self.leases[lease.lease_id] = lease
        self._seq = max(self._seq, int(record.get("seq", 0)))
        counters = record.get("counters") or {}
        self.lease_expirations += int(
            counters.get("lease_expirations", 0))
        self.duplicate_results += int(
            counters.get("duplicate_results", 0))
        self.recovered_drops += int(counters.get("recovered_drops", 0))

    def compact(self) -> None:
        """Snapshot-and-truncate the journal (one atomic rename).

        The full queue state — jobs with inline results, outstanding
        leases, counters — collapses into a single ``snapshot`` line.
        The new journal is written to a temp file, fsynced, and renamed
        over the old one, so a crash at any instant leaves either the
        complete old journal or the complete compacted one; a torn
        snapshot can only ever exist in the temp file, which startup
        discards.
        """
        with self._lock:
            line = json.dumps(self._snapshot_record(), sort_keys=True,
                              separators=(",", ":")) + "\n"
            tmp = self._compact_tmp_path
            with open(tmp, "w") as fh:
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.journal_path)
            self._journal_bytes = len(line.encode())
            self.compactions += 1
            self._reindex()

    # -- mutation (all journaled) -------------------------------------------
    def submit(self, kind: str, worker: str, specs: list[dict],
               options: Optional[dict] = None,
               token: Optional[str] = None) -> Job:
        """Enqueue a sweep; returns the durable :class:`Job`.

        ``token`` — a client-supplied idempotency token — makes the
        submit safe to retry after a dropped reply: a token the journal
        has already seen returns the existing job instead of enqueuing
        a second copy.
        """
        if not specs:
            raise ValueError("a job needs at least one spec")
        with self._lock:
            if token is not None and token in self._tokens:
                return self.jobs[self._tokens[token]]
            job = Job(job_id=f"job-{self._seq + 1:06d}", kind=kind,
                      worker=worker, specs=[dict(s) for s in specs],
                      options=dict(options or {}), token=token)
            self._register_job(job)
            self._open[job.job_id] = job
            self._open_points += job.total
            record = {"event": "submit", "job": job.job_id,
                      "kind": kind, "worker": worker,
                      "specs": job.specs, "options": job.options}
            if token is not None:
                record["token"] = token
            self._append(record)
        self._emit("submit", job.describe())
        return job

    def lease(self, job_id: str, index: int, agent: str,
              ttl_s: float, now: Optional[float] = None) -> Lease:
        """Grant ``agent`` a journaled, time-bounded hold on one
        pending point."""
        now = time.time() if now is None else now
        with self._lock:
            job = self.jobs[job_id]
            if job.point_status[index] != _PENDING:
                raise ValueError(
                    f"{job_id}[{index}] is "
                    f"{job.point_status[index]}, not pending")
            lease = Lease(lease_id=f"lease-{uuid.uuid4().hex[:12]}",
                          job_id=job_id, index=index, agent=agent,
                          deadline=now + ttl_s)
            self.leases[lease.lease_id] = lease
            job.point_status[index] = _LEASED
            if job.status == "queued":
                job.status = "running"
            self._append({"event": "lease", **lease.describe()})
        self._emit("lease", {"job": job_id, "index": index,
                             "kind": job.kind, "agent": agent,
                             "lease": lease.lease_id})
        return lease

    def renew_lease(self, lease_id: str, agent: str, ttl_s: float,
                    now: Optional[float] = None) -> Lease:
        """Extend a live lease's deadline (journaled, so a restarted
        coordinator honours the renewal).  Raises :class:`KeyError` for
        an unknown/expired lease and :class:`ValueError` when another
        agent holds it — the caller treats either as "stale"."""
        now = time.time() if now is None else now
        with self._lock:
            lease = self.leases.get(lease_id)
            if lease is None:
                raise KeyError(f"unknown or expired lease {lease_id!r}")
            if lease.agent != agent:
                raise ValueError(
                    f"lease {lease_id!r} is held by {lease.agent!r}, "
                    f"not {agent!r}")
            lease.deadline = now + ttl_s
            self._append({"event": "lease", **lease.describe()})
            return lease

    def release_lease(self, lease_id: str, why: str) -> Optional[Lease]:
        """End a lease (``why`` ∈ done/expired/abandoned/stale); a
        still-open point goes back to pending."""
        with self._lock:
            lease = self.leases.pop(lease_id, None)
            if lease is None:
                return None
            if why == "expired":
                self.lease_expirations += 1
            job = self.jobs.get(lease.job_id)
            requeued = False
            if job is not None and \
                    job.point_status[lease.index] == _LEASED:
                job.point_status[lease.index] = _PENDING
                requeued = True
            self._append({"event": "lease_end", "lease": lease_id,
                          "why": why})
            kind = job.kind if job is not None else "?"
        self._emit("lease_end", {"job": lease.job_id,
                                 "index": lease.index, "kind": kind,
                                 "lease": lease_id, "why": why,
                                 "agent": lease.agent,
                                 "requeued": requeued})
        return lease

    def expire_due_leases(self,
                          now: Optional[float] = None) -> list[Lease]:
        """Re-queue every lease whose deadline has passed; returns the
        expired leases (the coordinator's heartbeat-sweep tick).  The
        local slots' leases never expire at runtime."""
        now = time.time() if now is None else now
        with self._lock:
            due = [lease_id for lease_id, lease in self.leases.items()
                   if lease.deadline <= now
                   and lease.agent != LOCAL_HOLDER]
        expired = []
        for lease_id in due:
            lease = self.release_lease(lease_id, "expired")
            if lease is not None:
                expired.append(lease)
        return expired

    def agent_leases(self, agent: str) -> list[Lease]:
        with self._lock:
            return [lease for lease in self.leases.values()
                    if lease.agent == agent]

    def active_leases(self) -> int:
        with self._lock:
            return len(self.leases)

    def complete_leased(self, lease_id: Optional[str], job_id: str,
                        index: int, result: Any, error: bool,
                        attempts: int, agent: str = "") -> str:
        """Record a (possibly stale) completion; returns the
        disposition:

        * ``"recorded"`` — the lease was live; the point completes.
        * ``"adopted"`` — the lease had expired (or there was none) but
          the point is still open (nobody recomputed it yet); the
          result is valid — the workload is deterministic — so it
          completes the point instead of forcing a recompute.
        * ``"duplicate_result"`` — the point was already completed by
          someone else; nothing is recorded beyond the duplicate
          counter.  First write wins, the loser is harmless.
        """
        emits: list[tuple[str, dict]] = []
        records: list[dict] = []
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            lease = self.leases.get(lease_id)
            lease_live = (lease is not None and lease.job_id == job_id
                          and lease.index == index)
            if lease_live:
                self.leases.pop(lease_id)
            if job.point_status[index] in _TERMINAL:
                self.duplicate_results += 1
                records.append({"event": "duplicate", "job": job_id,
                                "index": index, "agent": agent})
                if lease_live:
                    # e.g. the point was adopted from this agent's
                    # previous expired lease while a fresh lease raced
                    records.append({"event": "lease_end",
                                    "lease": lease_id, "why": "stale"})
                emits.append(("duplicate",
                              {"job": job_id, "index": index,
                               "kind": job.kind, "agent": agent}))
                disposition = "duplicate_result"
            else:
                if lease_live:
                    records.append({"event": "lease_end",
                                    "lease": lease_id, "why": "done"})
                disposition = "recorded" if lease_live else "adopted"
                status = _ERROR if error else _DONE
                job.settle(index, status, result, attempts)
                self._open_points -= 1
                records.append({"event": "point", "job": job_id,
                                "index": index, "status": status,
                                "result": result, "attempts": attempts})
                emits.append(("point", {"job": job_id, "index": index,
                                        "status": status,
                                        "attempts": attempts,
                                        "kind": job.kind}))
                if job.finished:  # this point finished the job
                    self._open.pop(job_id, None)
                    job.status = "done"
                    records.append({"event": "done", "job": job_id})
                    emits.append(("done", job.describe()))
            self._append(*records)
        for kind, payload in emits:
            self._emit(kind, payload)
        return disposition

    # -- views --------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self.jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def list_jobs(self) -> list[dict]:
        with self._lock:
            return [self.jobs[j].describe() for j in self._order]

    def open_jobs(self) -> list[Job]:
        """Jobs with uncomputed points, in submission order — the
        pending-point walk's work list (and the resume set after a
        restart)."""
        with self._lock:
            return list(self._open.values())

    def depth(self) -> int:
        """Points not yet completed across all jobs (the queue-depth
        gauge ``GET /metrics`` exposes)."""
        return self._open_points

    def _emit(self, kind: str, payload: dict) -> None:
        hook = self.on_event
        if hook is not None:
            try:
                hook(kind, payload)
            except Exception:  # listeners must never break the queue
                pass

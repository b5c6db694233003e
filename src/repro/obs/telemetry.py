"""Service telemetry: job-lifecycle spans and Prometheus exposition.

The sweep service (:mod:`repro.harness.service`) is a long-running
daemon; explaining *one run* (:mod:`repro.obs.report`) is not enough to
operate it.  This module adds the daemon-side observability layer:

* :class:`SpanLog` — an append-only JSONL telemetry log living next to
  the queue journal.  One line per lifecycle transition, rotated at a
  byte budget, with lifetime counters (``spans_written``, ``rotations``)
  persisted in a ``telemetry_stats.json`` sidecar so ``--cache-stats``
  can report them even when no daemon is running.
* :class:`Telemetry` — the in-process hub: every job/point emits a
  deterministic span record (``submit → queued → claimed → running →
  retried/reaped → stored``/``error``) with monotonic durations, and
  completed points feed per-kind latency histograms (the same
  power-of-two buckets as :class:`~repro.obs.metrics.MetricsRegistry`).
* :func:`render_prometheus` — Prometheus text exposition
  (``GET /metrics`` on the service) over the telemetry registry, the
  queue, and the shared store.  Rendering happens only when a scrape
  arrives: a daemon nobody scrapes pays nothing for the exposition.
* :func:`spans_to_chrome_trace` — export a span log to the existing
  Chrome-tracing/Perfetto format, so a whole sweep renders as one
  timeline beside the in-sim flow traces
  (``python -m repro.obs timeline telemetry.jsonl -o trace.json``).

Span *structure* is deterministic: the phase sequence of each
``(job kind, point index)`` is a pure function of the sweep and its
failures, so a serial sweep, a ``-j N`` sweep, and a daemon job over
the same grid produce the same :func:`span_structure` even though
wall-clock durations (and interleavings across points) differ.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["SpanLog", "Telemetry", "PROM_CONTENT_TYPE",
           "render_prometheus", "spans_to_chrome_trace",
           "span_structure", "read_spans", "read_telemetry_stats",
           "PHASES", "TELEMETRY_LOG_NAME", "TELEMETRY_STATS_NAME"]

TELEMETRY_LOG_NAME = "telemetry.jsonl"
TELEMETRY_STATS_NAME = "telemetry_stats.json"

#: lifecycle phases, in order of first possible occurrence (the
#: ``agent_*``/``leased``/``lease_expired``/``duplicate`` phases appear
#: only under federation, so single-daemon span structures are
#: unchanged)
PHASES = ("submit", "queued", "claimed", "leased", "running", "reaped",
          "retried", "deduped", "lease_expired", "duplicate", "stored",
          "error", "done", "agent_up", "agent_lost")

#: Prometheus text-format content type (exposition format 0.0.4)
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: how often the sidecar stats file is refreshed (every N spans)
_STATS_EVERY = 128


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class SpanLog:
    """Append-only JSONL telemetry log with rotation.

    One JSON object per line.  When the live file exceeds ``max_bytes``
    it is renamed to ``<name>.1`` (replacing any previous generation)
    and a fresh file starts — the log can run forever in a daemon
    without eating the disk.  Lifetime counters survive rotation *and*
    process restarts via the ``telemetry_stats.json`` sidecar.

    Writes are flushed but not fsynced: telemetry is an observability
    aid, not the source of truth (that is the queue journal), so losing
    a tail on power-cut is acceptable and the hot path stays cheap.
    """

    def __init__(self, path: Path | str,
                 max_bytes: int = 16 << 20):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        persisted = read_telemetry_stats(self.stats_path)
        self._spans_written = persisted["spans_written"]
        self._rotations = persisted["rotations"]
        self._fh = open(self.path, "a")

    @property
    def stats_path(self) -> Path:
        return self.path.parent / TELEMETRY_STATS_NAME

    @property
    def rotated_path(self) -> Path:
        return self.path.with_name(self.path.name + ".1")

    def emit(self, record: Mapping[str, Any]) -> None:
        """Append one span record (thread-safe).

        Silently drops the span if the log is already closed or the
        write fails — a straggler worker thread finishing after daemon
        shutdown must never die on its telemetry.
        """
        line = _canonical(record) + "\n"
        with self._lock:
            try:
                if self._fh.tell() + len(line) > self.max_bytes \
                        and self._fh.tell() > 0:
                    self._rotate()
                self._fh.write(line)
                self._fh.flush()
            except (ValueError, OSError):
                return
            self._spans_written += 1
            if self._spans_written % _STATS_EVERY == 0:
                self._write_stats()

    def _rotate(self) -> None:
        """Rename the live log to ``.1`` and start a fresh file."""
        self._fh.close()
        try:
            os.replace(self.path, self.rotated_path)
        except OSError:  # pragma: no cover - racing cleanup
            pass
        self._fh = open(self.path, "a")
        self._rotations += 1
        self._write_stats()

    def _write_stats(self) -> None:
        """Refresh the sidecar (atomic, best-effort)."""
        payload = _canonical(self.stats())
        tmp = self.stats_path.with_name(
            f".{TELEMETRY_STATS_NAME}.{os.getpid()}.tmp")
        try:
            tmp.write_text(payload)
            tmp.replace(self.stats_path)
        except OSError:  # telemetry must never fail the service
            pass

    def stats(self) -> dict:
        """Lifetime counters: ``spans_written`` and ``rotations``."""
        return {"spans_written": self._spans_written,
                "rotations": self._rotations}

    def close(self) -> None:
        with self._lock:
            self._write_stats()
            self._fh.close()


def read_spans(path: Path | str) -> list[dict]:
    """Load a span log (one JSON object per non-empty line).

    Unparseable lines (a torn tail) are skipped, mirroring the queue
    journal's replay tolerance.
    """
    spans: list[dict] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    spans.append(json.loads(line))
                except ValueError:
                    continue
    except OSError:
        pass
    return spans


def read_telemetry_stats(path: Path | str) -> dict:
    """The sidecar counters, or zeros when absent/corrupt."""
    try:
        data = json.loads(Path(path).read_text())
        return {"spans_written": int(data["spans_written"]),
                "rotations": int(data["rotations"])}
    except (OSError, ValueError, KeyError, TypeError):
        return {"spans_written": 0, "rotations": 0}


class Telemetry:
    """Job-lifecycle spans + service metrics, one instance per daemon.

    Every transition is (a) appended to the :class:`SpanLog` and (b)
    folded into a private :class:`MetricsRegistry` (``svc.*`` names):
    counters for done/error/retried/reaped/deduped points, a
    ``svc.queue_depth`` gauge, and per-kind point-latency histograms
    (``svc.point_latency_us.<kind>``, power-of-two microsecond buckets,
    with ``svc.point_latency_us_sum.<kind>`` /
    ``svc.point_latency_count.<kind>`` companions so means and
    Prometheus ``_sum``/``_count`` series are exact).

    Durations are monotonic (``time.monotonic`` deltas): ``claimed``
    spans carry ``queue_ms`` (queued → claimed), ``running`` spans carry
    ``wait_ms`` (claimed → running), and terminal spans carry ``run_ms``
    (running → stored/error) and ``total_ms`` (queued → terminal).
    The *existence and order* of phases per point is deterministic; the
    durations are wall-clock facts and are not.
    """

    def __init__(self, log_path: Path | str,
                 max_bytes: int = 16 << 20):
        self.log = SpanLog(log_path, max_bytes=max_bytes)
        self.registry = MetricsRegistry()
        self._t0 = time.monotonic()
        # reentrant: _ensure_queued emits a span while holding the lock
        self._lock = threading.RLock()
        #: (job, index) -> {"queued": t, "claimed": t, "running": t}
        self._marks: dict[tuple[str, Optional[int]], dict[str, float]] = {}
        #: points whose ``queued`` span is already in the log; keeps the
        #: per-point phase order deterministic even when the submit-event
        #: fan-out races a concurrent claim (see :meth:`_ensure_queued`)
        self._queued: set[tuple[str, int]] = set()

    # -- raw emission -------------------------------------------------------
    def _now_ms(self) -> float:
        return (time.monotonic() - self._t0) * 1e3

    def span(self, phase: str, job: str, index: Optional[int] = None,
             kind: Optional[str] = None, **extra) -> dict:
        """Emit one lifecycle span record; returns it (for tests)."""
        t = self._now_ms()
        record: dict[str, Any] = {"phase": phase, "job": job, "t_ms": t}
        if index is not None:
            record["index"] = index
        if kind is not None:
            record["kind"] = kind
        key = (job, index)
        with self._lock:
            marks = self._marks.setdefault(key, {})
            if phase in ("queued", "claimed", "running"):
                marks[phase] = t
            if phase == "claimed" and "queued" in marks:
                record["queue_ms"] = t - marks["queued"]
            elif phase == "running" and "claimed" in marks:
                record["wait_ms"] = t - marks["claimed"]
            elif phase in ("stored", "error"):
                if "running" in marks:
                    record["run_ms"] = t - marks["running"]
                if "queued" in marks:
                    record["total_ms"] = t - marks["queued"]
                self._marks.pop(key, None)
        record.update(extra)
        self.log.emit(record)
        return record

    def _ensure_queued(self, job: str, index: int, kind: str) -> None:
        """Emit the point's ``queued`` span exactly once.

        In the daemon the submit event fans out on the submitting thread
        while a worker slot may already be claiming points; whichever
        side gets here first writes the span (atomically, under the
        reentrant lock), so ``queued`` always precedes ``claimed``.
        """
        with self._lock:
            if (job, index) in self._queued:
                return
            self._queued.add((job, index))
            self.span("queued", job, index, kind=kind)

    # -- lifecycle helpers (what the service and sweep runner call) ---------
    def job_submitted(self, job: str, kind: str, total: int) -> None:
        self.span("submit", job, kind=kind, total=total)
        for index in range(total):
            self._ensure_queued(job, index, kind)

    def point_claimed(self, job: str, index: int, kind: str) -> None:
        self._ensure_queued(job, index, kind)
        self.span("claimed", job, index, kind=kind)

    def point_running(self, job: str, index: int, kind: str) -> None:
        self.span("running", job, index, kind=kind)

    def point_failure(self, job: str, index: int, kind: str,
                      failure: str, attempt: int,
                      will_retry: bool) -> None:
        """One reaped attempt (timeout or killed worker)."""
        self.registry.inc("svc.points.reaped")
        self.span("reaped", job, index, kind=kind, failure=failure,
                  attempt=attempt)
        if will_retry:
            self.registry.inc("svc.points.retried")
            self.span("retried", job, index, kind=kind,
                      attempt=attempt + 1)

    def point_deduped(self, job: str, index: int, kind: str) -> None:
        self._ensure_queued(job, index, kind)
        self.registry.inc("svc.points.deduped")
        self.span("deduped", job, index, kind=kind)

    def point_done(self, job: str, index: int, kind: str,
                   error: bool, attempts: int = 1) -> None:
        """Terminal span; successful points feed the latency histogram."""
        phase = "error" if error else "stored"
        self.registry.inc(f"svc.points.{'error' if error else 'done'}")
        record = self.span(phase, job, index, kind=kind,
                           attempts=attempts)
        run_ms = record.get("run_ms")
        if not error and run_ms is not None:
            us = max(0, int(run_ms * 1e3))
            self.registry.observe(f"svc.point_latency_us.{kind}", us)
            self.registry.inc(f"svc.point_latency_us_sum.{kind}", us)
            self.registry.inc(f"svc.point_latency_count.{kind}")

    # -- federation lifecycle (coordinator-side) ----------------------------
    def agent_registered(self, agent: str) -> None:
        self.registry.inc("svc.agents.registered")
        self.span("agent_up", agent)

    def agent_lost(self, agent: str, why: str) -> None:
        """An agent deregistered, missed heartbeats, or was reaped."""
        self.registry.inc("svc.agents.lost")
        self.span("agent_lost", agent, why=why)

    def point_leased(self, job: str, index: int, kind: str,
                     agent: str) -> None:
        self._ensure_queued(job, index, kind)
        self.span("leased", job, index, kind=kind, agent=agent)

    def lease_expired(self, job: str, index: int, kind: str,
                      agent: str) -> None:
        """A lease passed its deadline unrenewed; the point re-queued."""
        self.registry.inc("svc.leases.expired")
        self.span("lease_expired", job, index, kind=kind, agent=agent)

    def point_duplicate(self, job: str, index: int, kind: str,
                        agent: str) -> None:
        """A completion lost the first-write-wins race (harmless)."""
        self.registry.inc("svc.points.duplicate")
        self.span("duplicate", job, index, kind=kind, agent=agent)

    def job_done(self, job: str, kind: str) -> None:
        self.span("done", job, kind=kind)
        with self._lock:
            self._queued = {key for key in self._queued
                            if key[0] != job}

    def queue_depth(self, depth: int) -> None:
        self.registry.gauge("svc.queue_depth", depth)

    # -- readers ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Counters/gauges/histograms plus the span-log stats."""
        return {**self.registry.snapshot(), "log": self.log.stats()}

    def latency_means_s(self) -> dict[str, float]:
        """Mean successful-point latency per kind, in seconds."""
        counters = self.registry.counters
        means: dict[str, float] = {}
        for name, total in counters.items():
            if not name.startswith("svc.point_latency_us_sum."):
                continue
            kind = name[len("svc.point_latency_us_sum."):]
            count = counters.get(f"svc.point_latency_count.{kind}", 0)
            if count > 0:
                means[kind] = (total / count) / 1e6
        return means

    def close(self) -> None:
        self.log.close()


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _prom_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _histogram_lines(name: str, kind: str,
                     buckets: Mapping[str, int],
                     sum_us: float) -> list[str]:
    """Cumulative ``le`` bucket series for one power-of-two histogram.

    A sample in power-of-two floor bucket ``b`` lies in ``[b, 2b)``
    microseconds, so its upper edge is ``2b`` (``1`` for the zero
    bucket); edges convert to seconds.  Buckets are cumulative and
    monotonically non-decreasing by construction, ending in ``+Inf``.
    """
    label = f'kind="{_prom_escape(kind)}"'
    edges = sorted(((2 * int(b)) if int(b) > 0 else 1, count)
                   for b, count in buckets.items())
    lines = []
    cumulative = 0
    for edge_us, count in edges:
        cumulative += count
        lines.append(f'{name}_bucket{{{label},le="{edge_us / 1e6:.9g}"}}'
                     f' {cumulative}')
    lines.append(f'{name}_bucket{{{label},le="+Inf"}} {cumulative}')
    lines.append(f'{name}_sum{{{label}}} {_prom_num(sum_us / 1e6)}')
    lines.append(f'{name}_count{{{label}}} {cumulative}')
    return lines


def render_prometheus(telemetry: Optional[Telemetry] = None,
                      queue_depth: int = 0, inflight: int = 0,
                      open_jobs: int = 0, workers: int = 0,
                      store_stats: Optional[Mapping[str, int]] = None,
                      store_entries: Optional[int] = None,
                      agents: int = 0, leases_active: int = 0,
                      lease_expirations: int = 0,
                      duplicate_results: int = 0) -> str:
    """The service's ``GET /metrics`` body (Prometheus text format).

    Families: ``clmpi_queue_depth`` / ``clmpi_inflight_points`` /
    ``clmpi_open_jobs`` / ``clmpi_worker_slots`` /
    ``clmpi_workers`` / ``clmpi_leases_active`` gauges,
    ``clmpi_points_total{outcome=...}``,
    ``clmpi_lease_expirations_total`` /
    ``clmpi_duplicate_results_total`` and
    ``clmpi_store_<stat>_total`` counters,
    ``clmpi_spans_written_total`` / ``clmpi_span_log_rotations_total``,
    and one ``clmpi_point_latency_seconds`` histogram per job kind.
    """
    out: list[str] = []

    def family(name: str, mtype: str, help_text: str,
               lines: list[str]) -> None:
        out.append(f"# HELP {name} {help_text}")
        out.append(f"# TYPE {name} {mtype}")
        out.extend(lines)

    family("clmpi_queue_depth", "gauge",
           "Sweep points not yet completed across open jobs.",
           [f"clmpi_queue_depth {_prom_num(queue_depth)}"])
    family("clmpi_inflight_points", "gauge",
           "Distinct points currently computing (after dedup).",
           [f"clmpi_inflight_points {_prom_num(inflight)}"])
    family("clmpi_open_jobs", "gauge",
           "Jobs with uncomputed points.",
           [f"clmpi_open_jobs {_prom_num(open_jobs)}"])
    family("clmpi_worker_slots", "gauge",
           "Concurrent point-worker slots the daemon runs.",
           [f"clmpi_worker_slots {_prom_num(workers)}"])
    family("clmpi_workers", "gauge",
           "Federation agents currently registered.",
           [f"clmpi_workers {_prom_num(agents)}"])
    family("clmpi_leases_active", "gauge",
           "Points currently held under a live agent lease.",
           [f"clmpi_leases_active {_prom_num(leases_active)}"])
    family("clmpi_lease_expirations_total", "counter",
           "Leases that passed their deadline unrenewed (point "
           "re-queued).",
           [f"clmpi_lease_expirations_total "
            f"{_prom_num(lease_expirations)}"])
    family("clmpi_duplicate_results_total", "counter",
           "Completions that lost the first-write-wins race.",
           [f"clmpi_duplicate_results_total "
            f"{_prom_num(duplicate_results)}"])

    counters = telemetry.registry.counters if telemetry is not None else {}
    outcome_lines = []
    for outcome in ("done", "error", "retried", "reaped", "deduped"):
        value = counters.get(f"svc.points.{outcome}", 0)
        outcome_lines.append(
            f'clmpi_points_total{{outcome="{outcome}"}} '
            f"{_prom_num(value)}")
    family("clmpi_points_total", "counter",
           "Completed point transitions by outcome.", outcome_lines)

    log_stats = (telemetry.log.stats() if telemetry is not None
                 else {"spans_written": 0, "rotations": 0})
    family("clmpi_spans_written_total", "counter",
           "Lifecycle spans appended to the telemetry log.",
           [f"clmpi_spans_written_total "
            f"{_prom_num(log_stats['spans_written'])}"])
    family("clmpi_span_log_rotations_total", "counter",
           "Telemetry log rotations.",
           [f"clmpi_span_log_rotations_total "
            f"{_prom_num(log_stats['rotations'])}"])

    store_stats = store_stats or {}
    store_lines = []
    for stat in ("hits", "misses", "evicted", "corrupt_deleted",
                 "corrupt_replaced"):
        store_lines.append(
            f'clmpi_store_total{{event="{stat}"}} '
            f"{_prom_num(store_stats.get(stat, 0))}")
    family("clmpi_store_total", "counter",
           "Shared result-store events (hits, misses, evictions, "
           "corrupt-entry recoveries).", store_lines)
    if store_entries is not None:
        family("clmpi_store_entries", "gauge",
               "Entries currently in the shared result store.",
               [f"clmpi_store_entries {_prom_num(store_entries)}"])

    if telemetry is not None:
        histograms = telemetry.registry.snapshot()["histograms"]
        hist_lines: list[str] = []
        for name in sorted(histograms):
            if not name.startswith("svc.point_latency_us."):
                continue
            kind = name[len("svc.point_latency_us."):]
            sum_us = counters.get(f"svc.point_latency_us_sum.{kind}", 0)
            hist_lines.extend(_histogram_lines(
                "clmpi_point_latency_seconds", kind,
                histograms[name], sum_us))
        if hist_lines:
            family("clmpi_point_latency_seconds", "histogram",
                   "Successful point wall-clock latency by job kind.",
                   hist_lines)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# span-log analysis and export
# ---------------------------------------------------------------------------
def span_structure(spans: list[dict]) -> dict[str, list[str]]:
    """The deterministic shape of a span log.

    Maps ``"<kind>[<index>]"`` (or ``"<kind>"`` for job-level spans) to
    that point's phase sequence, with per-point order preserved.  Two
    runs of the same sweep — serial, ``-j N``, or via the daemon — have
    equal structures even though global interleaving and every duration
    differ.
    """
    structure: dict[str, list[str]] = {}
    for span in spans:
        kind = span.get("kind", "?")
        index = span.get("index")
        key = kind if index is None else f"{kind}[{index}]"
        structure.setdefault(key, []).append(span["phase"])
    return {key: structure[key] for key in sorted(structure)}


#: span phase -> Chrome-tracing category (colors in Perfetto)
_PHASE_CATEGORY = {"queued": "sync", "claimed": "host",
                   "running": "compute", "reaped": "d2h",
                   "retried": "h2d", "deduped": "sync"}


def spans_to_chrome_trace(spans: list[dict]) -> list[dict]:
    """Export a span log as Chrome-tracing events (Perfetto-loadable).

    Jobs become threads; each point's queued → terminal life renders as
    nested ``X`` slices (queue wait, then execution), with instant
    events (``ph: "i"``) for reap/retry/dedup transitions — the service
    analogue of :meth:`repro.sim.trace.Tracer.to_chrome_trace`, so a
    whole sweep's timeline sits beside the in-sim flow traces.
    """
    jobs: list[str] = []
    for span in spans:
        if span.get("job") not in jobs:
            jobs.append(span.get("job"))
    tid = {job: i for i, job in enumerate(jobs)}
    events: list[dict] = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": i,
         "args": {"name": job}}
        for job, i in tid.items()
    ]
    #: (job, index) -> {"phase": t_ms}
    marks: dict[tuple, dict[str, float]] = {}
    for span in spans:
        key = (span.get("job"), span.get("index"))
        phase, t = span["phase"], span.get("t_ms", 0.0)
        marks.setdefault(key, {})[phase] = t
        if span.get("index") is None:
            continue
        name = f"{span.get('kind', 'point')}[{span['index']}]"
        if phase in ("reaped", "retried", "deduped"):
            events.append({"name": f"{name} {phase}",
                           "cat": _PHASE_CATEGORY[phase], "ph": "i",
                           "s": "t", "pid": 0,
                           "tid": tid[span.get("job")],
                           "ts": t * 1e3})
        elif phase in ("stored", "error"):
            seen = marks[key]
            start = seen.get("queued", seen.get("claimed", t))
            run_start = seen.get("running", start)
            events.append({"name": f"{name} queued", "cat": "sync",
                           "ph": "X", "pid": 0,
                           "tid": tid[span.get("job")],
                           "ts": start * 1e3,
                           "dur": max(0.0, run_start - start) * 1e3})
            events.append({"name": f"{name} {phase}",
                           "cat": ("compute" if phase == "stored"
                                   else "d2h"),
                           "ph": "X", "pid": 0,
                           "tid": tid[span.get("job")],
                           "ts": run_start * 1e3,
                           "dur": max(0.0, t - run_start) * 1e3,
                           "args": {k: v for k, v in span.items()
                                    if k.endswith("_ms")
                                    or k == "attempts"}})
    return events


def save_chrome_trace(spans: list[dict], path: Path | str) -> None:
    """Write :func:`spans_to_chrome_trace` output as a JSON file."""
    with open(path, "w") as fh:
        json.dump({"traceEvents": spans_to_chrome_trace(spans)}, fh)

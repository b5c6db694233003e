"""The benchmark's four workloads.

Each workload is a closed loop over a fixed grid of sweep points.  A
pass issues every point once, in an order drawn from the run's seed,
and waits for each result before issuing the next (``service_sweep``
runs two such clients side by side).  After the timed part of the pass,
every output is checked against the digests recorded from the reference
commit in ``expected.json``; a point whose output is wrong, missing or
an error record counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from layers import EnvProbe
from repro.apps.collective_load import (collective_load_point,
                                        collective_load_specs)
from repro.apps.pingpong import bandwidth_point, bandwidth_specs
from repro.harness import (ResultCache, fig9, fig10, run_fig4, run_fig8,
                           run_fig9, run_fig10, run_table1, sweep)
from repro.harness.service import ServiceClient, SweepService
from repro.obs.telemetry import TELEMETRY_LOG_NAME, read_spans
from repro.systems import get_system

MiB = 1 << 20

#: outputs that come from no sweep point: a wrong one fails the pass
_WHOLE_PASS = ("table1", "fig4")


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    text = obj if isinstance(obj, str) else canonical(obj)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Point:
    """One sweep point: the figure it belongs to and its public worker."""

    figure: str
    kind: str
    worker: Callable[[dict], dict]
    spec: dict

    @property
    def key(self) -> str:
        return f"{self.kind} {canonical(self.spec)}"


@dataclass
class Pass:
    """What one pass measured and produced."""

    seconds: float
    point_ms: list[float]
    attempted: int
    #: keys of the points whose output was wrong, missing or an error
    failed: set[str]
    #: output name -> digest, compared across every pass of a run
    outputs: dict[str, str]
    #: workload-specific per-pass facts for the traced report
    extras: dict[str, float] = field(default_factory=dict)
    #: reference-host seconds per host second while the pass ran
    scale: float = 1.0


def _is_error(row: Any) -> bool:
    return isinstance(row, dict) and "sweep_error" in row


def _check_points(points: list[Point], rows: dict, expected: dict,
                  failed: set, outputs: dict) -> None:
    for p in points:
        row = rows.get(p.key)
        if row is None or _is_error(row):
            failed.add(p.key)
            continue
        outputs[p.key] = digest(row)
        if expected.get(p.key) != outputs[p.key]:
            failed.add(p.key)


# ---------------------------------------------------------------------------
# paper_cold / paper_warm: everything ``python -m repro.harness all`` makes
# ---------------------------------------------------------------------------
def paper_grid() -> list[Point]:
    """The 139 sweep points of Fig 8a/8b, 9a/9b and 10, built exactly as
    the figure functions build them (the figure's own cache lookups
    must find every row)."""
    grid = []
    for system, fig in (("cichlid", "fig8a"), ("ricc", "fig8b")):
        for spec in bandwidth_specs(get_system(system).name,
                                    pipeline_blocks=[MiB, 4 * MiB, 16 * MiB],
                                    repeats=4):
            grid.append(Point(fig, "bandwidth", bandwidth_point, spec))
    for system, fig in (("cichlid", "fig9a"), ("ricc", "fig9b")):
        name = get_system(system).name
        for n in fig9.DEFAULT_NODES[system]:
            for impl in fig9.IMPLS:
                grid.append(Point(fig, "himeno", fig9.himeno_point, {
                    "system": name, "nodes": n, "impl": impl, "size": "M",
                    "iterations": 4, "functional": False}))
    name = get_system("ricc").name
    for n in fig10.DEFAULT_NODES:
        for impl in fig10.IMPLS:
            grid.append(Point("fig10", "nanopowder", fig10.nanopowder_point, {
                "system": name, "nodes": n, "impl": impl, "steps": 2,
                "scale": "paper", "functional": False}))
    return grid


def _figures() -> dict[str, Callable]:
    return {
        "fig8a": lambda c: run_fig8(system="cichlid", verbose=False, cache=c),
        "fig8b": lambda c: run_fig8(system="ricc", verbose=False, cache=c),
        "fig9a": lambda c: run_fig9(system="cichlid", verbose=False, cache=c),
        "fig9b": lambda c: run_fig9(system="ricc", verbose=False, cache=c),
        "fig10": lambda c: run_fig10(verbose=False, cache=c),
    }


class _PassRows:
    """A read-only result store over one pass's rows, so the figure
    functions assemble their tables from exactly the rows the pass
    computed.  A miss means the benchmark's grid and the figure's
    disagree; the figure then computes that point itself."""

    def __init__(self, rows: dict):
        self.rows = rows
        self.misses = 0

    def get(self, kind: str, spec: dict) -> Optional[dict]:
        row = self.rows.get(f"{kind} {canonical(spec)}")
        self.misses += row is None
        return row

    def put(self, kind: str, spec: dict, result: Any) -> None:
        pass


def _fig4_outputs(panels) -> list:
    return [[p.label, p.implementation, p.nodes, p.chart, p.overlap,
             p.net_time, p.compute_time] for p in panels]


class Paper:
    """``paper_cold``: the full reproduction with no result store, as
    ``python -m repro.harness all --no-cache`` runs it (Table I, Fig 4
    and the 139 sweep points, serially on the coroutine engine).
    ``paper_warm``: the same 139 points and tables against a store
    filled during setup, so every point is a hit."""

    threaded = False

    def __init__(self, name: str, work: Path, expected: dict):
        self.name = name
        self.warm = name == "paper_warm"
        self.work = work
        self.expected = expected
        self.grid: list[Point] = []
        self.store = None
        self.cold_tables: dict[str, str] = {}

    def setup(self) -> None:
        self.grid = paper_grid()
        self._figs = _figures()
        if self.warm:
            self.store = ResultCache(root=self.work / "store")
            filled = self._pass(self.grid, self.store, None)
            self.cold_tables = {k: v for k, v in filled.outputs.items()
                                if k in self._figs or k == "table1"}
            self.store.metrics.counters.clear()

    def teardown(self) -> None:
        pass

    def run_pass(self, order: list[int], profiler=None) -> Pass:
        return self._pass([self.grid[i] for i in order], self.store,
                          profiler)

    def _pass(self, points: list[Point], store, profiler) -> Pass:
        counters = {} if store is None else store.metrics.counters
        before = dict(counters)
        rows: dict[str, Any] = {}
        point_ms: list[float] = []
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        for p in points:
            t = time.perf_counter()
            rows[p.key] = sweep(p.worker, [p.spec], jobs=1, cache=store,
                                kind=p.kind)[0]
            point_ms.append((time.perf_counter() - t) * 1e3)
        memo = _PassRows(rows)
        tables = {"table1": run_table1(verbose=False).to_json()}
        stray = {}
        for name, build in self._figs.items():
            tables[name] = build(memo).to_json()
            stray[name], memo.misses = memo.misses, 0
        if not self.warm:
            tables["fig4"] = canonical(
                _fig4_outputs(run_fig4(verbose=False)))
        seconds = time.perf_counter() - t0
        if profiler is not None:
            profiler.disable()

        failed: set[str] = set()
        outputs: dict[str, str] = {}
        _check_points(points, rows, self.expected["points"], failed,
                      outputs)
        for name, text in tables.items():
            outputs[name] = digest(text)
            wrong = (outputs[name] != self.expected["tables"].get(name)
                     or stray.get(name, 0) > 0
                     or (self.cold_tables
                         and outputs[name] != self.cold_tables[name]))
            if wrong:
                failed.update(p.key for p in points
                              if p.figure == name or name in _WHOLE_PASS)
        return Pass(seconds, point_ms, len(points), failed, outputs, {
            name: counters.get(name, 0) - before.get(name, 0)
            for name in ("cache.hits", "cache.misses")})


# ---------------------------------------------------------------------------
# service_sweep: the Fig 8 grid through the daemon
# ---------------------------------------------------------------------------
class Service:
    """The 96-point Fig 8 grid (both presets) sent to an in-process
    daemon with two worker slots over its unix socket, by two clients
    that each submit one single-point job, watch it to completion and
    fetch its result.  Every pass gets a fresh daemon with an empty
    store, so every point computes and every pass meets the same
    daemon state: a daemon's per-point cost grows with every job it
    has held (its dispatcher and queue-depth gauge scan the whole job
    table), so on one long-lived daemon a pass's time would depend on
    how many passes ran before it."""

    name = "service_sweep"
    threaded = True
    clients = 2

    def __init__(self, name: str, work: Path, expected: dict):
        self.work = work
        self.expected = expected
        self.svc = None
        self.inline: dict[str, Any] = {}
        self.inline_ms: dict[str, float] = {}
        self._daemons = 0
        self._served = False
        #: queued->claimed and running->stored ms of the passes so far
        self._spans: tuple[list[float], list[float]] = ([], [])

    def setup(self) -> None:
        self.grid = [p for p in paper_grid() if p.kind == "bandwidth"]
        self.start_daemon()

    def start_daemon(self) -> None:
        """Start a fresh daemon in a fresh directory."""
        self.stop_daemon()
        self._daemons += 1
        root = self.work / f"svc{self._daemons}"
        root.mkdir(parents=True)
        self._served = False
        # unix socket paths are short (108 bytes): prefer the relative
        # form when the checkout lives deep in the file system
        sock = str(root / "s.sock")
        rel = os.path.relpath(sock)
        sock = min((sock, rel), key=len)
        self.svc = SweepService(root, socket_path=sock, jobs=2)
        self.svc.start()
        self.client = ServiceClient(socket_path=sock, timeout_s=120.0)
        self.client.ping()

    def stop_daemon(self) -> None:
        if self.svc is not None:
            self.svc.stop()
            shutil.rmtree(self.svc.root, ignore_errors=True)
            self.svc = None

    def teardown(self) -> None:
        self.stop_daemon()

    def reference(self) -> None:
        """Inline ``sweep`` rows for the same specs: the service's rows
        must equal them, and their compute time is the share of a
        service round trip that is the point itself."""
        for p in self.grid:
            t = time.perf_counter()
            self.inline[p.key] = sweep(p.worker, [p.spec], jobs=1,
                                       kind=p.kind)[0]
            self.inline_ms[p.key] = (time.perf_counter() - t) * 1e3

    def read_spans(self) -> tuple[list[float], list[float]]:
        """The queued->claimed and running->stored times of the passes
        since the last call, from each daemon's own telemetry span log."""
        spans, self._spans = self._spans, ([], [])
        return spans

    def _keep_spans(self) -> None:
        spans = read_spans(self.svc.root / TELEMETRY_LOG_NAME)
        self._spans[0].extend(s["queue_ms"] for s in spans
                              if s["phase"] == "claimed" and "queue_ms" in s)
        self._spans[1].extend(s["run_ms"] for s in spans
                              if s["phase"] == "stored" and "run_ms" in s)

    def run_pass(self, order: list[int], profiler=None) -> Pass:
        if self._served:
            self.start_daemon()
        self._served = True
        journal = self.svc.queue.journal_path
        journal_before = journal.stat().st_size if journal.exists() else 0
        points = [self.grid[i] for i in order]
        rows: dict[str, Any] = {}
        attempts: list[int] = []
        point_ms: list[float] = []
        errors: list[BaseException] = []

        def client(mine: list[Point]) -> None:
            try:
                for p in mine:
                    t = time.perf_counter()
                    job = self.client.submit(p.kind, [p.spec])["job"]
                    # the event stream, not the ``wait`` op: that one
                    # polls every 20 ms, which would quantize each
                    # round trip into a 20 ms bucket
                    self.client.watch(job, lambda event: None,
                                      timeout_s=120.0)
                    out = self.client.result(job)
                    point_ms.append((time.perf_counter() - t) * 1e3)
                    rows[p.key] = out["results"][0]
                    attempts.extend(out["attempts"])
            except Exception as exc:  # the unanswered points count failed
                errors.append(exc)

        threads = [threading.Thread(target=client,
                                    args=(points[i::self.clients],))
                   for i in range(self.clients)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seconds = time.perf_counter() - t0
        for exc in errors:
            print(f"service client gave up: {exc!r}", file=sys.stderr)

        failed: set[str] = set()
        outputs: dict[str, str] = {}
        _check_points(points, rows, self.expected["points"], failed,
                      outputs)
        if self.inline:
            failed.update(p.key for p in points if p.key in rows
                          and canonical(rows[p.key])
                          != canonical(self.inline[p.key]))
        self._keep_spans()
        store = self.svc.store.metrics.counters
        return Pass(seconds, point_ms, len(points), failed, outputs, {
            "attempts": sum(attempts),
            "journal_bytes": journal.stat().st_size - journal_before,
            "cache.hits": store.get("cache.hits", 0),
            "cache.misses": store.get("cache.misses", 0)})


# ---------------------------------------------------------------------------
# mesoscale: 1k+ ranks on the vectorized engine
# ---------------------------------------------------------------------------
def mesoscale_grid() -> list[Point]:
    """Fig 8 at 2048 ranks on RICC, serial and clMPI Himeno at 1024
    nodes and the collective load at 1024 ranks on both presets; every
    spec forbids the silent coroutine fallback."""
    grid = [Point("fig8-2048", "bandwidth", bandwidth_point, spec)
            for spec in bandwidth_specs(
                get_system("ricc").name,
                pipeline_blocks=[MiB, 4 * MiB, 16 * MiB], repeats=4,
                ranks=2048, engine="vectorized")]
    for system in ("cichlid", "ricc"):
        name = get_system(system).name
        for impl in ("serial", "clmpi"):
            grid.append(Point("himeno-1024", "himeno", fig9.himeno_point, {
                "system": name, "nodes": 1024, "impl": impl, "size": "M",
                "dims": [2050, 33, 33], "iterations": 4,
                "functional": False, "engine": "vectorized"}))
        for spec in collective_load_specs(name, [1024],
                                          engine="vectorized"):
            grid.append(Point("collective-1024", "collective_load",
                              collective_load_point, spec))
    for p in grid:
        p.spec["strict_engine"] = True
    return grid


class Mesoscale:
    """The vectorized-engine workload: no coroutine environment may be
    built while a point runs, and a refusal (``EngineError`` under
    ``strict_engine=True``) is a failed point, never a slow one."""

    name = "mesoscale"
    threaded = False

    def __init__(self, name: str, work: Path, expected: dict):
        self.expected = expected
        self.probe = None

    def setup(self) -> None:
        self.grid = mesoscale_grid()
        self.ranks = {p.key: p.spec.get("ranks", p.spec.get("nodes"))
                      for p in self.grid}
        self.probe = EnvProbe(attach=False).__enter__()

    def teardown(self) -> None:
        if self.probe is not None:
            self.probe.__exit__(None, None, None)
            self.probe = None

    def run_pass(self, order: list[int], profiler=None) -> Pass:
        points = [self.grid[i] for i in order]
        rows: dict[str, Any] = {}
        point_ms: list[float] = []
        failed: set[str] = set()
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        for p in points:
            envs = self.probe.coroutine_envs()
            t = time.perf_counter()
            try:
                rows[p.key] = p.worker(p.spec)
            except Exception:  # a refusal: the point failed, loudly
                pass
            point_ms.append((time.perf_counter() - t) * 1e3)
            if self.probe.coroutine_envs() != envs:
                failed.add(p.key)  # fell back to the coroutine engine
        seconds = time.perf_counter() - t0
        if profiler is not None:
            profiler.disable()
        outputs: dict[str, str] = {}
        _check_points(points, rows, self.expected["points"], failed,
                      outputs)
        return Pass(seconds, point_ms, len(points), failed, outputs, {
            "rank_points": sum(self.ranks[p.key] for p in points)})


WORKLOADS = {"paper_cold": Paper, "paper_warm": Paper,
             "service_sweep": Service, "mesoscale": Mesoscale}

"""Deterministic fan-out of independent sweep points.

Every harness artefact (Fig 8/9/10, Table 1, the autotune survey) is a
grid of *independent* simulations, each fully described by a small
JSON-able spec dict.  :func:`sweep` maps a picklable worker over such a
grid, optionally through a :class:`~repro.harness.cache.ResultCache`,
and returns results **in spec order** regardless of completion order —
so a serial run, a parallel run, and a warm-cache run produce
byte-identical reports.

Contract for workers:

* a module-level function (picklable by reference) taking one spec dict;
* returns a JSON-able dict of primitives — no tuples, no objects — so
  the value survives both the pickle hop from a worker process and the
  JSON round-trip through the cache without changing shape.

A sweep never dies with its points: a worker that raises — or a worker
process that is killed outright — yields an *error record* (see
:func:`is_error_record`) in that point's slot, and every other point
still completes.  Error records are never written to the cache, so a
repaired run recomputes exactly the failed points.

Every parallel point runs on a persistent :class:`WorkerProcess`,
forked once and reaped — and re-forked — only when a point overruns its
deadline or the process dies.  ``sweep -j N`` deals its points one at a
time to N of them; the sweep service's lease holders each own one.
:func:`compute_with_retry` and :func:`compute_point` add the
retry/backoff and repetition loops on top.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from typing import Any, Callable, Optional, Sequence

from repro.harness.cache import ResultCache

__all__ = ["resolve_jobs", "sweep", "measured_sweep",
           "is_error_record", "error_record", "PointTimeout",
           "WorkerDied", "RetryPolicy", "WorkerProcess",
           "compute_with_retry", "compute_point"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker-count policy: None/0 → one per CPU, else the given count."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return jobs


def error_record(spec: dict, exc: BaseException,
                 message: Optional[str] = None) -> dict:
    """Structured record for a sweep point that could not be computed."""
    return {"sweep_error": {
        "type": type(exc).__name__,
        "message": message if message is not None else str(exc),
        "spec": spec,
    }}


def is_error_record(result: Any) -> bool:
    """True for the error records :func:`sweep` leaves in failed slots."""
    return isinstance(result, dict) and "sweep_error" in result


def sweep(worker: Callable[[dict], Any], specs: Sequence[dict],
          jobs: Optional[int] = 1,
          cache: Optional[ResultCache] = None,
          kind: str = "sweep",
          telemetry=None) -> list[Any]:
    """``[worker(s) for s in specs]``, cached, fanned out, crash-proof.

    Cache lookups and stores happen here in the parent — worker
    processes never touch the cache directory, so no locking is needed
    and the hit/miss counters are exact.  ``jobs=1`` (the default, or a
    one-point grid) runs inline with no worker process at all; results
    are identical either way because each point is an isolated
    simulation.  ``jobs=0`` (or None) means one worker per CPU.

    A point whose worker raises (or whose worker process dies twice)
    comes back as an error record instead of aborting the sweep; the
    figure code skips such slots and reports a partial result.

    ``telemetry`` (a :class:`repro.obs.telemetry.Telemetry`, or None)
    receives the same lifecycle spans the sweep service emits — every
    point goes queued → claimed → running → stored/error, so a serial
    run, a ``-j N`` run, and a daemon job over the same grid produce
    the same span *structure*.  ``None`` (the default) is the zero-cost
    path: not a single extra attribute lookup per point.
    """
    if telemetry is not None:
        telemetry.job_submitted("sweep", kind, len(specs))
    results: list[Any] = [None] * len(specs)
    todo: list[int] = []
    for i, spec in enumerate(specs):
        if cache is not None:
            hit = cache.get(kind, spec)
            if hit is not None:
                results[i] = hit
                continue
        todo.append(i)

    njobs = resolve_jobs(jobs)
    if todo:
        if njobs <= 1 or len(todo) == 1:
            computed = [_run_one_traced(worker, specs[i], telemetry, kind, i)
                        for i in todo]
        else:
            if telemetry is not None:
                # terminal spans are emitted in spec order below —
                # completion order across the workers is a wall-clock
                # accident the span structure must not record
                for i in todo:
                    telemetry.point_claimed("sweep", i, kind)
                    telemetry.point_running("sweep", i, kind)
            computed = _run_workers(worker, [specs[i] for i in todo],
                                    njobs)
            if telemetry is not None:
                for i, result in zip(todo, computed):
                    telemetry.point_done("sweep", i, kind,
                                         error=is_error_record(result))
        for i, result in zip(todo, computed):
            if cache is not None and not is_error_record(result):
                cache.put(kind, specs[i], result)
            results[i] = result
    if telemetry is not None:
        todo_set = set(todo)
        for i, result in enumerate(results):
            if i not in todo_set:  # warm-cache point: instant lifecycle
                telemetry.point_claimed("sweep", i, kind)
                telemetry.point_running("sweep", i, kind)
                telemetry.point_done("sweep", i, kind,
                                     error=is_error_record(result))
        telemetry.job_done("sweep", kind)
    return results


def _run_one_traced(worker: Callable[[dict], Any], spec: dict,
                    telemetry, kind: str, index: int) -> Any:
    """Inline execution with per-point lifecycle spans."""
    if telemetry is not None:
        telemetry.point_claimed("sweep", index, kind)
        telemetry.point_running("sweep", index, kind)
    try:
        result = worker(spec)
    except Exception as exc:
        result = error_record(spec, exc)
    if telemetry is not None:
        telemetry.point_done("sweep", index, kind,
                             error=is_error_record(result))
    return result


def _run_workers(worker: Callable[[dict], Any], pending: list[dict],
                 njobs: int) -> list[Any]:
    """Deal ``pending`` one point at a time to ``min(njobs, points)``
    worker processes, one thread each; results come back in order.
    Only a point that kills its process runs twice (:data:`_SWEEP_RETRY`)."""
    computed: list[Any] = [None] * len(pending)
    undealt = collections.deque(range(len(pending)))

    def deal(process: WorkerProcess) -> None:
        while True:
            try:
                k = undealt.popleft()  # atomic: no lock needed
            except IndexError:
                return
            try:
                computed[k] = compute_with_retry(
                    worker, pending[k], _SWEEP_RETRY, process)[0]
            except Exception as exc:  # say, a result that won't unpickle
                computed[k] = error_record(pending[k], exc)

    processes: list[WorkerProcess] = []
    threads: list[threading.Thread] = []
    try:
        # fork every worker before the first dealing thread exists
        for _ in range(min(njobs, len(pending))):
            processes.append(WorkerProcess())
        threads = [threading.Thread(target=deal, args=(p,), daemon=True)
                   for p in processes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        # on an exception or Ctrl-C: deal no further point, and a point
        # in flight fails at once on its closed worker
        undealt.clear()
        for process in processes:
            process.close()
        for thread in filter(threading.Thread.is_alive, threads):
            thread.join()
    return computed


def measured_sweep(worker: Callable[[dict], Any],
                   specs: Sequence[dict],
                   measure: Optional[dict] = None,
                   jobs: Optional[int] = 1,
                   cache: Optional[ResultCache] = None,
                   kind: str = "sweep",
                   telemetry=None) -> list[Any]:
    """:func:`sweep` with Hunold & Carpen-Amarie adaptive repetitions.

    ``measure`` is a :class:`~repro.harness.stats.MeasurePolicy` dict
    (``min_reps``/``max_reps``/``target_rel_ci``/``confidence``);
    ``None`` or ``max_reps=1`` delegates straight to :func:`sweep` —
    the zero-cost single-shot path.  Otherwise each point runs its
    repetition loop: rep 0 is the bare spec (shared cache address with
    plain sweeps), later reps are salted via
    :func:`~repro.harness.stats.rep_spec`, and the final row (plus its
    embedded ``report``, when present) carries the ``stats`` record —
    the same shape the sweep service attaches for measured jobs.

    Repetitions of one point run *inside* that point's slot, so the
    fan-out over points is unchanged; each rep is cached individually
    and a warm rerun replays the identical samples (determinism: the
    stats of a rerun are byte-identical).
    """
    from repro.harness.stats import MeasurePolicy, rep_spec
    policy = MeasurePolicy.from_dict(measure)
    results = sweep(worker, specs, jobs=jobs, cache=cache, kind=kind,
                    telemetry=telemetry)
    if policy.single_shot:
        return results
    # each repetition is a one-point inline sweep: cached individually
    return [_measure_point(base, lambda rep, spec=spec: sweep(
                worker, [rep_spec(spec, rep)], jobs=1, cache=cache,
                kind=kind)[0], policy)
            for spec, base in zip(specs, results)]


def _measure_point(base: Any, run_rep: Callable[[int], Any],
                  policy) -> Any:
    """The Hunold & Carpen-Amarie adaptive-repetition loop of one point.

    ``base`` is repetition 0's row (the bare spec); ``run_rep(rep)``
    computes repetition ``rep`` >= 1.  Repetitions continue until the
    :class:`~repro.harness.stats.MeasurePolicy` stopping rule is met,
    or until one fails or carries no sample — the samples so far still
    make the stats.  The returned row is ``base`` plus the ``stats``
    record (mirrored into its embedded ``report``, when present); a
    ``base`` that failed or carries nothing measurable comes back
    unchanged.  Both :func:`measured_sweep` and :func:`compute_point`
    run their repetitions here.
    """
    from repro.harness.stats import sample_of, should_stop, summarize_samples
    first = None if is_error_record(base) else sample_of(base)
    if first is None:
        return base
    samples = [first]
    while not should_stop(samples, policy):
        row = run_rep(len(samples))
        sample = None if is_error_record(row) else sample_of(row)
        if sample is None:
            break
        samples.append(sample)
    stats = summarize_samples(samples, policy.confidence)
    final = dict(base)
    final["stats"] = stats
    if isinstance(final.get("report"), dict):
        final["report"] = {**final["report"], "stats": stats}
    return final


# ---------------------------------------------------------------------------
# reapable point execution on a persistent worker process
# ---------------------------------------------------------------------------
class PointTimeout(Exception):
    """A sweep point overran its wall-clock budget and was reaped."""


class WorkerDied(Exception):
    """The point's worker process exited without producing a result
    (killed from outside, or it crashed the interpreter)."""


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff knobs for one point's execution.

    ``timeout_s=None`` disables reaping (a point may run forever);
    ``retries`` counts *additional* attempts after the first, taken only
    for infrastructure failures (timeout, killed worker) — a worker that
    raises an ordinary exception fails deterministically and is never
    retried.  The delay before attempt *k* (0-based retry index) is
    ``min(backoff_cap_s, backoff_s * 2**k)``.
    """

    timeout_s: Optional[float] = None
    retries: int = 2
    backoff_s: float = 0.1
    backoff_cap_s: float = 5.0

    def __post_init__(self):
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive, got {self.timeout_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff_s and backoff_cap_s must be >= 0")

    def delay(self, retry_index: int) -> float:
        return min(self.backoff_cap_s, self.backoff_s * (2 ** retry_index))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict,
                  base: Optional["RetryPolicy"] = None) -> "RetryPolicy":
        """Inverse of :meth:`to_dict`; a key ``data`` lacks keeps
        ``base``'s value (default: the class defaults), and other keys
        — the rest of a job's options — are ignored."""
        base = base or cls()
        return cls(timeout_s=data.get("timeout_s", base.timeout_s),
                   retries=int(data.get("retries", base.retries)),
                   backoff_s=float(data.get("backoff_s", base.backoff_s)),
                   backoff_cap_s=float(data.get("backoff_cap_s",
                                                base.backoff_cap_s)))


#: ``sweep -j N``: no deadline; a point that kills its worker runs twice
_SWEEP_RETRY = RetryPolicy(timeout_s=None, retries=1, backoff_s=0.0)
#: how often an idle worker process checks that its parent is alive
_PARENT_CHECK_S = 0.25
#: how often a waiting parent checks its worker for death or deadline
_REAP_CHECK_S = 0.05


def _worker_loop(conn, parent_pid: int) -> None:
    """Body of a :class:`WorkerProcess`: compute the ``(worker, spec)``
    points sent down ``conn`` one at a time and ship back each result
    (or its error record), until the pipe closes or the parent dies."""
    # Local alias: this is a multiprocessing pipe, not a simulation
    # coroutine — the alias also keeps the self-lint (CLM001) focused on
    # real sim-API misuse.
    ship = conn.send
    # a handler the owner installed (say, the daemon's graceful drain)
    # must not run in here; the owner stops workers with SIGKILL anyway
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        # Poll rather than block on recv: sibling workers inherit the
        # parent's end of this pipe, so a dead parent may never show up
        # here as EOF.  Exit with os._exit so nothing inherited from
        # the parent (buffered streams, finalizers) runs twice.
        if not conn.poll(_PARENT_CHECK_S):
            if os.getppid() != parent_pid:
                os._exit(0)
            continue
        try:
            worker, spec = conn.recv()
        except EOFError:
            os._exit(0)
        try:
            result = worker(spec)
        except Exception as exc:
            result = error_record(spec, exc)
        try:
            ship(result)
        except OSError:  # the parent is gone
            os._exit(0)
        except Exception as exc:  # the result does not pickle
            ship(error_record(spec, exc))


class WorkerProcess:
    """One persistent forked process that computes sweep points, one at
    a time, each under a hard wall-clock deadline.

    The process is forked when the object is made and serves every
    point :meth:`run` sends it.  It is reaped (SIGKILLed and joined) only
    when a point overruns its deadline or the process dies, and the
    next :meth:`run` forks a fresh one.  Points share the process but
    not state: each is a self-contained simulation.

    Each lease holder — a sweep-service local slot, one lease thread of
    a federation agent, or one dealing thread of ``sweep -j N`` — owns
    one worker and runs one point on it at a time.  :meth:`close` may
    come from any thread: it kills the process and forks no other.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._proc = None
        self._conn = None
        self._busy = False
        self._closed = False
        with self._lock:
            self._spawn()

    @property
    def pid(self) -> Optional[int]:
        """The live process's pid; None between a reap and the next point."""
        proc = self._proc
        return None if proc is None else proc.pid

    def _spawn(self) -> None:
        """Fork the process (lock held).  Plain fork: the child starts
        with every module its parent has imported."""
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        proc = ctx.Process(target=_worker_loop,
                           args=(theirs, os.getpid()),
                           name="point-worker", daemon=True)
        proc.start()
        theirs.close()
        self._proc, self._conn = proc, ours

    def _reap(self) -> None:
        """Kill and join the process, if any (lock held)."""
        proc, conn = self._proc, self._conn
        self._proc = self._conn = None
        if conn is not None:
            conn.close()
        if proc is not None:
            proc.kill()
            proc.join()
            proc.close()

    def run(self, worker: Callable[[dict], Any], spec: dict,
            timeout_s: Optional[float] = None) -> Any:
        """Compute one point; returns the worker's result (or its error
        record, if it raised or does not pickle — the process keeps
        running).

        A point still running at the deadline is SIGKILLed and raises
        :class:`PointTimeout`; a process that dies without reporting
        (killed from outside, interpreter crash) raises
        :class:`WorkerDied`.  Either way the process is reaped — a hung
        worker can never hang the caller.
        """
        with self._lock:
            if self._closed:
                raise WorkerDied("the worker process was closed")
            if self._proc is not None and not self._proc.is_alive():
                self._reap()  # died while idle: not this point's fault
            if self._proc is None:
                self._spawn()
            self._busy = True
            proc, conn = self._proc, self._conn
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        replied = False
        try:
            post = conn.send  # a pipe, not a sim coroutine (see above)
            try:
                post((worker, spec))
            except OSError as exc:
                raise WorkerDied("worker exited before it got the "
                                 "point") from exc
            except Exception as exc:  # the point does not pickle
                replied = True
                return error_record(spec, exc)
            while True:
                wait_s = _REAP_CHECK_S if deadline is None else max(
                    0.0, min(_REAP_CHECK_S, deadline - time.monotonic()))
                # the alive check drains the race window between the
                # worker replying and exiting
                if conn.poll(wait_s) or (not proc.is_alive()
                                         and conn.poll(0)):
                    try:
                        result = conn.recv()
                    except (EOFError, OSError) as exc:
                        raise WorkerDied(
                            f"worker exited (code {proc.exitcode}) "
                            "without a result") from exc
                    replied = True
                    return result
                if not proc.is_alive():
                    raise WorkerDied(
                        f"worker exited (code {proc.exitcode}) without "
                        "a result")
                if deadline is not None and time.monotonic() >= deadline:
                    raise PointTimeout(
                        f"point exceeded its {timeout_s}s budget and was "
                        "reaped")
        finally:
            with self._lock:
                self._busy = False
                if not replied or self._closed:
                    self._reap()

    def close(self) -> None:
        """Kill and join the process; fork no other.  Idempotent.  A
        point in flight on another thread fails as :class:`WorkerDied`,
        and that thread reaps the process."""
        with self._lock:
            self._closed = True
            if not self._busy:
                self._reap()
            elif self._proc is not None:
                self._proc.kill()


def compute_with_retry(worker: Callable[[dict], Any], spec: dict,
                       policy: RetryPolicy, process: WorkerProcess,
                       sleep: Callable[[float], None] = time.sleep,
                       on_failure: Optional[
                           Callable[[str, int, bool], None]] = None
                       ) -> tuple[Any, dict]:
    """Run one point on ``process`` under ``policy``; returns
    ``(result, meta)``.

    ``meta`` records ``attempts`` (total attempts) and ``failures``
    (the infrastructure failures that forced each retry: ``"timeout"``
    or ``"died"``).  After the retry budget is spent the point comes
    back as an error record — never an exception, and never a hang:
    this is the graceful-degradation contract the sweep service builds
    on.  Deterministic worker errors (error records) return on the
    first attempt, unretried.

    ``on_failure(failure, attempt, will_retry)`` — when given — fires
    after each reaped attempt (``failure`` is ``"timeout"`` or
    ``"died"``, ``attempt`` is 1-based), letting the caller emit
    reaped/retried telemetry spans without polling.  Callback errors
    are swallowed: observability must never change a point's outcome.
    """
    failures: list[str] = []
    for attempt in range(policy.retries + 1):
        try:
            result = process.run(worker, spec, policy.timeout_s)
        except PointTimeout:
            failures.append("timeout")
        except WorkerDied:
            failures.append("died")
        else:
            return result, {"attempts": attempt + 1, "failures": failures}
        if on_failure is not None:
            try:
                on_failure(failures[-1], attempt + 1,
                           attempt < policy.retries)
            except Exception:
                pass
        if attempt < policy.retries:
            delay = policy.delay(attempt)
            if delay > 0:
                sleep(delay)
    kinds = ", ".join(failures)
    last = PointTimeout if failures[-1] == "timeout" else WorkerDied
    record = error_record(spec, last(kinds), f"point failed {len(failures)} "
                          f"attempt(s) ({kinds}) and exhausted its retry budget")
    return record, {"attempts": policy.retries + 1, "failures": failures}


def compute_point(worker: Callable[[dict], Any], spec: dict,
                  policy: RetryPolicy, process: WorkerProcess,
                  measure: Optional[dict] = None,
                  on_failure: Optional[Callable] = None
                  ) -> tuple[Any, int]:
    """One sweep point end-to-end: reaped execution on ``process``
    with retry/backoff and — when ``measure`` asks for repetitions —
    the adaptive loop of :func:`_measure_point`.

    Returns ``(result, attempts)`` where ``attempts`` is the worst
    per-rep attempt count.  Every sweep service lease holder — local
    slot or federation agent — computes through here, so the rows are
    byte-identical whoever computes them.
    """
    from repro.harness.stats import MeasurePolicy, rep_spec

    worst = 0

    def run(point_spec: dict) -> Any:
        nonlocal worst
        result, meta = compute_with_retry(worker, point_spec, policy,
                                          process, on_failure=on_failure)
        worst = max(worst, meta["attempts"])
        return result

    base = run(spec)
    policy_m = MeasurePolicy.from_dict(measure)
    if policy_m.single_shot:
        # the zero-cost path: no sampling, no stats arithmetic
        return base, worst
    return _measure_point(base, lambda rep: run(rep_spec(spec, rep)),
                          policy_m), worst

"""The persistent worker process behind every sweep-service lease holder.

In process, with no daemon: a :class:`WorkerProcess` keeps one forked
process across points and reaps it only on a timeout or a death, and
:func:`compute_with_retry` on top of it keeps the reaping contract —
a point past its deadline is SIGKILLed and raises ``PointTimeout``, a
worker that dies without reporting raises ``WorkerDied``, a worker that
raises returns its error record on the same process.  No test sleeps
except while waiting, up to a deadline, for a process to go away.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.apps.pingpong import bandwidth_point
from repro.harness import fig9, fig10
from repro.harness.parallel import (PointTimeout, RetryPolicy,
                                    WorkerDied, WorkerProcess,
                                    compute_with_retry, is_error_record,
                                    sweep)

SRC = Path(__file__).resolve().parents[2] / "src"
BW_SPEC = {"system": "cichlid", "nbytes": 1 << 16, "mode": "pinned"}


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- module-level workers (sent to the worker process by reference) --------

def pid_point(spec: dict) -> dict:
    return {"pid": os.getpid()}


def hanging_point(spec: dict) -> dict:
    threading.Event().wait()  # never returns: must be reaped
    raise AssertionError("unreachable")


def dying_point(spec: dict) -> dict:
    os._exit(13)  # kill the interpreter, not an exception


def raising_point(spec: dict) -> dict:
    raise ValueError(f"bad spec {spec}")


def fail_once_bandwidth_point(spec: dict) -> dict:
    """A real Fig 8 point whose first attempt hangs or dies, as
    ``spec["fail"]`` says; a marker file records that it started."""
    s = dict(spec)
    marker = Path(s.pop("marker"))
    fail = s.pop("fail")
    if not marker.exists():
        marker.write_text("first attempt")
        if fail == "died":
            os._exit(13)
        threading.Event().wait()
    return bandwidth_point(s)


def _alive(pid: int) -> bool:
    """True while ``pid`` is a live (not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _gone_within(pids, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while any(_alive(p) for p in pids):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.fixture()
def worker():
    w = WorkerProcess()
    yield w
    w.close()


class TestReaping:
    def test_process_persists_across_points(self, worker):
        first = worker.run(pid_point, {})["pid"]
        assert first == worker.pid != os.getpid()
        assert worker.run(pid_point, {})["pid"] == first

    def test_timeout_kills_and_next_point_runs_on_a_new_pid(self,
                                                            worker):
        old = worker.pid
        with pytest.raises(PointTimeout):
            worker.run(hanging_point, {}, timeout_s=0.3)
        assert not _alive(old)  # SIGKILLed and joined, not left behind
        assert worker.run(pid_point, {})["pid"] not in (old, os.getpid())

    def test_death_mid_point_raises_and_respawns(self, worker):
        old = worker.pid
        with pytest.raises(WorkerDied):
            worker.run(dying_point, {})
        assert not _alive(old)
        assert worker.run(pid_point, {})["pid"] != old

    def test_raising_worker_returns_error_record_on_same_pid(self,
                                                             worker):
        old = worker.pid
        record = worker.run(raising_point, {"x": 1})
        assert is_error_record(record)
        assert record["sweep_error"]["type"] == "ValueError"
        assert worker.pid == old
        assert worker.run(pid_point, {})["pid"] == old

    def test_death_while_idle_is_not_charged_to_the_next_point(
            self, worker):
        old = worker.pid
        os.kill(old, signal.SIGKILL)
        assert _gone_within([old], 10.0)  # a zombie until joined
        assert worker.run(pid_point, {})["pid"] != old

    def test_close_kills_and_forks_no_other(self):
        w = WorkerProcess()
        pid = w.pid
        w.close()
        assert w.pid is None and not _alive(pid)
        with pytest.raises(WorkerDied):
            w.run(pid_point, {})
        w.close()  # idempotent

    @pytest.mark.parametrize("fail", ["timeout", "died"])
    def test_retried_attempt_is_byte_identical_to_a_clean_run(
            self, worker, tmp_path, fail):
        spec = {**BW_SPEC, "marker": str(tmp_path / "m"), "fail": fail}
        result, meta = compute_with_retry(
            fail_once_bandwidth_point, spec,
            RetryPolicy(timeout_s=0.5, retries=2), worker,
            sleep=lambda s: None)
        assert meta == {"attempts": 2, "failures": [fail]}
        assert canon(result) == canon(bandwidth_point(dict(BW_SPEC)))


class TestNoStateCarriesOver:
    """One worker computes bandwidth, Himeno and nanopowder points in
    two orders; every row equals the serial inline sweep's."""

    POINTS = (
        [(bandwidth_point, {"system": s, "nbytes": n, "mode": m})
         for s, n, m in (("cichlid", 1 << 16, "pinned"),
                         ("ricc", 1 << 20, "mapped"),
                         ("cichlid", 1 << 22, "pinned"))]
        + [(fig9.himeno_point, {"system": s, "nodes": n, "impl": i,
                                "size": "M", "iterations": 4,
                                "functional": False})
           for s, n, i in (("Cichlid", 2, "serial"),
                           ("RICC", 4, "clmpi"),
                           ("RICC", 2, "hand-optimized"))]
        + [(fig10.nanopowder_point, {"system": "RICC", "nodes": n,
                                     "impl": i, "steps": 2,
                                     "scale": "paper",
                                     "functional": False})
           for n, i in ((2, "baseline"), (4, "clmpi"), (5, "clmpi"))])

    @pytest.mark.parametrize("order", ["forward", "interleaved"])
    def test_mixed_points_match_serial_sweep(self, worker, order):
        indices = list(range(len(self.POINTS)))
        if order == "interleaved":  # kinds alternate, reversed
            indices = indices[::-1][::3] + indices[::-1][1::3] \
                + indices[::-1][2::3]
        serial = {i: sweep(fn, [spec], jobs=1)[0]
                  for i, (fn, spec) in enumerate(self.POINTS)}
        for i in indices:
            fn, spec = self.POINTS[i]
            assert canon(worker.run(fn, spec)) == canon(serial[i])


class TestOrphans:
    def test_workers_exit_when_their_parent_is_sigkilled(self):
        """Two workers in one parent: the second inherits the first's
        pipe end, so the first never sees EOF — each must notice the
        parent's death on its own, within about a second."""
        code = ("from repro.harness.parallel import WorkerProcess\n"
                "import sys\n"
                "ws = [WorkerProcess(), WorkerProcess()]\n"
                "print(*(w.pid for w in ws), flush=True)\n"
                "sys.stdin.read()\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        parent = subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True)
        pids: list[int] = []
        try:
            pids = [int(p) for p in parent.stdout.readline().split()]
            assert len(pids) == 2 and all(_alive(p) for p in pids)
            parent.kill()
            parent.wait(timeout=10)
            t0 = time.monotonic()
            assert _gone_within(pids, 5.0)
            assert time.monotonic() - t0 < 2.0
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdin.close()
            parent.stdout.close()
            for pid in filter(_alive, pids):  # a failed run's orphans
                os.kill(pid, signal.SIGKILL)

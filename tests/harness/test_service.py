"""The sweep service end-to-end: identity, reaping, crash-resume.

The ``service_smoke`` subset is the tier-1 gate for this subsystem: a
tiny fig8 sweep through an in-process daemon must be byte-identical to
:func:`repro.harness.parallel.sweep`, a worker killed (or hung) mid-run
must surface as a completed retried point, and a SIGKILL'd daemon must
resume its journaled queue on restart.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket as socket_mod
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.apps.pingpong import bandwidth_point
from repro.harness.parallel import sweep
from repro.harness.service import (ServiceClient, SweepService,
                                   resolve_worker)

FIG8_SPECS = [{"system": "cichlid", "nbytes": 1 << 16, "mode": m}
              for m in ("mapped", "pinned")]


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- module-level workers (resolvable by dotted path in the daemon) ---------

def slow_point(spec: dict) -> dict:
    """Deterministic result after an optional sleep (pacing for tests)."""
    time.sleep(spec.get("sleep_s", 0))
    return {"i": spec["i"], "value": spec["i"] * 3}


def pid_point(spec: dict) -> dict:
    """Which process computed the point."""
    return {"i": spec["i"], "pid": os.getpid()}


def hang_once_point(spec: dict) -> dict:
    """Hangs forever on the first attempt, succeeds on the retry.

    The marker file records that an attempt started; its presence flips
    the behaviour, so the reap-and-retry cycle is exercised exactly
    once and the retried attempt returns a clean deterministic row.
    """
    marker = Path(spec["marker"])
    if not marker.exists():
        marker.write_text("first attempt hung here")
        time.sleep(120)  # far beyond any test timeout: must be reaped
    return {"i": spec.get("i", 0), "value": "recovered"}


@pytest.fixture()
def service(tmp_path):
    svc = SweepService(tmp_path / "svc",
                       socket_path=str(tmp_path / "svc.sock"), jobs=2,
                       point_timeout_s=60.0)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture()
def client(service):
    return ServiceClient(service.socket_path)


@pytest.mark.service_smoke
class TestServiceSmoke:
    def test_fig8_job_byte_identical_to_sweep(self, client):
        """The headline identity: daemon results == serial sweep."""
        job = client.submit("bandwidth", FIG8_SPECS)
        out = client.wait(job["job"], timeout_s=120)
        assert out["errors"] == 0
        serial = sweep(bandwidth_point, FIG8_SPECS, jobs=1)
        assert canon(out["results"]) == canon(serial)

    def test_hung_worker_reaped_retried_and_completed(self, tmp_path,
                                                      client):
        """A hung worker becomes a completed (retried) point — never a
        hung client: the first attempt sleeps past its budget, is
        SIGKILLed, and the backoff retry returns the real row."""
        spec = {"i": 7, "marker": str(tmp_path / "attempt.marker")}
        job = client.submit(
            "hang-demo", [spec],
            {"worker": "tests.harness.test_service:hang_once_point",
             "timeout_s": 0.5, "retries": 2, "backoff_s": 0.01})
        out = client.wait(job["job"], timeout_s=60)
        assert out["errors"] == 0
        assert out["results"][0] == {"i": 7, "value": "recovered"}
        assert out["attempts"][0] >= 2          # the reaped first try
        assert client.status(job["job"])["retried_points"] == 1

    def test_sigkilled_daemon_resumes_journaled_queue(self, tmp_path):
        """kill -9 mid-sweep, restart on the same root: the journal
        replays, remaining points compute, and the full result set is
        byte-identical to a serial sweep."""
        root = tmp_path / "svc"
        sock = str(tmp_path / "kill.sock")
        specs = [{"i": i, "sleep_s": 0.4} for i in range(4)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[2] / "src"),
             str(Path(__file__).resolve().parents[2])])
        argv = [sys.executable, "-m", "repro.harness", "serve",
                "--root", str(root), "--socket", sock, "-j", "1",
                "--point-timeout", "30"]
        proc = subprocess.Popen(argv, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            client = _connect(sock)
            job = client.submit(
                "slow", specs,
                {"worker": "tests.harness.test_service:slow_point"})
            _poll_until(lambda: client.status(job["job"])
                        ["completed"] >= 1, timeout_s=30)
            proc.send_signal(signal.SIGKILL)     # die mid-sweep
            proc.wait(timeout=10)
            partial = json.loads((root / "journal.jsonl")
                                 .read_text().splitlines()[0])
            assert partial["event"] == "submit"  # journal survived
            proc = subprocess.Popen(argv, env=env,
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
            client = _connect(sock)
            out = client.wait(job["job"], timeout_s=60)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert out["errors"] == 0
        expected = [slow_point(s) for s in specs]
        assert canon(out["results"]) == canon(expected)

    def test_chaos_campaign_as_job_identical_artifacts(self, tmp_path,
                                                       service, client):
        """A campaign remoted through the service writes --campaign-out
        artifacts byte-identical to a local run (seed 3 himeno is the
        known-failing config the chaos tests pin)."""
        from repro.faults.chaos import run_campaign

        local_dir = tmp_path / "local"
        remote_dir = tmp_path / "remote"
        local = run_campaign("himeno", campaign=4, seed=3,
                             minimize=True, out_dir=local_dir)

        def sweep_fn(worker, specs, jobs=None, cache=None,
                     kind="chaos"):
            return client.sweep(kind, specs, timeout_s=300)

        remote = run_campaign("himeno", campaign=4, seed=3,
                              minimize=True, out_dir=remote_dir,
                              sweep_fn=sweep_fn)
        assert local["failures"] == remote["failures"] > 0
        local_files = sorted(p.name for p in local_dir.glob("*.json"))
        remote_files = sorted(p.name for p in remote_dir.glob("*.json"))
        assert local_files == remote_files
        for name in local_files:
            a = (local_dir / name).read_bytes()
            b = (remote_dir / name).read_bytes()
            if name.startswith("campaign-"):
                # the summary embeds the --campaign-out paths, which
                # differ by construction; everything else must match
                norm = lambda raw, d: raw.replace(  # noqa: E731
                    str(d).encode(), b"OUT")
                a, b = norm(a, local_dir), norm(b, remote_dir)
            assert a == b, f"artifact {name} diverged via the service"


class TestWorkerProcesses:
    def test_slots_reuse_their_workers_and_stop_reaps_them(self,
                                                           tmp_path):
        """Each local slot computes on one persistent worker process,
        forked at start(); stop() kills and joins them all."""
        svc = SweepService(tmp_path / "svc", jobs=2)
        svc.start()
        try:
            forked = {w.pid for w in svc._workers}
            job = svc.submit("pids", [{"i": i} for i in range(8)],
                             {"worker": "tests.harness.test_service:"
                                        "pid_point"})
            out = svc.wait(job["job"], timeout_s=60)
        finally:
            svc.stop()
        used = {row["pid"] for row in out["results"]}
        assert len(forked) == 2 and used <= forked
        assert multiprocessing.active_children() == []
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)  # already reaped

    def test_stop_leaves_an_inflight_point_to_the_next_start(self,
                                                            tmp_path):
        """stop() kills a worker mid-point rather than waiting for it;
        the point is not recorded (not even as an error), so a
        restarted daemon finds it pending again."""
        root = tmp_path / "svc"
        svc = SweepService(root, jobs=1)
        svc.start()
        spec = {"i": 1, "marker": str(tmp_path / "started")}
        job = svc.submit("hang", [spec], {
            "worker": "tests.harness.test_service:hang_once_point"})
        try:
            _poll_until(lambda: Path(spec["marker"]).exists(),
                        timeout_s=30)
        finally:
            t0 = time.monotonic()
            svc.stop()
        assert time.monotonic() - t0 < 5.0
        assert multiprocessing.active_children() == []
        restarted = SweepService(root, jobs=0)
        try:
            assert restarted.queue.get(job["job"]).pending_indices() \
                == [0]
        finally:
            restarted.stop()


def _connect(sock_path: str, timeout_s: float = 20.0) -> ServiceClient:
    """Wait for a freshly exec'd daemon to start answering."""
    client = ServiceClient(sock_path, timeout_s=30.0)
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            client.ping()
            return client
        except (OSError, RuntimeError):
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def _poll_until(predicate, timeout_s: float) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            raise TimeoutError("condition not reached")
        time.sleep(0.02)


class TestDedupAndStore:
    def test_identical_inflight_points_compute_once(self, tmp_path,
                                                    service, client):
        """Two jobs carrying the same point while it is in flight share
        one computation; both receive the result."""
        spec = {"i": 1, "sleep_s": 0.6}
        opts = {"worker": "tests.harness.test_service:slow_point"}
        j1 = client.submit("slow", [spec], opts)
        j2 = client.submit("slow", [spec], opts)
        o1 = client.wait(j1["job"], timeout_s=60)
        o2 = client.wait(j2["job"], timeout_s=60)
        assert o1["results"] == o2["results"] == [{"i": 1, "value": 3}]
        assert client.stats()["deduped_points"] >= 1

    def test_finished_points_served_from_store(self, service, client):
        """Resubmitting a computed point costs zero attempts — the
        shared store answers."""
        spec = {"i": 2}
        opts = {"worker": "tests.harness.test_service:slow_point"}
        client.wait(client.submit("slow", [spec], opts)["job"],
                    timeout_s=60)
        again = client.wait(client.submit("slow", [spec], opts)["job"],
                            timeout_s=60)
        assert again["results"] == [{"i": 2, "value": 6}]
        assert again["attempts"] == [0]  # store hit, no worker launch


class TestMeasurement:
    def test_measured_job_attaches_stats(self, service, client):
        job = client.submit("bandwidth", FIG8_SPECS[:1],
                            {"measure": {"min_reps": 2, "max_reps": 3}})
        out = client.wait(job["job"], timeout_s=120)
        stats = out["results"][0]["stats"]
        assert stats["repetitions"] >= 2
        assert stats["ci_low"] <= stats["mean_s"] <= stats["ci_high"]
        assert stats["rel_variance"] >= 0.0

    def test_single_shot_results_carry_no_stats(self, service, client):
        job = client.submit("bandwidth", FIG8_SPECS[:1])
        out = client.wait(job["job"], timeout_s=120)
        assert "stats" not in out["results"][0]

    def test_measured_and_plain_results_agree_on_payload(self, service,
                                                         client):
        """Repetition 0 *is* the bare point: stripping the stats field
        recovers the plain sweep row exactly."""
        plain = client.wait(
            client.submit("bandwidth", FIG8_SPECS[:1])["job"],
            timeout_s=120)["results"][0]
        measured = dict(client.wait(
            client.submit("bandwidth", FIG8_SPECS[:1],
                          {"measure": {"max_reps": 2}})["job"],
            timeout_s=120)["results"][0])
        measured.pop("stats")
        assert canon(measured) == canon(plain)


class TestProtocol:
    def test_ping(self, client):
        assert client.ping()["pong"] is True

    def test_unknown_op_and_unknown_job_error_cleanly(self, service,
                                                      client):
        assert service.handle_request({"op": "nope"})["ok"] is False
        with pytest.raises(RuntimeError, match="unknown job"):
            client.status("job-999999")

    def test_unknown_kind_rejected_at_submit(self, client):
        with pytest.raises(RuntimeError, match="unknown job kind"):
            client.submit("not-a-kind", [{"x": 1}])

    def test_jobs_listing_and_stats(self, client):
        client.wait(client.submit("bandwidth", FIG8_SPECS[:1])["job"],
                    timeout_s=120)
        jobs = client.jobs()
        assert len(jobs) == 1 and jobs[0]["status"] == "done"
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["store"]["entries"] >= 1

    def test_watch_streams_until_done(self, service, client):
        job = client.submit(
            "slow", [{"i": 3, "sleep_s": 0.3}],
            {"worker": "tests.harness.test_service:slow_point"})
        events = []
        client.watch(job["job"], events.append, timeout_s=60)
        assert events[-1]["event"] == "done"
        assert events[-1]["job"] == job["job"]

    def test_http_routes_on_tcp(self, tmp_path):
        import urllib.request

        svc = SweepService(tmp_path / "svc", tcp_port=0, jobs=1)
        svc.start()
        try:
            base = f"http://127.0.0.1:{svc.tcp_port}"
            ping = json.loads(urllib.request.urlopen(
                base + "/ping", timeout=10).read())
            assert ping["pong"] is True
            req = urllib.request.Request(
                base + "/jobs", method="POST",
                data=json.dumps({"kind": "bandwidth",
                                 "specs": FIG8_SPECS[:1]}).encode())
            posted = json.loads(urllib.request.urlopen(
                req, timeout=10).read())
            job_id = posted["job"]["job"]
            _poll_until(lambda: json.loads(urllib.request.urlopen(
                f"{base}/jobs/{job_id}", timeout=10).read())
                ["job"]["status"] == "done", timeout_s=60)
            result = json.loads(urllib.request.urlopen(
                f"{base}/jobs/{job_id}/result", timeout=10).read())
            assert result["results"][0]["seconds"] > 0
        finally:
            svc.stop()

    def test_worker_resolution_guards(self):
        with pytest.raises(ValueError, match="module:function"):
            resolve_worker("no-colon-here")
        with pytest.raises(ValueError, match="not a callable"):
            resolve_worker("repro.harness.service:WORKERS")
        assert resolve_worker(
            "repro.apps.pingpong:bandwidth_point") is bandwidth_point


class TestCli:
    def test_submit_and_status_via_runner(self, tmp_path, service,
                                          capsys):
        from repro.harness.runner import main as harness_main

        specs_file = tmp_path / "grid.json"
        specs_file.write_text(json.dumps(FIG8_SPECS[:1]))
        rc = harness_main(["submit", "bandwidth",
                           "--socket", service.socket_path,
                           "--specs", str(specs_file), "--wait"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "submitted job-" in out
        assert '"seconds"' in out
        rc = harness_main(["status", "--socket", service.socket_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "done" in out and "store entries" in out

    def test_specs_must_be_a_list(self, tmp_path, service):
        from repro.harness.runner import main as harness_main

        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        with pytest.raises(SystemExit):
            harness_main(["submit", "bandwidth",
                          "--socket", service.socket_path,
                          "--specs", str(bad)])

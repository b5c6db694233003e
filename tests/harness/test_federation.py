"""Federation: leases, compaction, idempotent submits, chaos smoke.

The ``federation_smoke`` subset is the tier-1 gate for the
coordinator/agent split: a multi-agent fig8-style sweep must stay
byte-identical to a serial sweep while one agent is SIGKILL'd
mid-point, an agent is partitioned (SIGSTOP) past lease expiry, and the
coordinator itself is SIGTERM-drained or SIGKILL'd and restarted —
with ``lease_expirations``/``duplicate_results`` accounting for every
recovery.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.apps.pingpong import bandwidth_point
from repro.harness.federation import run_agent
from repro.harness.queue import LOCAL_HOLDER, JobQueue
from repro.harness.service import ServiceClient, SweepService

SPECS = [{"system": "cichlid", "nbytes": 1 << 16, "mode": m}
         for m in ("mapped", "pinned")]
WORKER = "tests.harness.test_federation:paced_bandwidth_point"


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def paced_bandwidth_point(spec: dict) -> dict:
    """A real fig8 point, slowed down so tests can land signals while
    it computes.  ``pace_s`` is pacing only — it never touches the
    simulated measurement, so results stay byte-identical to an
    unpaced serial sweep of the stripped specs."""
    s = dict(spec)
    time.sleep(s.pop("pace_s", 0.0))
    return bandwidth_point(s)


def paced_specs(paces: list[float]) -> list[dict]:
    return [{**SPECS[i % len(SPECS)], "i": i, "pace_s": pace}
            for i, pace in enumerate(paces)]


def serial_rows(specs: list[dict]) -> list[dict]:
    return [paced_bandwidth_point(s) for s in specs]


# ---------------------------------------------------------------------------
# queue-level units: leases, compaction, tokens
# ---------------------------------------------------------------------------
class TestLeases:
    def _queue_with_job(self, tmp_path, n=3):
        q = JobQueue(tmp_path)
        job = q.submit("bw", WORKER, [{"i": i} for i in range(n)])
        return q, job

    def test_lease_grant_renew_complete(self, tmp_path):
        q, job = self._queue_with_job(tmp_path)
        lease = q.lease(job.job_id, 0, "a1", ttl_s=5.0, now=100.0)
        assert job.point_status[0] == "leased"
        assert lease.deadline == 105.0
        q.renew_lease(lease.lease_id, "a1", ttl_s=5.0, now=103.0)
        assert q.leases[lease.lease_id].deadline == 108.0
        disp = q.complete_leased(lease.lease_id, job.job_id, 0,
                                 {"r": 0}, error=False, attempts=1,
                                 agent="a1")
        assert disp == "recorded"
        assert job.results[0] == {"r": 0}
        assert q.active_leases() == 0

    def test_only_pending_points_lease(self, tmp_path):
        q, job = self._queue_with_job(tmp_path)
        q.lease(job.job_id, 0, "a1", ttl_s=5.0)
        with pytest.raises(ValueError, match="not pending"):
            q.lease(job.job_id, 0, "a2", ttl_s=5.0)

    def test_renew_by_other_agent_rejected(self, tmp_path):
        q, job = self._queue_with_job(tmp_path)
        lease = q.lease(job.job_id, 0, "a1", ttl_s=5.0)
        with pytest.raises(ValueError, match="held by"):
            q.renew_lease(lease.lease_id, "impostor", ttl_s=5.0)

    def test_expiry_requeues_and_counts(self, tmp_path):
        q, job = self._queue_with_job(tmp_path)
        q.lease(job.job_id, 0, "a1", ttl_s=5.0, now=100.0)
        assert q.expire_due_leases(now=104.0) == []    # still live
        expired = q.expire_due_leases(now=106.0)
        assert [lease.index for lease in expired] == [0]
        assert job.point_status[0] == "pending"        # back in queue
        assert q.lease_expirations == 1

    def test_expired_completion_is_adopted_when_still_open(self,
                                                           tmp_path):
        """The lease died but nobody recomputed the point yet: the
        deterministic result is taken, not thrown away."""
        q, job = self._queue_with_job(tmp_path)
        lease = q.lease(job.job_id, 0, "a1", ttl_s=5.0, now=100.0)
        q.expire_due_leases(now=200.0)
        disp = q.complete_leased(lease.lease_id, job.job_id, 0,
                                 {"r": 0}, error=False, attempts=1,
                                 agent="a1")
        assert disp == "adopted"
        assert job.results[0] == {"r": 0}

    def test_duplicate_completion_counted_not_recorded(self, tmp_path):
        """First write wins; the loser only moves a counter."""
        q, job = self._queue_with_job(tmp_path)
        stale = q.lease(job.job_id, 0, "a1", ttl_s=5.0, now=100.0)
        q.expire_due_leases(now=200.0)
        fresh = q.lease(job.job_id, 0, "a2", ttl_s=5.0)
        q.complete_leased(fresh.lease_id, job.job_id, 0, {"r": "b"},
                          error=False, attempts=1, agent="a2")
        disp = q.complete_leased(stale.lease_id, job.job_id, 0,
                                 {"r": "a"}, error=False, attempts=1,
                                 agent="a1")
        assert disp == "duplicate_result"
        assert job.results[0] == {"r": "b"}   # winner kept
        assert q.duplicate_results == 1

    def test_leases_survive_coordinator_restart(self, tmp_path):
        """A SIGKILL'd coordinator replays outstanding leases: the
        agent that held one completes it without double-counting."""
        q1, job = self._queue_with_job(tmp_path)
        lease = q1.lease(job.job_id, 0, "a1", ttl_s=3600.0)
        q2 = JobQueue(tmp_path)                       # the restart
        assert lease.lease_id in q2.leases
        assert q2.leases[lease.lease_id].agent == "a1"
        assert q2.get(job.job_id).point_status[0] == "leased"
        disp = q2.complete_leased(lease.lease_id, job.job_id, 0,
                                  {"r": 0}, error=False, attempts=1,
                                  agent="a1")
        assert disp == "recorded"

    def test_lease_on_done_point_dropped_on_replay(self, tmp_path):
        """Replay fixup: a lease whose point completed (the lease_end
        line was lost) must not re-expire a finished point."""
        q1, job = self._queue_with_job(tmp_path)
        lease = q1.lease(job.job_id, 0, "a1", ttl_s=3600.0)
        # simulate the torn shutdown: point recorded, lease_end lost
        q1.complete_leased(None, job.job_id, 0, {"r": 0}, error=False,
                           attempts=1)
        q2 = JobQueue(tmp_path)
        assert lease.lease_id not in q2.leases
        assert q2.get(job.job_id).results[0] == {"r": 0}


class TestCompaction:
    def test_startup_compacts_to_one_snapshot_line(self, tmp_path):
        q1 = JobQueue(tmp_path)
        job = q1.submit("bw", WORKER, [{"i": i} for i in range(3)])
        for i in range(3):
            q1.complete_leased(None, job.job_id, i, {"r": i},
                               error=False, attempts=1)
        assert len(q1.journal_path.read_text().splitlines()) > 1
        q2 = JobQueue(tmp_path)
        lines = q2.journal_path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "snapshot"
        assert q2.compactions == 1
        replayed = q2.get(job.job_id)
        assert replayed.status == "done"
        assert replayed.results == [{"r": 0}, {"r": 1}, {"r": 2}]

    def test_compacted_state_replays_identically(self, tmp_path):
        q1 = JobQueue(tmp_path)
        job = q1.submit("bw", WORKER, [{"i": i} for i in range(3)],
                        token="tok-1")
        q1.complete_leased(None, job.job_id, 1, {"r": 1}, error=False,
                           attempts=2)
        q1.lease(job.job_id, 0, "a1", ttl_s=3600.0)
        q1.compact()
        q2 = JobQueue(tmp_path)
        replayed = q2.get(job.job_id)
        assert replayed.results[1] == {"r": 1}
        assert replayed.attempts[1] == 2
        assert replayed.pending_indices() == [2]
        assert replayed.point_status[0] == "leased"
        assert len(q2.leases) == 1
        # token dedupe survives snapshots too
        assert q2.submit("bw", WORKER, [{"x": 1}],
                         token="tok-1").job_id == job.job_id

    def test_size_threshold_triggers_compaction(self, tmp_path):
        q = JobQueue(tmp_path, compact_bytes=512)
        job = q.submit("bw", WORKER, [{"i": i} for i in range(8)])
        for i in range(8):
            q.complete_leased(None, job.job_id, i,
                              {"r": i, "pad": "x" * 64}, error=False,
                              attempts=1)
        assert q.compactions >= 1
        assert q.get(job.job_id).status == "done"

    def test_torn_snapshot_line_tolerated(self, tmp_path):
        """A hand-torn snapshot line replays as a drop, not a crash,
        and the lines after it still apply."""
        q1 = JobQueue(tmp_path)
        q1.submit("bw", WORKER, [{"i": 0}])
        q1.compact()
        snapshot = q1.journal_path.read_text()
        torn = snapshot[:len(snapshot) // 2]
        extra = canon({"event": "submit", "job": "job-000002",
                       "kind": "bw", "worker": WORKER,
                       "specs": [{"i": 1}], "options": {}}) + "\n"
        q1.journal_path.write_text(torn.rstrip("\n") + "\n" + extra)
        q2 = JobQueue(tmp_path)
        assert q2.recovered_drops == 1
        assert "job-000002" in q2.jobs
        assert "job-000001" not in q2.jobs   # lived in the torn line

    def test_stale_compact_tmp_removed_at_startup(self, tmp_path):
        """A crash mid-compaction leaves the temp snapshot beside an
        intact journal; startup must discard it and replay the real
        journal untouched."""
        q1 = JobQueue(tmp_path)
        job = q1.submit("bw", WORKER, [{"i": 0}])
        tmp = q1._compact_tmp_path
        tmp.write_text('{"event": "snapshot", "jobs": [TORN')
        q2 = JobQueue(tmp_path)
        assert not tmp.exists()
        assert q2.get(job.job_id).pending_indices() == [0]

    def test_drain_compacts_journal(self, tmp_path):
        svc = SweepService(tmp_path / "svc", jobs=1)
        svc.start()
        try:
            svc.submit("slow", [{"i": 1}],
                       {"worker":
                        "tests.harness.test_service:slow_point"})
            before = svc.queue.compactions
            out = svc.drain(grace_s=30.0)
            assert out["drained"] is True
            assert svc.queue.compactions > before
        finally:
            svc.stop()


class TestIdempotentSubmit:
    def test_queue_token_dedupes(self, tmp_path):
        q = JobQueue(tmp_path)
        a = q.submit("bw", WORKER, [{"i": 0}], token="t1")
        b = q.submit("bw", WORKER, [{"i": 0}], token="t1")
        assert a.job_id == b.job_id
        assert len(q.jobs) == 1

    def test_token_dedupe_survives_restart(self, tmp_path):
        q1 = JobQueue(tmp_path)
        a = q1.submit("bw", WORKER, [{"i": 0}], token="t1")
        q2 = JobQueue(tmp_path)
        assert q2.submit("bw", WORKER, [{"i": 0}],
                         token="t1").job_id == a.job_id

    def test_client_resubmit_after_dropped_reply_is_single_job(
            self, tmp_path):
        """The exact failure the token exists for: the submit reached
        the daemon but the reply was lost; the client's retry must
        return the same job, not enqueue a second copy."""
        svc = SweepService(tmp_path / "svc", jobs=1)
        svc.start()
        try:
            request = {"op": "submit", "kind": "slow",
                       "specs": [{"i": 1}],
                       "options": {"worker":
                                   "tests.harness.test_service:"
                                   "slow_point"},
                       "token": "client-token-1"}
            first = svc.handle_request(request)    # reply "lost" here
            second = svc.handle_request(request)   # the blind retry
            assert first["job"]["job"] == second["job"]["job"]
            assert len(svc.queue.jobs) == 1
        finally:
            svc.stop()

    def test_client_retries_through_daemon_downtime(self, tmp_path):
        """ServiceClient with retries rides out a coordinator that is
        briefly not answering (restart window, partition heal)."""
        sock = str(tmp_path / "late.sock")
        svc = SweepService(tmp_path / "svc", socket_path=sock, jobs=1)

        def late_start():
            time.sleep(0.5)
            svc.start()

        t = threading.Thread(target=late_start, daemon=True)
        t.start()
        try:
            client = ServiceClient(sock, retries=8, backoff_s=0.1,
                                   backoff_cap_s=1.0)
            assert client.ping()["pong"] is True   # daemon not up yet
        finally:
            t.join()
            svc.stop()

    def test_client_without_retries_still_fails_fast(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nobody.sock"))
        with pytest.raises(OSError):
            client.ping()


# ---------------------------------------------------------------------------
# in-process federation (fast; no subprocesses)
# ---------------------------------------------------------------------------
class TestFederationInProcess:
    def _coordinator(self, tmp_path, **kw):
        kw.setdefault("jobs", 0)
        kw.setdefault("lease_ttl_s", 10.0)
        svc = SweepService(tmp_path / "svc",
                           socket_path=str(tmp_path / "fed.sock"),
                           **kw)
        svc.start()
        return svc

    def test_two_agents_drain_byte_identical(self, tmp_path):
        specs = paced_specs([0.0, 0.0, 0.0, 0.0])
        svc = self._coordinator(tmp_path)
        try:
            job = svc.submit("bw", specs, {"worker": WORKER})
            threads = [threading.Thread(
                target=run_agent,
                kwargs=dict(socket_path=svc.socket_path,
                            name=f"a{i}", slots=1, once=True),
                daemon=True) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            out = svc.result(job["job"])
            assert out["finished"] and out["errors"] == 0
            assert canon(out["results"]) == canon(serial_rows(specs))
        finally:
            svc.stop()

    def test_once_agent_exits_with_its_workers_reaped(self, tmp_path):
        """An agent's slots compute on worker processes it forked, and
        those are killed and joined before ``run_agent`` returns."""
        specs = [{"i": i} for i in range(4)]
        svc = self._coordinator(tmp_path)
        try:
            job = svc.submit("pids", specs, {
                "worker": "tests.harness.test_service:pid_point"})
            agent = threading.Thread(
                target=run_agent,
                kwargs=dict(socket_path=svc.socket_path, name="a1",
                            slots=2, once=True), daemon=True)
            agent.start()
            agent.join(timeout=60)
            assert not agent.is_alive()
            assert multiprocessing.active_children() == []
            out = svc.result(job["job"])
        finally:
            svc.stop()
        pids = {row["pid"] for row in out["results"]}
        assert out["errors"] == 0 and os.getpid() not in pids
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)  # already reaped

    def test_coordinator_with_zero_slots_computes_nothing(self,
                                                          tmp_path):
        svc = self._coordinator(tmp_path)
        try:
            job = svc.submit("bw", paced_specs([0.0]),
                             {"worker": WORKER})
            time.sleep(0.8)                 # dispatcher ticks idle by
            status = svc.queue.get(job["job"])
            assert status.completed == 0    # nobody computed it
            assert svc.stats()["workers"] == 0
        finally:
            svc.stop()

    def test_single_shot_store_hit_completes_without_lease(self,
                                                           tmp_path):
        """A federated resubmit of an already-stored point is answered
        from the store at claim time — zero agent round-trips."""
        specs = paced_specs([0.0])
        svc = self._coordinator(tmp_path)
        try:
            first = svc.submit("bw", specs, {"worker": WORKER})
            run_agent(socket_path=svc.socket_path, name="a1",
                      once=True)
            svc.wait(first["job"], timeout_s=120)
            again = svc.submit("bw", specs, {"worker": WORKER})
            reply = svc.agent_claim("nobody", 1)
            assert reply == {"known": False, "leases": [],
                             "draining": False}
            svc.agent_register("a2", "host", 1, 1)
            reply = svc.agent_claim("a2", 1)
            assert reply["leases"] == []    # store answered instead
            out = svc.wait(again["job"], timeout_s=30)
            assert out["results"] == svc.result(first["job"])["results"]
            assert svc.result(again["job"])["attempts"] == [0]
        finally:
            svc.stop()

    def test_inflight_dedup_when_an_agent_computes(self, tmp_path):
        """An identical point submitted while an agent computes it
        waits on that lease instead of taking one; the agent's single
        completion delivers to both jobs.  If the lease expires first,
        the waiter is claimable again (and waits on the next lease)."""
        svc = self._coordinator(tmp_path)
        try:
            svc.agent_register("a1", "host", 1, 2)
            specs = paced_specs([0.0])
            first = svc.submit("bw", specs, {"worker": WORKER})["job"]
            (stale,) = svc.agent_claim("a1", 2)["leases"]
            second = svc.submit("bw", specs, {"worker": WORKER})["job"]
            assert svc.agent_claim("a1", 2)["leases"] == []
            assert svc.stats()["deduped_points"] == 1
            svc.queue.expire_due_leases(now=time.time() + 3600.0)
            (grant,) = svc.agent_claim("a1", 2)["leases"]
            assert grant["job"] == first
            assert svc.stats()["deduped_points"] == 2
            row = paced_bandwidth_point(grant["spec"])
            reply = svc.agent_complete("a1", grant["lease"], grant["job"],
                                       grant["index"], row, 1)
            assert reply == {"disposition": "recorded", "stored": True}
            assert svc.result(first)["results"] == [row]
            assert svc.result(second)["results"] == [row]
            assert svc.result(second)["attempts"] == [1]
            assert svc.stats()["inflight_points"] == 0
            # the expired lease's late completion loses the race
            assert svc.agent_complete(
                "a1", stale["lease"], stale["job"], stale["index"], row,
                1)["disposition"] == "duplicate_result"
        finally:
            svc.stop()

    def test_reserved_local_holder_id_refused(self, tmp_path):
        svc = self._coordinator(tmp_path)
        try:
            with pytest.raises(ValueError, match="reserved"):
                svc.agent_register(LOCAL_HOLDER, "host", 1, 1)
            reply = svc.handle_request({"op": "agent.register",
                                        "name": LOCAL_HOLDER})
            assert reply["ok"] is False and "reserved" in reply["error"]
            assert svc.stats()["agents"] == []
        finally:
            svc.stop()

    def test_metrics_and_stats_expose_federation_gauges(self,
                                                        tmp_path):
        svc = self._coordinator(tmp_path, lease_ttl_s=0.75,
                                agent_timeout_s=30.0)
        try:
            svc.agent_register("a1", "host", 1, 2)
            job = svc.submit("bw", paced_specs([0.0, 0.0]),
                             {"worker": WORKER})
            granted = svc.agent_claim("a1", 2)["leases"]
            assert len(granted) == 2
            stats = svc.stats()
            assert stats["leases_active"] == 2
            assert stats["agents"][0]["agent"] == "a1"
            assert stats["agents"][0]["leases"] == 2
            body = svc.prometheus()
            assert "clmpi_workers 1" in body
            assert "clmpi_leases_active 2" in body
            time.sleep(1.0)
            svc.queue.expire_due_leases()
            body = svc.prometheus()
            assert "clmpi_lease_expirations_total 2" in body
            assert "clmpi_duplicate_results_total 0" in body
            # the expired leases' completions arrive late: duplicates
            # only if someone else finished first — here the points
            # are open again, so they are adopted, not duplicated
            for grant in granted:
                disp = svc.agent_complete(
                    "a1", grant["lease"], grant["job"],
                    grant["index"],
                    paced_bandwidth_point(grant["spec"]), 1)
                assert disp["disposition"] == "adopted"
            out = svc.wait(job["job"], timeout_s=30)
            assert out["errors"] == 0
        finally:
            svc.stop()

    def test_duplicate_completion_accounted_in_metrics(self, tmp_path):
        svc = self._coordinator(tmp_path, lease_ttl_s=0.2,
                                agent_timeout_s=30.0)
        try:
            svc.agent_register("a1", "host", 1, 1)
            svc.agent_register("a2", "host", 2, 1)
            specs = paced_specs([0.0])
            svc.submit("bw", specs, {"worker": WORKER})
            stale = svc.agent_claim("a1", 1)["leases"][0]
            time.sleep(0.3)
            svc.queue.expire_due_leases()   # partition expired a1
            fresh = svc.agent_claim("a2", 1)["leases"][0]
            row = paced_bandwidth_point(specs[0])
            svc.agent_complete("a2", fresh["lease"], fresh["job"],
                               fresh["index"], row, 1)
            disp = svc.agent_complete("a1", stale["lease"],
                                      stale["job"], stale["index"],
                                      row, 1)
            assert disp["disposition"] == "duplicate_result"
            assert "clmpi_duplicate_results_total 1" \
                in svc.prometheus()
            # and the winning row is untouched
            out = svc.result(fresh["job"])
            assert out["results"] == [row]
        finally:
            svc.stop()

    def test_top_frame_renders_agent_table(self, tmp_path):
        from repro.harness.top import render_frame

        svc = self._coordinator(tmp_path)
        try:
            svc.agent_register("agent-red", "hostA", 41, 2)
            frame = render_frame([], svc.stats(),
                                 svc.telemetry.snapshot(), [])
            assert "federation: 1 agent(s)" in frame
            assert "agent-red" in frame and "hostA:41" in frame
        finally:
            svc.stop()


# ---------------------------------------------------------------------------
# chaos smoke: subprocess agents + coordinator, real signals
# ---------------------------------------------------------------------------
def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[2] / "src"),
         str(Path(__file__).resolve().parents[2])])
    return env


def _spawn(argv: list[str]) -> subprocess.Popen:
    return subprocess.Popen(argv, env=_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _coordinator_argv(root, sock, lease_ttl: float,
                      drain_grace: float = 30.0) -> list[str]:
    return [sys.executable, "-m", "repro.harness", "serve",
            "--root", str(root), "--socket", sock, "-j", "0",
            "--lease-ttl", str(lease_ttl),
            "--drain-grace", str(drain_grace),
            "--point-timeout", "60"]

def _agent_argv(sock: str, name: str, once: bool = False,
                slots: int = 1) -> list[str]:
    argv = [sys.executable, "-m", "repro.harness", "agent",
            "--socket", sock, "--name", name, "--slots", str(slots)]
    if once:
        argv.append("--once")
    return argv


def _connect(sock_path: str, timeout_s: float = 30.0) -> ServiceClient:
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
        time.sleep(0.05)


def _kill_all(*procs: subprocess.Popen) -> None:
    for proc in procs:
        try:
            proc.kill()
            proc.wait(timeout=10)
        except OSError:
            pass


@pytest.mark.federation_smoke
class TestFederationSmoke:
    def test_agent_sigkilled_mid_point_lease_expires_and_recovers(
            self, tmp_path):
        """Agent A dies holding a lease on a slow point; the lease
        expires within one TTL, the point re-queues, agent B finishes
        the sweep, and the output is byte-identical to serial."""
        root, sock = tmp_path / "svc", str(tmp_path / "fed.sock")
        specs = paced_specs([4.0, 0.1, 0.1, 0.1])
        coord = _spawn(_coordinator_argv(root, sock, lease_ttl=1.5))
        victim = survivor = None
        try:
            client = _connect(sock)
            job = client.submit("bw", specs, {"worker": WORKER})
            victim = _spawn(_agent_argv(sock, "victim"))
            _poll_until(
                lambda: client.stats()["leases_active"] >= 1,
                timeout_s=30)
            victim.send_signal(signal.SIGKILL)    # dies mid-point
            victim.wait(timeout=10)
            survivor = _spawn(_agent_argv(sock, "survivor",
                                          once=True, slots=2))
            out = client.wait(job["job"], timeout_s=120)
            assert out["errors"] == 0
            assert canon(out["results"]) == canon(serial_rows(specs))
            stats = client.stats()
            assert stats["lease_expirations"] >= 1
            assert stats["leases_active"] == 0
            # the victim's expired lease is the only recovery; the
            # point re-queued and completed exactly once (attempts
            # counts the winning computation only)
            assert all(a >= 1 for a in out["attempts"])
            survivor.wait(timeout=60)             # --once drains out
        finally:
            _kill_all(*(p for p in (coord, victim, survivor)
                        if p is not None))

    def test_coordinator_sigterm_drains_exits_zero_and_resumes(
            self, tmp_path):
        """SIGTERM = graceful drain: in-flight leases finish, the
        journal compacts, the daemon exits 0.  A restarted coordinator
        plus the still-running agent complete the sweep untouched."""
        root, sock = tmp_path / "svc", str(tmp_path / "fed.sock")
        specs = paced_specs([0.8] * 4)
        coord = _spawn(_coordinator_argv(root, sock, lease_ttl=5.0,
                                         drain_grace=30.0))
        agent = None
        try:
            client = _connect(sock)
            job = client.submit("bw", specs, {"worker": WORKER})
            agent = _spawn(_agent_argv(sock, "steady", once=True))
            _poll_until(
                lambda: client.status(job["job"])["completed"] >= 1,
                timeout_s=60)
            coord.send_signal(signal.SIGTERM)
            assert coord.wait(timeout=60) == 0    # graceful exit
            completed_at_exit = json.loads(
                (root / "journal.jsonl").read_text())  # one snapshot
            assert completed_at_exit["event"] == "snapshot"
            coord = _spawn(_coordinator_argv(root, sock,
                                             lease_ttl=5.0))
            client = _connect(sock)
            out = client.wait(job["job"], timeout_s=120)
            assert out["errors"] == 0
            assert canon(out["results"]) == canon(serial_rows(specs))
            agent.wait(timeout=60)
        finally:
            _kill_all(*(p for p in (coord, agent) if p is not None))

    def test_coordinator_sigkill_restart_replays_leases(
            self, tmp_path):
        """kill -9 on the coordinator while an agent holds a lease:
        the restart replays journal + outstanding leases, the agent
        reconnects and its completion lands exactly once."""
        root, sock = tmp_path / "svc", str(tmp_path / "fed.sock")
        specs = paced_specs([3.0, 0.1, 0.1])
        coord = _spawn(_coordinator_argv(root, sock, lease_ttl=8.0))
        agent = None
        try:
            client = _connect(sock)
            job = client.submit("bw", specs, {"worker": WORKER})
            agent = _spawn(_agent_argv(sock, "steady", once=True))
            _poll_until(
                lambda: client.stats()["leases_active"] >= 1,
                timeout_s=30)
            coord.send_signal(signal.SIGKILL)
            coord.wait(timeout=10)
            coord = _spawn(_coordinator_argv(root, sock,
                                             lease_ttl=8.0))
            client = _connect(sock)
            out = client.wait(job["job"], timeout_s=120)
            assert out["errors"] == 0
            assert canon(out["results"]) == canon(serial_rows(specs))
            # no point was double-delivered: duplicates only happen if
            # a second computation raced, which replaying the lease
            # prevents here
            stats = client.stats()
            assert stats["leases_active"] == 0
            agent.wait(timeout=60)
        finally:
            _kill_all(*(p for p in (coord, agent) if p is not None))

    def test_partitioned_agent_past_expiry_loses_first_write_race(
            self, tmp_path):
        """SIGSTOP an agent past lease expiry (a partition), let a
        second agent recompute the point, then SIGCONT: the revenant's
        completion records ``duplicate_result`` and the output rows
        are untouched."""
        root, sock = tmp_path / "svc", str(tmp_path / "fed.sock")
        specs = paced_specs([2.5])
        coord = _spawn(_coordinator_argv(root, sock, lease_ttl=1.0))
        frozen = closer = None
        try:
            client = _connect(sock)
            job = client.submit("bw", specs, {"worker": WORKER})
            frozen = _spawn(_agent_argv(sock, "frozen"))
            _poll_until(
                lambda: client.stats()["leases_active"] >= 1,
                timeout_s=30)
            frozen.send_signal(signal.SIGSTOP)    # the partition
            _poll_until(
                lambda: client.stats()["lease_expirations"] >= 1,
                timeout_s=30)
            closer = _spawn(_agent_argv(sock, "closer", once=True))
            out = client.wait(job["job"], timeout_s=120)
            assert canon(out["results"]) == canon(serial_rows(specs))
            frozen.send_signal(signal.SIGCONT)    # partition heals
            _poll_until(
                lambda: client.stats()["duplicate_results"] >= 1,
                timeout_s=60)
            # the duplicate never rewrote the recorded row
            after = client.result(job["job"])
            assert canon(after["results"]) == canon(serial_rows(specs))
            stats = client.stats()
            assert stats["lease_expirations"] >= 1
            closer.wait(timeout=60)
        finally:
            if frozen is not None:
                try:
                    frozen.send_signal(signal.SIGCONT)
                except OSError:
                    pass
            _kill_all(*(p for p in (coord, frozen, closer)
                        if p is not None))

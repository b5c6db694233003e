"""JobQueue: journal durability, torn-tail replay, crash semantics."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.queue import LOCAL_HOLDER, JobQueue
from repro.harness.service import SweepService

SPECS = [{"i": 0}, {"i": 1}, {"i": 2}]
WORKER = "repro.apps.pingpong:bandwidth_point"


def finish(q: JobQueue, job_id: str, index: int, result, error=False,
           attempts=1, holder=LOCAL_HOLDER) -> str:
    """Lease one point and complete it: the only way a point is done."""
    lease = q.lease(job_id, index, holder, ttl_s=60.0)
    return q.complete_leased(lease.lease_id, job_id, index, result,
                             error=error, attempts=attempts,
                             agent=holder)


class TestLifecycle:
    def test_submit_and_record_to_done(self, tmp_path):
        q = JobQueue(tmp_path)
        job = q.submit("bw", WORKER, SPECS)
        assert job.status == "queued"
        assert job.pending_indices() == [0, 1, 2]
        leases = [q.lease(job.job_id, i, LOCAL_HOLDER, ttl_s=60.0)
                  for i in range(3)]
        assert q.get(job.job_id).status == "running"
        for i, lease in enumerate(leases):
            assert q.complete_leased(lease.lease_id, job.job_id, i,
                                     {"r": i}, error=False,
                                     attempts=1) == "recorded"
        assert q.active_leases() == 0
        job = q.get(job.job_id)
        assert job.status == "done"
        assert job.finished
        assert job.results == [{"r": 0}, {"r": 1}, {"r": 2}]

    def test_describe_counts_errors_and_retries(self, tmp_path):
        q = JobQueue(tmp_path)
        job = q.submit("bw", WORKER, SPECS)
        finish(q, job.job_id, 0, {"r": 0}, attempts=3)
        finish(q, job.job_id, 1, {"sweep_error": {}}, error=True)
        d = q.get(job.job_id).describe()
        assert d["completed"] == 2
        assert d["errors"] == 1
        assert d["retried_points"] == 1

    def test_empty_job_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one spec"):
            JobQueue(tmp_path).submit("bw", WORKER, [])

    def test_unknown_job_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError, match="unknown job"):
            JobQueue(tmp_path).get("job-000099")

    def test_events_fire_in_order(self, tmp_path):
        q = JobQueue(tmp_path)
        seen = []
        q.on_event = lambda kind, payload: seen.append(kind)
        job = q.submit("bw", WORKER, SPECS[:1])
        finish(q, job.job_id, 0, {"r": 0})
        assert seen == ["submit", "lease", "point", "done"]

    def test_listener_exceptions_are_swallowed(self, tmp_path):
        q = JobQueue(tmp_path)
        q.on_event = lambda *a: 1 / 0
        job = q.submit("bw", WORKER, SPECS[:1])  # must not raise
        finish(q, job.job_id, 0, {})


class TestReplay:
    def test_fresh_queue_replays_results_verbatim(self, tmp_path):
        q1 = JobQueue(tmp_path)
        job = q1.submit("bw", WORKER, SPECS)
        finish(q1, job.job_id, 1, {"r": 1}, attempts=2)
        q2 = JobQueue(tmp_path)  # the restarted daemon
        replayed = q2.get(job.job_id)
        assert replayed.results[1] == {"r": 1}
        assert replayed.attempts[1] == 2
        assert replayed.pending_indices() == [0, 2]
        assert [j.job_id for j in q2.open_jobs()] == [job.job_id]

    def test_restart_releases_local_slot_leases(self, tmp_path):
        """The local slots died with the daemon: a restarted daemon
        finds their points pending at once — long before the 600 s
        lease TTL — while an agent's lease survives for its holder."""
        root = tmp_path / "svc"
        svc1 = SweepService(root, jobs=1, lease_ttl_s=600.0)
        job = svc1.submit("bw", SPECS, {"worker": WORKER})["job"]
        assert [g["index"] for g in svc1._grant(LOCAL_HOLDER, 1)] == [0]
        svc1.agent_register("a1", "host", 1, 1)
        assert [g["index"] for g in svc1.agent_claim("a1", 1)["leases"]] \
            == [1]
        svc1.stop()
        svc2 = SweepService(root, jobs=1, lease_ttl_s=600.0)
        try:
            replayed = svc2.queue.get(job)
            assert replayed.pending_indices() == [0, 2]
            assert replayed.point_status[1] == "leased"
            assert [lease.agent for lease in svc2.queue.leases.values()] \
                == ["a1"]
        finally:
            svc2.stop()

    def test_local_leases_never_expire_at_runtime(self, tmp_path):
        q = JobQueue(tmp_path)
        job = q.submit("bw", WORKER, SPECS)
        q.lease(job.job_id, 0, LOCAL_HOLDER, ttl_s=5.0, now=100.0)
        q.lease(job.job_id, 1, "a1", ttl_s=5.0, now=100.0)
        expired = q.expire_due_leases(now=1e12)
        assert [lease.agent for lease in expired] == ["a1"]
        assert job.point_status[:2] == ["leased", "pending"]

    def test_compaction_by_an_append_keeps_that_transition(self,
                                                           tmp_path):
        """With compact_bytes=1 every append compacts the journal; the
        snapshot must already hold the transition being appended."""
        q1 = JobQueue(tmp_path, compact_bytes=1)
        job = q1.submit("bw", WORKER, SPECS)
        finish(q1, job.job_id, 0, {"r": 0})
        assert q1.compactions >= 2
        replayed = JobQueue(tmp_path).get(job.job_id)
        assert replayed.results[0] == {"r": 0}
        assert replayed.pending_indices() == [1, 2]

    def test_torn_tail_line_is_dropped_not_fatal(self, tmp_path):
        """A crash mid-append leaves a truncated last line; replay must
        shrug it off and count the drop."""
        q1 = JobQueue(tmp_path)
        job = q1.submit("bw", WORKER, SPECS)
        finish(q1, job.job_id, 0, {"r": 0})
        with open(q1.journal_path, "a") as fh:
            fh.write('{"event": "point", "job": "'  # the torn write
                     + job.job_id + '", "ind')
        q2 = JobQueue(tmp_path)
        assert q2.recovered_drops == 1
        replayed = q2.get(job.job_id)
        assert replayed.results[0] == {"r": 0}     # intact line kept
        assert replayed.pending_indices() == [1, 2]

    def test_sequence_continues_after_replay(self, tmp_path):
        """Job ids must never collide across restarts."""
        q1 = JobQueue(tmp_path)
        first = q1.submit("bw", WORKER, SPECS[:1])
        q2 = JobQueue(tmp_path)
        second = q2.submit("bw", WORKER, SPECS[:1])
        assert second.job_id != first.job_id

    def test_journal_lines_are_canonical_json(self, tmp_path):
        q = JobQueue(tmp_path)
        job = q.submit("bw", WORKER, SPECS[:1])
        finish(q, job.job_id, 0, {"r": 0})
        for line in q.journal_path.read_text().splitlines():
            record = json.loads(line)
            assert line == json.dumps(record, sort_keys=True,
                                      separators=(",", ":"))

    def test_premature_done_record_reopens(self, tmp_path):
        """A hand-damaged journal claiming done with open points must
        replay to an open job (the daemon recomputes the gap)."""
        q1 = JobQueue(tmp_path)
        job = q1.submit("bw", WORKER, SPECS)
        with open(q1.journal_path, "a") as fh:
            fh.write(json.dumps({"event": "done", "job": job.job_id})
                     + "\n")
        q2 = JobQueue(tmp_path)
        assert q2.get(job.job_id).status != "done"
        assert q2.open_jobs()


def _recount(q: JobQueue) -> tuple[list[str], int]:
    """Open jobs (submission order) and open points, the slow way."""
    open_ids, depth = [], 0
    for described in q.list_jobs():
        statuses = q.get(described["job"]).point_status
        left = sum(1 for s in statuses if s not in ("done", "error"))
        if left:
            open_ids.append(described["job"])
        depth += left
    return open_ids, depth


class TestOpenWorkIndex:
    """``open_jobs()``/``depth()`` are kept incrementally (O(open
    work)); under any interleaving of queue operations and restarts
    they must equal a brute-force recount."""

    OPS = ("submit", "lease", "complete", "adopt", "expire", "abandon",
           "restart")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(OPS),
                              st.integers(0, 1 << 20)), max_size=30))
    def test_index_matches_brute_force_recount(self, ops):
        with tempfile.TemporaryDirectory() as root:
            q = JobQueue(Path(root), compact_bytes=2048)
            for op, pick in ops:
                holder = LOCAL_HOLDER if pick % 2 else "a1"
                leases = sorted(q.leases)
                lease = q.leases[leases[pick % len(leases)]] \
                    if leases else None
                points = [(j["job"], i) for j in q.list_jobs()
                          for i in range(j["total"])]
                if op == "submit":
                    q.submit("bw", WORKER,
                             [{"i": i} for i in range(1 + pick % 4)])
                elif op == "lease":
                    pending = [(job_id, i) for job_id, i in points
                               if q.get(job_id).point_status[i]
                               == "pending"]
                    if pending:
                        job_id, i = pending[pick % len(pending)]
                        q.lease(job_id, i, holder, ttl_s=5.0, now=100.0)
                elif op == "complete" and lease is not None:
                    q.complete_leased(lease.lease_id, lease.job_id,
                                      lease.index, {"r": pick},
                                      error=pick % 3 == 0, attempts=1)
                elif op == "adopt" and points:
                    # an unleased completion: adopted, or a duplicate
                    job_id, i = points[pick % len(points)]
                    q.complete_leased(None, job_id, i, {"r": pick},
                                      error=False, attempts=1)
                elif op == "expire":
                    q.expire_due_leases(now=1e12)
                elif op == "abandon" and lease is not None:
                    q.release_lease(lease.lease_id, "abandoned")
                elif op == "restart":
                    q = JobQueue(Path(root), compact_bytes=2048)
                assert ([j.job_id for j in q.open_jobs()], q.depth()) \
                    == _recount(q)

"""Sweep-service benchmarks: throughput and the stats zero-cost guard.

The service adds three layers over a plain sweep — journaled queue,
shared store, reapable persistent worker processes.  These benchmarks time the
end-to-end path and pin the measurement-statistics contract: a
single-repetition job must never pay for the adaptive-repetition
machinery (no extra reps, no sampling arithmetic on the hot path).
"""

from __future__ import annotations

import time

from repro.harness.queue import JobQueue
from repro.harness.service import SweepService
from repro.harness.stats import MeasurePolicy

SPEC = {"system": "cichlid", "nbytes": 1 << 16, "mode": "pinned"}


def _run_job(root, specs, options=None) -> dict:
    """One whole service round-trip, fully in-process (no socket)."""
    svc = SweepService(root, socket_path=None, jobs=1,
                       point_timeout_s=60.0)
    svc.start()
    try:
        job = svc.submit("bandwidth", specs, options)
        return svc.wait(job["job"], timeout_s=120)
    finally:
        svc.stop()


def test_service_single_point(once, tmp_path):
    out = once(_run_job, tmp_path / "svc", [SPEC])
    assert out["errors"] == 0


def test_service_eight_point_job(once, tmp_path):
    specs = [dict(SPEC, nbytes=1 << (14 + i)) for i in range(8)]
    out = once(_run_job, tmp_path / "svc", specs)
    assert out["errors"] == 0


def test_journal_replay_1k_points(once, tmp_path):
    """Restart cost: replaying a 1000-point journal must be quick."""
    q = JobQueue(tmp_path / "q")
    job = q.submit("bw", "repro.apps.pingpong:bandwidth_point",
                   [{"i": i} for i in range(1000)])
    for i in range(1000):
        q.complete_leased(None, job.job_id, i, {"r": i}, error=False,
                          attempts=1)
    replayed = once(JobQueue, tmp_path / "q")
    assert replayed.get(job.job_id).status == "done"


def test_stats_collection_is_zero_cost_when_single_shot(tmp_path):
    """Regression tripwire: a single-repetition spec must not touch the
    measurement machinery.  The measured run (2 reps + CI arithmetic)
    does strictly more work, so best-of-N single-shot time must not
    exceed best-of-N measured time (generous noise allowance) — and the
    policy object itself must short-circuit.
    """
    assert MeasurePolicy.from_dict(None).single_shot
    assert not MeasurePolicy.from_dict({"max_reps": 2}).single_shot

    def best_of(options, sub, reps=3):
        times = []
        for r in range(reps):
            root = tmp_path / f"{sub}{r}"
            t0 = time.perf_counter()
            out = _run_job(root, [SPEC], options)
            times.append(time.perf_counter() - t0)
            assert out["errors"] == 0
        return min(times)

    best_of(None, "warm", reps=1)  # warm up imports and forks
    single = best_of(None, "s")
    measured = best_of({"measure": {"min_reps": 2, "max_reps": 2}}, "m")
    assert single <= measured * 1.25, \
        f"single-shot service path regressed: {single:.4f}s vs " \
        f"measured {measured:.4f}s"

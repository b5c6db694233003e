"""Sweep-service benchmarks: throughput and the stats zero-cost guard.

The service adds three layers over a plain sweep — journaled queue,
shared store, reapable persistent worker processes.  These benchmarks time the
end-to-end path and pin the measurement-statistics contract: a
single-repetition job must never pay for the adaptive-repetition
machinery (no extra reps, no sampling arithmetic on the hot path).
"""

from __future__ import annotations

import threading

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


#: the adaptive-repetition machinery a measured point runs through
#: (``t_critical`` is left out: building any policy validates its
#: confidence level with it)
_MEASUREMENT = {("repro.harness.stats", name) for name in (
    "rep_spec", "sample_of", "should_stop", "summarize_samples")} \
    | {("repro.harness.parallel", "_measure_point")}


def _measurement_calls(root, options) -> list[str]:
    """The measurement functions a one-point service job enters, in
    the daemon's slot threads (where points are computed and their
    repetitions merged)."""
    hits: list[str] = []

    def profile(frame, event, _arg):
        if event == "call" and (frame.f_globals.get("__name__"),
                                frame.f_code.co_name) in _MEASUREMENT:
            hits.append(frame.f_code.co_name)

    threading.setprofile(profile)
    try:
        out = _run_job(root, [SPEC], options)
    finally:
        threading.setprofile(None)
    assert out["errors"] == 0
    return hits


def test_stats_collection_is_zero_cost_when_single_shot(tmp_path):
    """Exact guard: a single-repetition job must not touch the
    measurement machinery — no extra repetitions, no sampling or
    confidence-interval arithmetic — and the policy object itself must
    short-circuit.  A call count, not a timing: noise cannot hide a
    regression.  The measured job is the control that shows the
    profile hook sees the threads the points run on.
    """
    assert MeasurePolicy.from_dict(None).single_shot
    assert not MeasurePolicy.from_dict({"max_reps": 2}).single_shot
    single = _measurement_calls(tmp_path / "s", None)
    measured = _measurement_calls(
        tmp_path / "m", {"measure": {"min_reps": 2, "max_reps": 2}})
    assert single == [], \
        f"single-shot service path entered the measurement code: {single}"
    assert "summarize_samples" in measured

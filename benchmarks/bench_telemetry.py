"""Telemetry overhead: span emission cost and the detached-zero-cost guard.

PR 9's contract is that observability is opt-in: a sweep with no
Telemetry attached must run exactly as fast as before the telemetry
layer existed.  These benchmarks time the hot pieces (span emission,
Prometheus rendering, an instrumented sweep) and pin the contract with
an exact tier-1 guard: a detached sweep enters no telemetry code.
"""

from __future__ import annotations

import sys

import pytest

from repro.apps.pingpong import bandwidth_point
from repro.harness.parallel import sweep
from repro.obs.telemetry import Telemetry, render_prometheus

SPEC = {"system": "cichlid", "nbytes": 1 << 16, "mode": "pinned"}


def _emit_spans(telemetry: Telemetry, n: int) -> None:
    for i in range(n):
        telemetry.span("queued", "bench-job", i, kind="bench")


def test_span_emit_10k(once, tmp_path):
    """Raw SpanLog throughput: 10k lifecycle spans, JSONL-appended."""
    telemetry = Telemetry(tmp_path / "telemetry.jsonl")
    once(_emit_spans, telemetry, 10_000)
    telemetry.close()
    assert telemetry.log.stats()["spans_written"] == 10_000


def test_prometheus_render(once, tmp_path):
    """One /metrics scrape over a populated registry."""
    telemetry = Telemetry(tmp_path / "telemetry.jsonl")
    for i in range(200):
        telemetry.job_submitted(f"job-{i % 8}", "bench", 1)
        telemetry.point_claimed(f"job-{i % 8}", 0, "bench")
        telemetry.point_running(f"job-{i % 8}", 0, "bench")
        telemetry.point_done(f"job-{i % 8}", 0, "bench", error=False)
    body = once(render_prometheus, telemetry, 5, 2, 1, 4,
                {"hits": 10}, 20)
    telemetry.close()
    assert "clmpi_point_latency_seconds" in body


def test_sweep_with_telemetry_attached(once, tmp_path):
    """An instrumented single-point sweep, end to end."""
    telemetry = Telemetry(tmp_path / "telemetry.jsonl")
    rows = once(sweep, bandwidth_point, [SPEC], jobs=1,
                kind="bandwidth", telemetry=telemetry)
    telemetry.close()
    assert rows[0]["seconds"] > 0


def _telemetry_calls(telemetry) -> set[str]:
    """The ``repro.obs.telemetry`` functions a one-point sweep enters,
    as qualified names (the sweep runs serially, in this thread)."""
    entered = set()

    def profile(frame, event, _arg):
        if event == "call" and \
                frame.f_globals.get("__name__") == "repro.obs.telemetry":
            entered.add(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        rows = sweep(bandwidth_point, [SPEC], jobs=1, kind="bandwidth",
                     telemetry=telemetry)
    finally:
        sys.setprofile(None)
    assert rows[0]["seconds"] > 0
    return entered


@pytest.mark.telemetry_smoke
def test_detached_telemetry_is_zero_cost(tmp_path):
    """Exact guard: a ``telemetry=None`` sweep must enter no function of
    the telemetry module — no span, no histogram.  A call set, not a
    timing: noise cannot hide a regression.  The attached sweep is the
    control that shows the profile hook sees the spans."""
    detached = _telemetry_calls(None)
    telemetry = Telemetry(tmp_path / "telemetry.jsonl")
    try:
        attached = _telemetry_calls(telemetry)
    finally:
        telemetry.close()
    assert detached == set(), \
        f"detached sweep entered telemetry code: {sorted(detached)}"
    assert "Telemetry.span" in attached

"""Federation benchmarks: multi-agent scaling and the zero-cost guard.

The federation layer (``repro.harness.federation``) shards one journaled
queue across N worker agents under time-bounded leases.  These
benchmarks time the end-to-end federated path at 1, 2, and 4 agents over
a pacing-dominated sweep (so the scaling signal is the sharding, not
interpreter noise), and pin the zero-cost contract: a single-daemon run
with no agents must journal no lease events and emit no agent spans —
federation machinery a non-federated user never pays for.
"""

from __future__ import annotations

import json
import threading
import time

from repro.harness.federation import run_agent
from repro.harness.queue import LOCAL_HOLDER
from repro.harness.service import SweepService

WORKER = "benchmarks.bench_federation:paced_point"
#: pacing dominates compute, so N agents ≈ N-way wall-clock split
PACE_S = 0.1
N_POINTS = 8


def paced_point(spec: dict) -> dict:
    time.sleep(spec.get("pace_s", 0.0))
    return {"i": spec["i"], "value": spec["i"] * 7}


def _specs() -> list[dict]:
    return [{"i": i, "pace_s": PACE_S} for i in range(N_POINTS)]


def _run_federated(root, n_agents: int) -> dict:
    """One whole federated sweep: a pure coordinator (jobs=0) plus
    ``n_agents`` in-process agents draining it over the unix socket."""
    svc = SweepService(root, socket_path=str(root) + ".sock", jobs=0,
                       point_timeout_s=60.0, lease_ttl_s=30.0)
    svc.start()
    try:
        job = svc.submit("paced", _specs(), {"worker": WORKER})
        threads = [threading.Thread(
            target=run_agent,
            kwargs=dict(socket_path=svc.socket_path, name=f"bench-a{i}",
                        slots=1, once=True),
            daemon=True) for i in range(n_agents)]
        for t in threads:
            t.start()
        out = svc.wait(job["job"], timeout_s=120)
        for t in threads:
            t.join(timeout=60)
        return out
    finally:
        svc.stop()


def test_federated_sweep_one_agent(once, tmp_path):
    out = once(_run_federated, tmp_path / "fed1", 1)
    assert out["errors"] == 0


def test_federated_sweep_two_agents(once, tmp_path):
    out = once(_run_federated, tmp_path / "fed2", 2)
    assert out["errors"] == 0


def test_federated_sweep_four_agents(once, tmp_path):
    out = once(_run_federated, tmp_path / "fed4", 4)
    assert out["errors"] == 0


def test_agent_scaling_splits_wall_clock(tmp_path):
    """Regression tripwire for the sharding itself: with pacing-bound
    points, 2 agents must beat 1 and 4 must beat 2 (generous margins —
    this guards 'agents actually run concurrently', not a precise
    speedup figure)."""
    def best_of(n_agents: int, reps: int = 2) -> float:
        times = []
        for r in range(reps):
            t0 = time.perf_counter()
            out = _run_federated(tmp_path / f"scale{n_agents}-{r}",
                                 n_agents)
            times.append(time.perf_counter() - t0)
            assert out["errors"] == 0
        return min(times)

    one, two, four = best_of(1), best_of(2), best_of(4)
    assert two < one * 0.80, \
        f"2 agents did not beat 1: {two:.3f}s vs {one:.3f}s"
    assert four < one * 0.55, \
        f"4 agents did not beat 1 by ~2x: {four:.3f}s vs {one:.3f}s"


def test_single_daemon_pays_nothing_for_federation(tmp_path):
    """Zero-cost contract: a daemon with local workers and no agents
    journals only its local slots' leases (each ended "done") and no
    duplicate events, emits no agent/lease spans or counters, and
    reports empty federation gauges."""
    svc = SweepService(tmp_path / "solo", jobs=1, point_timeout_s=60.0)
    svc.start()
    try:
        job = svc.submit("paced", _specs()[:2], {"worker": WORKER})
        out = svc.wait(job["job"], timeout_s=60)
        assert out["errors"] == 0
        records = [json.loads(line) for line in
                   svc.queue.journal_path.read_text().splitlines()]
        assert {r["agent"] for r in records
                if r["event"] == "lease"} == {LOCAL_HOLDER}
        assert {r["why"] for r in records
                if r["event"] == "lease_end"} == {"done"}
        assert "duplicate" not in {r["event"] for r in records}
        counters = svc.telemetry.snapshot()["counters"]
        assert not [name for name in counters
                    if name.startswith(("svc.agents.", "svc.leases.",
                                        "svc.points.duplicate"))]
        stats = svc.stats()
        assert stats["agents"] == []
        assert stats["leases_active"] == 0
        assert stats["lease_expirations"] == 0
        assert stats["duplicate_results"] == 0
        body = svc.prometheus()
        assert "clmpi_workers 0" in body
        assert "clmpi_lease_expirations_total 0" in body
    finally:
        svc.stop()

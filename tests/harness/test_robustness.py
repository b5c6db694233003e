"""Harness degradation: corrupt cache entries, crashing sweep workers,
partial figures, and the fault-plan CLI plumbing."""

import json
import os
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import error_record, is_error_record, sweep


# ---------------------------------------------------------------------------
# sweep workers (module-level: picklable by reference)
# ---------------------------------------------------------------------------
def doubling_worker(spec):
    return {"x2": spec["x"] * 2}


def crashing_worker(spec):
    if spec.get("die"):
        os._exit(13)   # kill the interpreter, not an exception
    if spec.get("raise"):
        raise ValueError(f"bad spec {spec['x']}")
    return {"x2": spec["x"] * 2}


def counted_crashing_worker(spec):
    """:func:`crashing_worker` that first leaves one marker file per run
    under ``spec["runs"]``, so a test can count each point's runs."""
    marker = f"{spec['x']}-{os.getpid()}-{time.monotonic_ns()}"
    (Path(spec["runs"]) / marker).touch()
    return crashing_worker(spec)


# ---------------------------------------------------------------------------
# cache corruption (the corrupt-as-miss contract)
# ---------------------------------------------------------------------------
class TestCacheCorruption:
    def entry_path(self, cache, spec):
        return cache._path("k", spec)

    def seed(self, tmp_path, spec, result):
        cache = ResultCache(root=tmp_path / "c", version="v1")
        cache.put("k", spec, result)
        return cache

    @pytest.mark.parametrize("damage", [
        "",                                  # truncated to nothing
        '{"spec": {}, "result"',             # truncated mid-write
        "not json at all",                   # garbage
        '{"spec": {}}',                      # parses, wrong shape
        "[1, 2, 3]",                         # parses, wrong type
    ])
    def test_damaged_entry_is_deleted_and_recomputed(self, tmp_path, damage):
        spec = {"x": 1}
        cache = self.seed(tmp_path, spec, {"x2": 2})
        path = self.entry_path(cache, spec)
        path.write_text(damage)

        fresh = ResultCache(root=tmp_path / "c", version="v1")
        assert fresh.get("k", spec) is None          # miss, not a crash
        assert fresh.misses == 1 and fresh.hits == 0
        assert not path.exists()                     # bad entry dropped

        # the sweep recomputes and re-stores the point
        out = sweep(doubling_worker, [spec], jobs=1, cache=fresh, kind="k")
        assert out == [{"x2": 2}]
        assert json.loads(path.read_text())["result"] == {"x2": 2}

    def test_intact_entry_still_hits(self, tmp_path):
        spec = {"x": 3}
        cache = self.seed(tmp_path, spec, {"x2": 6})
        fresh = ResultCache(root=tmp_path / "c", version="v1")
        assert fresh.get("k", spec) == {"x2": 6}
        assert fresh.hits == 1


# ---------------------------------------------------------------------------
# crash-proof sweeps
# ---------------------------------------------------------------------------
class TestCrashProofSweep:
    def test_killed_worker_yields_error_record(self, tmp_path):
        specs = [{"x": 0}, {"x": 1, "die": True}, {"x": 2},
                 {"x": 3, "raise": True}, {"x": 4}]
        cache = ResultCache(root=tmp_path / "c", version="v1")
        results = sweep(crashing_worker, specs, jobs=3, cache=cache,
                        kind="crash")
        assert [is_error_record(r) for r in results] == [
            False, True, False, True, False]
        assert results[0] == {"x2": 0}
        assert results[2] == {"x2": 4}
        assert results[4] == {"x2": 8}
        assert results[1]["sweep_error"]["type"] == "WorkerDied"
        assert results[1]["sweep_error"]["spec"] == specs[1]
        err3 = results[3]["sweep_error"]
        assert err3["type"] == "ValueError" and "bad spec 3" in err3["message"]

    def test_crash_reruns_only_the_crashing_point(self, tmp_path):
        """A point that kills its worker process is tried exactly twice
        and becomes an error record; every other point runs once."""
        specs = [{"x": x, "runs": str(tmp_path), "die": x == 2}
                 for x in range(6)]
        results = sweep(counted_crashing_worker, specs, jobs=3)
        runs = Counter(name.split("-")[0] for name in os.listdir(tmp_path))
        assert runs == {str(x): 2 if x == 2 else 1 for x in range(6)}
        assert [is_error_record(r) for r in results] == [
            x == 2 for x in range(6)]
        assert results[2]["sweep_error"]["type"] == "WorkerDied"
        assert results[5] == {"x2": 10}

    def test_unpicklable_worker_yields_per_slot_error_records(self):
        results = sweep(lambda spec: {}, [{"x": 0}, {"x": 1}], jobs=2)
        assert [r["sweep_error"]["spec"] for r in results] == [
            {"x": 0}, {"x": 1}]
        assert all("pickle" in r["sweep_error"]["message"]
                   for r in results)

    def test_error_records_are_never_cached(self, tmp_path):
        specs = [{"x": 0}, {"x": 1, "raise": True}]
        c1 = ResultCache(root=tmp_path / "c", version="v1")
        sweep(crashing_worker, specs, jobs=1, cache=c1, kind="crash")
        c2 = ResultCache(root=tmp_path / "c", version="v1")
        results = sweep(crashing_worker, specs, jobs=1, cache=c2,
                        kind="crash")
        assert c2.hits == 1 and c2.misses == 1       # only the good point hit
        assert is_error_record(results[1])

    def test_serial_sweep_isolates_exceptions(self):
        results = sweep(crashing_worker,
                        [{"x": 1, "raise": True}, {"x": 2}], jobs=1)
        assert is_error_record(results[0])
        assert results[1] == {"x2": 4}

    def test_is_error_record_shape(self):
        rec = error_record({"x": 1}, ValueError("boom"))
        assert is_error_record(rec)
        assert not is_error_record({"x2": 2})
        assert not is_error_record(None)
        assert not is_error_record("sweep_error")


# ---------------------------------------------------------------------------
# partial figures
# ---------------------------------------------------------------------------
class TestPartialFigures:
    def test_fig9_renders_error_cells(self, monkeypatch, capsys):
        from repro.harness import fig9

        def fake_sweep(worker, specs, measure=None, jobs=None,
                       cache=None, kind="x", telemetry=None):
            out = []
            for spec in specs:
                if spec["impl"] == "clmpi" and spec["nodes"] == 2:
                    out.append(error_record(
                        spec, RuntimeError("worker died")))
                else:
                    out.append({"gflops": 1.0, "comp_comm_ratio": 2.0})
            return out

        monkeypatch.setattr(fig9, "measured_sweep", fake_sweep)
        table = fig9.run_fig9(system="cichlid", nodes=[1, 2], verbose=True)
        rendered = table.render()
        assert "ERROR" in rendered and "n/a" in rendered
        assert "partial figure" in capsys.readouterr().out

    def test_fig8_skips_errors_and_sums_faults(self, monkeypatch, capsys):
        from repro.harness import fig8

        def fake_sweep(worker, specs, measure=None, jobs=None,
                       cache=None, kind="x", telemetry=None):
            out = []
            for spec in specs:
                if spec["mode"] == "mapped":
                    out.append(error_record(spec, RuntimeError("boom")))
                else:
                    out.append({"system": spec["system"],
                                "mode": spec["mode"] or "auto",
                                "block": spec["block"],
                                "nbytes": spec["nbytes"],
                                "repeats": spec["repeats"],
                                "seconds": 1e-3,
                                "faults": {"total": 2,
                                           "by_kind": {"drop": 2}}})
            return out

        monkeypatch.setattr(fig8, "measured_sweep", fake_sweep)
        table = fig8.run_fig8(system="cichlid", sizes=[1 << 20],
                              pipeline_blocks=[1 << 18], verbose=True)
        out = capsys.readouterr().out
        assert "injected faults across the sweep" in out
        assert "drop: 6" in out          # 3 surviving points x 2 drops
        assert "partial figure" in out
        assert "mapped" not in table.columns

    @pytest.mark.parametrize("fig,kwargs,sweep_name,label", [
        ("fig8", dict(sizes=[1 << 20], pipeline_blocks=[1 << 18]),
         "measured_sweep", "mapped @ 1048576B"),
        ("fig9", dict(nodes=[1, 2]), "measured_sweep",
         "clmpi @ 2 nodes"),
        ("fig10", dict(nodes=[1, 2]), "sweep", "clmpi @ 2 nodes"),
    ])
    def test_one_failed_point_warning(self, fig, kwargs, sweep_name, label,
                                      monkeypatch, capsys):
        """The partial-figure warning, byte for byte, closes stdout."""
        import importlib

        module = importlib.import_module(f"repro.harness.{fig}")

        def good(spec):
            return {"system": spec.get("system"),
                    "mode": spec.get("mode") or "auto",
                    "block": spec.get("block"),
                    "nbytes": spec.get("nbytes"),
                    "repeats": spec.get("repeats"), "seconds": 1e-3,
                    "gflops": 1.0, "comp_comm_ratio": 2.0,
                    "steps_per_second": 1.0}

        def fake_sweep(worker, specs, **kw):
            return [error_record(s, RuntimeError("worker died"))
                    if s.get("mode") == "mapped"
                    or (s.get("impl") == "clmpi" and s.get("nodes") == 2)
                    else good(s) for s in specs]

        monkeypatch.setattr(module, sweep_name, fake_sweep)
        getattr(module, f"run_{fig}")(verbose=True, **kwargs)
        points = {"fig8": 4, "fig9": 6, "fig10": 4}[fig]
        assert capsys.readouterr().out.endswith(
            f"WARNING: partial figure — 1 of {points} points failed:\n"
            f"  {label}: RuntimeError: worker died\n")


# ---------------------------------------------------------------------------
# CLI fault-plan plumbing
# ---------------------------------------------------------------------------
class TestFaultsCli:
    def test_load_faults_round_trip(self, tmp_path):
        from repro.faults import FaultPlan
        from repro.harness.runner import _load_faults, build_parser

        path = tmp_path / "plan.json"
        path.write_text(FaultPlan.lossy(0.25, seed=4).to_json())
        args = build_parser().parse_args(
            ["fig8", "--faults", str(path), "--fault-seed", "9"])
        plan = _load_faults(args)
        assert plan["seed"] == 9
        assert plan["events"][0]["probability"] == 0.25

    def test_fault_seed_requires_plan(self):
        from repro.harness.runner import _load_faults, build_parser

        args = build_parser().parse_args(["fig8", "--fault-seed", "9"])
        with pytest.raises(SystemExit, match="requires"):
            _load_faults(args)


class TestCrashRecoveringSweep:
    """Acceptance: a sweep point that loses a rank mid-run must finish
    via ULFM shrink — a valid data point from the survivors' view, with
    recovery metrics in its RunReport — instead of an error record."""

    CRASH = {"seed": 5,
             "events": [{"kind": "node_crash", "node": 1, "at": 2e-4}]}

    def test_node_crash_point_recovers_instead_of_erroring(self):
        from repro.apps.pingpong import bandwidth_point
        from repro.obs import validate_report

        spec = {"system": "cichlid", "nbytes": 1 << 20, "mode": "pinned",
                "block": None, "repeats": 2, "faults": self.CRASH,
                "obs": True, "ft": True}
        row = sweep(bandwidth_point, [spec], jobs=1)[0]
        assert not is_error_record(row)
        assert row["seconds"] > 0
        assert row["recovery"] == {"survivors": [0], "failed_ranks": [1],
                                   "world": 1}
        validate_report(row["report"])
        counters = row["report"]["metrics"]["counters"]
        assert counters["ft.detections"] >= 1
        assert counters["ft.revokes"] == 1
        assert counters["ft.shrinks"] == 1
        assert counters["clmpi.orphaned_flows"] >= 1
        assert row["faults"]["by_kind"].get("dead", 0) > 0

    def test_fig8_reports_recovered_points(self, capsys):
        from repro.harness.fig8 import run_fig8

        run_fig8(sizes=[1 << 20], pipeline_blocks=[1 << 20], repeats=2,
                 jobs=1, faults=self.CRASH)
        out = capsys.readouterr().out
        assert "recovered via Comm.shrink()" in out
        assert "lost rank(s) [1]" in out

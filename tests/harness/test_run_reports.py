"""RunReport production through the harness: fig8/fig9 smoke, cache
ride-through, byte-identical determinism, and the CLI flags."""

import json

from repro.harness.cache import ResultCache
from repro.harness.fig8 import run_fig8
from repro.harness.runner import main as harness_main
from repro.obs import RunReport, validate_report

SMALL = dict(sizes=[1 << 18, 1 << 20], pipeline_blocks=[1 << 18],
             repeats=2, verbose=False)


class TestFig8Reports:
    def test_report_written_and_schema_valid(self, tmp_path):
        path = tmp_path / "report.json"
        run_fig8("cichlid", report=str(path), **SMALL)
        data = json.loads(path.read_text())
        validate_report(data)
        assert data["kind"] == "bandwidth"
        assert data["metrics"]["counters"]["net.messages"] > 0
        assert data["critical_path"]["dominant"]

    def test_cli_report_flag(self, tmp_path, capsys):
        """Tier-1 smoke: ``fig8 --report`` produces a schema-valid
        RunReport."""
        path = tmp_path / "cli_report.json"
        rc = harness_main(["fig8", "--system", "cichlid", "--repeats", "1",
                           "--report", str(path), "--no-cache"])
        assert rc == 0
        validate_report(json.loads(path.read_text()))
        assert "RunReport" in capsys.readouterr().out

    def test_cli_metrics_flag(self, capsys):
        rc = harness_main(["fig8", "--system", "cichlid", "--repeats", "1",
                           "--metrics", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"counters"' in out and "net.messages" in out

    def test_reports_ride_the_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        p1 = tmp_path / "cold.json"
        p2 = tmp_path / "warm.json"
        run_fig8("cichlid", cache=cache, report=str(p1), **SMALL)
        assert cache.misses > 0 and cache.hits == 0
        run_fig8("cichlid", cache=cache, report=str(p2), **SMALL)
        assert cache.hits > 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_identical_serial_parallel_cached(self, tmp_path):
        """Acceptance: same-seed runs produce byte-identical RunReports
        whether serial, parallel, or warm-cache."""
        paths = {name: tmp_path / f"{name}.json"
                 for name in ("serial", "par", "warm")}
        run_fig8("cichlid", jobs=1, report=str(paths["serial"]), **SMALL)
        run_fig8("cichlid", jobs=2, report=str(paths["par"]), **SMALL)
        cache = ResultCache(root=tmp_path / "c")
        run_fig8("cichlid", cache=cache, report=str(tmp_path / "x.json"),
                 **SMALL)
        run_fig8("cichlid", cache=cache, report=str(paths["warm"]),
                 **SMALL)
        blobs = {name: p.read_bytes() for name, p in paths.items()}
        assert blobs["serial"] == blobs["par"] == blobs["warm"]

    def test_obs_specs_do_not_collide_with_plain(self, tmp_path):
        """obs runs address distinct cache entries: a plain re-run after
        a reported run must not see report-shaped rows."""
        cache = ResultCache(root=tmp_path / "c")
        run_fig8("cichlid", cache=cache,
                 report=str(tmp_path / "r.json"), **SMALL)
        plain = run_fig8("cichlid", cache=cache, **SMALL)
        assert cache.misses > 0
        assert not hasattr(plain, "report")

    def test_table_report_attribute(self, tmp_path):
        table = run_fig8("cichlid", report=str(tmp_path / "r.json"),
                         **SMALL)
        assert isinstance(table.report, RunReport)
        assert table.report.makespan_s > 0


class TestFig9Reports:
    def test_report_schema_valid(self, tmp_path):
        from repro.harness.fig9 import run_fig9

        path = tmp_path / "f9.json"
        run_fig9("cichlid", nodes=[1, 2], size="XS", iterations=1,
                 verbose=False, report=str(path))
        data = json.loads(path.read_text())
        validate_report(data)
        assert data["kind"] == "himeno"
        assert data["metrics"]["counters"]["gpu.kernels"] > 0


class TestCacheCounters:
    def test_corrupt_delete_counted(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        cache.put("bw", {"x": 1}, {"r": 1})
        path = cache._path("bw", {"x": 1})
        path.write_text("{ not json")
        assert cache.get("bw", {"x": 1}) is None
        assert cache.corrupt_deleted == 1
        assert cache.misses == 1
        assert not path.exists()
        assert cache.read_stats()["corrupt_deleted"] == 1

    def test_registry_backs_int_views(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        cache.get("bw", {"x": 1})
        cache.put("bw", {"x": 1}, {"r": 1})
        cache.get("bw", {"x": 1})
        assert cache.hits == 1 and cache.misses == 1
        assert isinstance(cache.hits, int)
        assert cache.metrics.counters == {"cache.hits": 1,
                                          "cache.misses": 1}

    def test_clear_resets_counters(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        cache.get("bw", {"x": 1})
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0

    def test_cache_stats_cli_prints_corrupt(self, capsys):
        rc = harness_main(["--cache-stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "corrupt" in out and "hits" in out


class TestSanitizerMetrics:
    def test_stats_include_snapshot_when_attached(self, cichlid_preset):
        from repro.analysis import Sanitizer
        from repro.launcher import ClusterApp

        app = ClusterApp(cichlid_preset, 2, metrics=True)

        def main(ctx):
            yield from ctx.comm.barrier()

        with Sanitizer(app) as san:
            app.run(main)
        stats = san.report.stats
        assert "metrics" in stats
        assert stats["metrics"]["counters"]["sim.processes"] >= 2

    def test_stats_snapshot_survives_summing(self, cichlid_preset):
        """autosanitize sums per-run int stats; the dict-valued metrics
        snapshot must not break that fold."""
        from repro.analysis import autosanitize
        from repro.launcher import ClusterApp

        def main(ctx):
            yield from ctx.comm.barrier()

        with autosanitize() as session:
            app = ClusterApp(cichlid_preset, 2, metrics=True)
            app.run(main)
        assert session.ok

    def test_stats_omit_snapshot_when_detached(self, app2):
        from repro.analysis import Sanitizer

        def main(ctx):
            yield from ctx.comm.barrier()

        with Sanitizer(app2) as san:
            app2.run(main)
        assert "metrics" not in san.report.stats

    def test_injected_fault_finding_references_flow(self, cichlid_preset):
        """A fault-killed clMPI transfer surfaces the causal flow id in
        the injected-fault warning, locating the chain on the timeline."""
        import numpy as np

        from repro import clmpi
        from repro.analysis import Sanitizer
        from repro.faults import FaultPlan
        from repro.launcher import ClusterApp

        plan = FaultPlan(seed=5, events=(
            {"kind": "drop", "probability": 1.0},))
        app = ClusterApp(cichlid_preset, 2, trace=True,
                         force_mode="mapped", faults=plan)
        data = np.zeros(1024, dtype=np.uint8)

        def main(ctx):
            q = ctx.queue()
            buf = ctx.ocl.create_buffer(1024)
            if ctx.rank == 0:
                buf.bytes_view(0, 1024)[:] = data
                yield from clmpi.enqueue_send_buffer(
                    q, buf, False, 0, 1024, 1, 0, ctx.comm)
            else:
                yield from clmpi.enqueue_recv_buffer(
                    q, buf, False, 0, 1024, 0, 0, ctx.comm)
            yield from q.finish()

        with Sanitizer(app) as san:
            app.run(main)
        findings = [f for f in san.report.findings
                    if f.kind == "injected-fault"]
        assert findings
        assert any("[flow " in f.message for f in findings)

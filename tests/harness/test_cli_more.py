"""Remaining CLI paths: fig8, fig10, tune, Fig 4 trace export."""

import json


from repro.harness.runner import main


class TestCliPaths:
    def test_fig8_small(self, capsys, monkeypatch):
        # shrink the sweep for test speed
        import repro.apps.pingpong as pp
        monkeypatch.setattr(pp, "DEFAULT_SIZES", [1 << 18, 1 << 22])
        assert main(["fig8", "--system", "cichlid", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig 8(a)" in out and "pinned" in out and "mapped" in out

    def test_fig10_small(self, capsys):
        assert main(["fig10", "--nodes", "1,2", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig 10" in out and "baseline" in out

    def test_tune(self, capsys, monkeypatch):
        import repro.clmpi.autotune as at
        monkeypatch.setattr(at, "DEFAULT_SIZES", [1 << 18, 4 << 20])
        monkeypatch.setattr(at, "DEFAULT_BLOCKS", [1 << 20])
        assert main(["tune", "--system", "ricc"]) == 0
        out = capsys.readouterr().out
        assert "Auto-tuned" in out and "pinned" in out

    def test_fig4_chrome_trace(self, capsys, tmp_path, monkeypatch):
        """``--trace-out`` exports panel (c)'s trace from the three
        panel runs instead of simulating the panel a fourth time."""
        import repro.harness.timeline as timeline
        runs = []

        def counted(*args, **kwargs):
            runs.append(args)
            return run_himeno(*args, **kwargs)

        run_himeno = timeline.run_himeno
        monkeypatch.setattr(timeline, "run_himeno", counted)
        path = tmp_path / "t.json"
        assert main(["fig4", "--trace-out", str(path)]) == 0
        assert len(runs) == 3
        data = json.loads(path.read_text())
        assert data["traceEvents"]
        assert "Chrome trace written" in capsys.readouterr().out

"""Unit tests of the tracing layer."""

from repro.sim.trace import Tracer, TraceRecord


class TestTraceRecord:
    def test_duration(self):
        rec = TraceRecord("l", "x", 1.0, 3.5)
        assert rec.duration == 2.5

    def test_overlap_positive(self):
        a = TraceRecord("l", "a", 0.0, 2.0)
        b = TraceRecord("l", "b", 1.0, 3.0)
        assert a.overlaps(b) and b.overlaps(a)

    def test_touching_intervals_do_not_overlap(self):
        a = TraceRecord("l", "a", 0.0, 1.0)
        b = TraceRecord("l", "b", 1.0, 2.0)
        assert not a.overlaps(b)


class TestTracer:
    def test_lanes_sorted_unique(self):
        tr = Tracer()
        tr.record("b", "x", 0, 1)
        tr.record("a", "y", 0, 1)
        tr.record("b", "z", 1, 2)
        assert tr.lanes() == ["a", "b"]

    def test_on_lane_ordering(self):
        tr = Tracer()
        tr.record("l", "late", 5, 6)
        tr.record("l", "early", 0, 1)
        assert [r.label for r in tr.on_lane("l")] == ["early", "late"]

    def test_busy_time_merges_overlaps(self):
        tr = Tracer()
        tr.record("l", "a", 0.0, 2.0)
        tr.record("l", "b", 1.0, 3.0)  # 1s overlap
        tr.record("l", "c", 5.0, 6.0)
        assert tr.busy_time("l") == 4.0

    def test_busy_time_contained_interval(self):
        tr = Tracer()
        tr.record("l", "outer", 0.0, 10.0)
        tr.record("l", "inner", 2.0, 3.0)
        assert tr.busy_time("l") == 10.0

    def test_overlap_time_categories(self):
        tr = Tracer()
        tr.record("gpu", "k", 0.0, 4.0, "compute")
        tr.record("nic", "m", 2.0, 6.0, "net")
        tr.record("nic", "m2", 8.0, 9.0, "net")
        assert tr.overlap_time("compute", "net") == 2.0

    def test_overlap_time_empty_category(self):
        tr = Tracer()
        tr.record("gpu", "k", 0.0, 4.0, "compute")
        assert tr.overlap_time("compute", "net") == 0.0

    def test_span(self):
        tr = Tracer()
        tr.record("l", "a", 1.0, 2.0)
        tr.record("m", "b", 0.5, 4.0)
        assert tr.span() == (0.5, 4.0)

    def test_span_empty(self):
        assert Tracer().span() == (0.0, 0.0)

    def test_render_gantt_contains_lanes_and_glyphs(self):
        tr = Tracer()
        tr.record("gpu", "k", 0.0, 1.0, "compute")
        tr.record("nic", "m", 0.5, 1.0, "net")
        chart = tr.render_gantt(width=20)
        assert "gpu" in chart and "nic" in chart
        assert "#" in chart and "=" in chart

    def test_render_gantt_empty(self):
        assert Tracer().render_gantt() == "(empty trace)"

    def test_by_category(self):
        tr = Tracer()
        tr.record("a", "x", 0, 1, "net")
        tr.record("b", "y", 0, 1, "compute")
        assert [r.label for r in tr.by_category("net")] == ["x"]

    def test_meta_preserved(self):
        tr = Tracer()
        rec = tr.record("l", "x", 0, 1, "net", nbytes=100, dst=3)
        assert rec.meta == {"nbytes": 100, "dst": 3}

    def test_lane_busy_meta(self):
        """A lane record carries src, nbytes and dst in that order when
        given; one with none of them shares the empty mapping."""
        tr = Tracer()
        tr.on_lane_busy("pcie", "l", "x", 0, 1, "net", nbytes=8, src=1,
                        dst=2)
        tr.on_lane_busy("gpu", "l", "k", 1, 2, "compute")
        tr.on_lane_busy("gpu", "l", "k", 2, 3, "compute")
        full, bare, again = tr.records
        assert list(full.meta.items()) == [("src", 1), ("nbytes", 8),
                                           ("dst", 2)]
        assert bare.meta == {} and bare.meta is again.meta
        assert [r.span for r in tr.records] == [1, 2, 3]


class TestChromeTraceExport:
    def test_events_structure(self):
        tr = Tracer()
        tr.record("gpu", "kern", 0.001, 0.003, "compute", nbytes=5)
        tr.record("nic", "msg", 0.002, 0.004, "net")
        events = tr.to_chrome_trace()
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in metas} == {"gpu", "nic"}
        assert len(spans) == 2
        kern = next(e for e in spans if e["name"] == "kern")
        assert kern["ts"] == 1000.0 and kern["dur"] == 2000.0
        assert kern["cat"] == "compute"
        assert kern["args"]["nbytes"] == 5

    def test_lane_to_tid_stable(self):
        tr = Tracer()
        tr.record("b", "x", 0, 1)
        tr.record("a", "y", 0, 1)
        events = tr.to_chrome_trace()
        tids = {e["args"]["name"]: e["tid"] for e in events
                if e["ph"] == "M"}
        spans = {e["name"]: e["tid"] for e in events if e["ph"] == "X"}
        assert spans["x"] == tids["b"] and spans["y"] == tids["a"]

    def test_save_roundtrip(self, tmp_path):
        import json
        tr = Tracer()
        tr.record("l", "x", 0.0, 1.0, "host")
        path = tmp_path / "trace.json"
        tr.save_chrome_trace(path)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == 2

    def test_real_run_exports(self, tmp_path):
        """A traced Himeno run produces a loadable Chrome trace."""
        import json
        from repro.apps.himeno import HimenoConfig, run_himeno
        from repro.systems import cichlid

        res = run_himeno(cichlid(), 2, "clmpi",
                         HimenoConfig(size="XXS", iterations=1),
                         functional=False, trace=True)
        path = tmp_path / "himeno.json"
        res.tracer.save_chrome_trace(path)
        data = json.loads(path.read_text())
        cats = {e.get("cat") for e in data["traceEvents"]}
        assert {"compute", "net"} <= cats


class TestTracerEdgeCases:
    def test_touching_intervals_busy_time_exact(self):
        tr = Tracer()
        tr.record("l", "a", 0.0, 1.0, "host")
        tr.record("l", "b", 1.0, 2.0, "host")
        assert tr.busy_time("l") == 2.0

    def test_touching_intervals_no_overlap_time(self):
        tr = Tracer()
        tr.record("l", "a", 0.0, 1.0, "compute")
        tr.record("l", "b", 1.0, 2.0, "net")
        assert tr.overlap_time("compute", "net") == 0.0

    def test_zero_length_record_kept_but_costs_nothing(self):
        tr = Tracer()
        rec = tr.record("l", "marker", 1.0, 1.0, "sync")
        tr.record("l", "work", 0.0, 2.0, "host")
        assert rec.duration == 0.0
        assert rec in tr.records
        assert tr.busy_time("l") == 2.0
        assert tr.span() == (0.0, 2.0)

    def test_unknown_category_renders_fallback_glyph(self):
        tr = Tracer()
        tr.record("lane", "odd", 0.0, 1.0, "exotic")
        chart = tr.render_gantt(width=10)
        assert "#" in chart  # fallback glyph
        assert "lane" in chart

    def test_render_empty_trace(self):
        assert Tracer().render_gantt() == "(empty trace)"

    def test_chrome_trace_deterministic(self):
        def build():
            tr = Tracer()
            fid = tr.new_flow()
            tr.record("b", "y", 1.0, 2.0, "net", flow=fid, nbytes=7)
            tr.record("a", "x", 0.0, 1.0, "d2h", flow=fid)
            return tr.to_chrome_trace()

        assert build() == build()

    def test_empty_meta_is_shared_singleton(self):
        tr = Tracer()
        a = tr.record("l", "a", 0.0, 1.0)
        b = tr.record("l", "b", 1.0, 2.0)
        c = tr.record("l", "c", 2.0, 3.0, nbytes=1)
        assert a.meta is b.meta  # no per-record dict allocation
        assert c.meta is not a.meta and c.meta["nbytes"] == 1

    def test_empty_meta_is_immutable(self):
        import pytest

        rec = Tracer().record("l", "a", 0.0, 1.0)
        with pytest.raises(TypeError):
            rec.meta["k"] = 1  # type: ignore[index]

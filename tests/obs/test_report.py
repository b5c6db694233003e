"""RunReport: schema, round-trips, merging, diffing, and the CLI."""

import json

import pytest

from repro.obs import (RunReport, build_report, diff_reports,
                       validate_report)
from repro.obs.__main__ import main as obs_main
from repro.sim import Environment, Tracer


def _sample_env() -> Environment:
    env = Environment()
    tracer = Tracer()
    env.attach(tracer)
    fid = tracer.new_flow()
    tracer.record("node0.pcie", "d2h", 0.0, 1.0, "d2h", flow=fid)
    tracer.record("node0.nic.tx", "msg", 1.0, 3.0, "net", flow=fid)
    from repro.obs import MetricsRegistry
    m = MetricsRegistry().attach(env)
    m.inc("net.messages")
    m.observe("mpi.msg_bytes", 4096)
    env._now = 3.0
    return env


class TestBuildReport:
    def test_fields(self):
        rep = build_report("bandwidth", {"nbytes": 4096}, _sample_env())
        assert rep.kind == "bandwidth"
        assert rep.makespan_s == 3.0
        assert rep.metrics["counters"]["net.messages"] == 1
        assert "node0.pcie" in rep.lanes
        assert rep.lanes["node0.nic.tx"]["busy_s"] == pytest.approx(2.0)
        assert rep.overlap == {}  # serial stages: nothing concurrent
        assert rep.critical_path["dominant"] == "net"

    def test_overlap_pairs(self):
        env = Environment()
        tracer = env.attach(Tracer())
        tracer.record("node0.gpu", "k", 0.0, 4.0, "compute")
        tracer.record("node0.nic.tx", "m", 2.0, 6.0, "net")
        rep = build_report("x", {}, env)
        assert rep.overlap["compute+net"] == pytest.approx(2.0)

    def test_detached_env(self):
        rep = build_report("x", {}, Environment())
        assert rep.lanes == {} and rep.metrics["counters"] == {}
        validate_report(rep.to_dict())  # still schema-valid

    def test_fault_tally_rides(self):
        rep = build_report("x", {}, Environment(), faults={"drop": 3})
        assert rep.faults == {"drop": 3}


class TestSerialization:
    def test_roundtrip(self):
        rep = build_report("bandwidth", {"nbytes": 1}, _sample_env())
        again = RunReport.from_dict(json.loads(rep.to_json()))
        assert again.to_json() == rep.to_json()

    def test_save_load(self, tmp_path):
        rep = build_report("x", {}, _sample_env())
        path = tmp_path / "r.json"
        rep.save(path)
        assert RunReport.load(path).to_json() == rep.to_json()

    def test_canonical_json_is_sorted(self):
        rep = build_report("x", {}, Environment())
        text = rep.to_json()
        assert json.loads(text) == json.loads(
            json.dumps(json.loads(text), sort_keys=True))

    def test_validation_rejects_missing_key(self):
        data = build_report("x", {}, Environment()).to_dict()
        del data["metrics"]
        with pytest.raises(ValueError, match="metrics"):
            validate_report(data)

    def test_validation_rejects_wrong_schema_version(self):
        data = build_report("x", {}, Environment()).to_dict()
        data["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            validate_report(data)

    def test_validation_rejects_wrong_type(self):
        data = build_report("x", {}, Environment()).to_dict()
        data["makespan_s"] = "fast"
        with pytest.raises(ValueError, match="makespan_s"):
            validate_report(data)


class TestSchemaV2:
    """The measurement-statistics schema bump and its v1 compat."""

    def _v1(self) -> dict:
        data = build_report("x", {}, Environment()).to_dict()
        data["schema_version"] = 1
        del data["stats"]  # v1 artifacts predate the field
        return data

    def test_v1_report_still_validates(self):
        validate_report(self._v1())

    def test_v1_report_loads_with_empty_stats(self):
        rep = RunReport.from_dict(self._v1())
        assert rep.stats == {}
        assert rep.schema_version == 1  # never silently upgraded

    def test_v2_requires_stats_key(self):
        data = build_report("x", {}, Environment()).to_dict()
        del data["stats"]
        with pytest.raises(ValueError, match="stats"):
            validate_report(data)

    def test_empty_stats_is_a_valid_single_shot(self):
        data = build_report("x", {}, Environment()).to_dict()
        assert data["stats"] == {}
        validate_report(data)

    def test_populated_stats_roundtrip(self):
        from repro.harness.stats import summarize_samples

        rep = build_report("x", {}, Environment())
        rep.stats = summarize_samples([1.0, 1.1, 0.9])
        validate_report(rep.to_dict())
        again = RunReport.from_dict(json.loads(rep.to_json()))
        assert again.stats == rep.stats

    def test_incomplete_stats_rejected(self):
        data = build_report("x", {}, Environment()).to_dict()
        data["stats"] = {"repetitions": 3}  # missing the CI fields
        with pytest.raises(ValueError, match="ci_low"):
            validate_report(data)

    def test_non_numeric_stats_rejected(self):
        from repro.harness.stats import summarize_samples

        data = build_report("x", {}, Environment()).to_dict()
        data["stats"] = dict(summarize_samples([1.0, 2.0]),
                             mean_s="fast")
        with pytest.raises(ValueError, match="mean_s"):
            validate_report(data)

    def test_diff_cli_accepts_v1_artifacts(self, tmp_path, capsys):
        """``python -m repro.obs diff`` must keep reading pre-stats
        reports (the backward-compat satellite)."""
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(self._v1(), sort_keys=True))
        assert obs_main(["diff", str(path), str(path)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_cli_compares_v1_against_v2(self, tmp_path):
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(self._v1(), sort_keys=True))
        v2 = tmp_path / "v2.json"
        build_report("x", {}, Environment()).save(v2)
        assert obs_main(["diff", str(v1), str(v2)]) == 1  # version field


class TestMerge:
    def test_metrics_sum_makespan_max(self):
        a = build_report("bw", {}, _sample_env())
        b = build_report("bw", {}, _sample_env())
        merged = a.merge(b)
        assert merged.metrics["counters"]["net.messages"] == 2
        assert merged.makespan_s == 3.0
        assert merged.lanes == {} and merged.overlap == {}
        assert merged.critical_path["by_category"]["net"] == \
            pytest.approx(2 * a.critical_path["by_category"]["net"])
        validate_report(merged.to_dict())

    def test_fault_tallies_sum(self):
        a = RunReport(kind="x", faults={"drop": 1})
        b = RunReport(kind="x", faults={"drop": 2, "corrupt": 1})
        assert a.merge(b).faults == {"drop": 3, "corrupt": 1}


class TestDiff:
    def test_identical(self):
        d = build_report("x", {}, _sample_env()).to_dict()
        assert diff_reports(d, d) == []

    def test_changed_added_removed(self):
        a = {"schema_version": 1, "m": {"x": 10, "gone": 1}}
        b = {"schema_version": 1, "m": {"x": 11, "new": 2}}
        lines = diff_reports(a, b)
        assert any(l.startswith("~ m.x: 10 -> 11") for l in lines)
        assert any(l.startswith("- m.gone") for l in lines)
        assert any(l.startswith("+ m.new") for l in lines)
        assert any("+10.0%" in l for l in lines)


class TestCli:
    def _write(self, tmp_path, name, env=None):
        rep = build_report("x", {}, env if env is not None
                           else Environment())
        path = tmp_path / name
        rep.save(path)
        return str(path)

    def test_identical_exit_0(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json")
        assert obs_main(["diff", a, a]) == 0
        assert "identical" in capsys.readouterr().out

    def test_different_exit_1(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json")
        b = self._write(tmp_path, "b.json", _sample_env())
        assert obs_main(["diff", a, b]) == 1
        assert "differing fields" in capsys.readouterr().out

    def test_invalid_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        a = self._write(tmp_path, "a.json")
        assert obs_main(["diff", str(bad), a]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_validate_diffs_arbitrary_json(self, tmp_path):
        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        x.write_text('{"a": 1}')
        y.write_text('{"a": 2}')
        assert obs_main(["diff", "--no-validate", str(x), str(y)]) == 1

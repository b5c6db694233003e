"""The CI-aware regression gate (repro.obs.regress) and its CLI.

Verdict semantics (overlapping CI => no-change, disjoint => directional)
over RunReports, the refusal of anything else, the documented exit codes of
``python -m repro.obs {diff,regress}`` (0 clean / 1 finding / 2 invalid
input), and the loud-failure contract of :meth:`RunReport.load`.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import RunReport
from repro.obs.__main__ import main
from repro.obs.regress import (RegressError, compare_artifacts,
                               load_artifact, mean_ci_label)


def make_report(makespan: float, stats: dict | None = None) -> dict:
    """A minimal schema-v2 RunReport dict."""
    return RunReport(kind="bandwidth", spec={"nbytes": 1},
                     makespan_s=makespan,
                     stats=dict(stats or {})).to_dict()


def stats_record(mean: float, half: float, n: int = 5) -> dict:
    return {"repetitions": n, "mean_s": mean, "ci_low": mean - half,
            "ci_high": mean + half, "rel_variance": 0.01,
            "confidence": 0.95}


def write(tmp_path, name: str, data: dict):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def bench(entries: dict) -> dict:
    return {"note": "test", "benchmarks": entries}


class TestCompareReports:
    def test_overlapping_cis_are_no_change(self, tmp_path):
        a = write(tmp_path, "a.json",
                  make_report(1.0, stats_record(1.0, 0.1)))
        b = write(tmp_path, "b.json",
                  make_report(1.05, stats_record(1.05, 0.1)))
        result = compare_artifacts(a, b)
        assert result["verdict"] == "ok"
        (finding,) = result["findings"]
        assert finding["verdict"] == "no-change"
        assert finding["method"] == "ci-overlap"

    def test_disjoint_slower_ci_is_regression(self, tmp_path):
        a = write(tmp_path, "a.json",
                  make_report(1.0, stats_record(1.0, 0.01)))
        b = write(tmp_path, "b.json",
                  make_report(1.5, stats_record(1.5, 0.01)))
        result = compare_artifacts(a, b)
        assert result["verdict"] == "regression"
        assert result["regressions"] == 1

    def test_disjoint_faster_ci_is_improvement(self, tmp_path):
        a = write(tmp_path, "a.json",
                  make_report(1.5, stats_record(1.5, 0.01)))
        b = write(tmp_path, "b.json",
                  make_report(1.0, stats_record(1.0, 0.01)))
        result = compare_artifacts(a, b)
        assert result["verdict"] == "ok"
        assert result["improvements"] == 1

    def test_single_shot_reports_use_threshold(self, tmp_path):
        a = write(tmp_path, "a.json", make_report(1.0))
        slow = write(tmp_path, "slow.json", make_report(1.2))
        close = write(tmp_path, "close.json", make_report(1.01))
        worse = compare_artifacts(a, slow)
        assert worse["verdict"] == "regression"
        assert worse["findings"][0]["method"] == "threshold"
        assert compare_artifacts(a, close)["verdict"] == "ok"
        # a looser threshold forgives the same slowdown
        assert compare_artifacts(a, slow,
                                 threshold=0.5)["verdict"] == "ok"


class TestCompareBench:
    """``BENCH_*.json`` records are frozen history: regress refuses
    them loudly instead of comparing them."""

    def test_bench_record_refused(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", make_report(1.0))
        b = write(tmp_path, "b.json",
                  bench({"fig8": {"run": {"mean_s": 1.0}}}))
        for pair in ((a, b), (b, b)):
            with pytest.raises(RegressError, match="BENCH record"):
                compare_artifacts(*pair)
            assert main(["regress", *map(str, pair)]) == 2
        assert "RunReports only" in capsys.readouterr().err

    def test_unrecognized_artifact_rejected(self, tmp_path):
        path = write(tmp_path, "x.json", {"something": "else"})
        with pytest.raises(RegressError, match="not a RunReport"):
            load_artifact(path)


class TestCliExitCodes:
    """The documented contract: 0 clean, 1 finding, 2 invalid input."""

    def test_regress_zero_on_same_artifact(self, tmp_path, capsys):
        a = write(tmp_path, "a.json",
                  make_report(1.0, stats_record(1.0, 0.1)))
        assert main(["regress", str(a), str(a)]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_regress_one_on_disjoint_slowdown(self, tmp_path, capsys):
        a = write(tmp_path, "a.json",
                  make_report(1.0, stats_record(1.0, 0.01)))
        b = write(tmp_path, "b.json",
                  make_report(2.0, stats_record(2.0, 0.01)))
        assert main(["regress", str(a), str(b)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_regress_two_on_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{torn")
        good = write(tmp_path, "good.json", make_report(1.0))
        assert main(["regress", str(bad), str(good)]) == 2
        assert "error" in capsys.readouterr().err

    def test_regress_json_output(self, tmp_path, capsys):
        a = write(tmp_path, "a.json",
                  make_report(1.0, stats_record(1.0, 0.01)))
        b = write(tmp_path, "b.json",
                  make_report(2.0, stats_record(2.0, 0.01)))
        assert main(["regress", "--json", str(a), str(b)]) == 1
        result = json.loads(capsys.readouterr().out)
        assert result["verdict"] == "regression"
        assert result["findings"][0]["metric"] == "makespan_s"

    def test_diff_zero_one_two(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", make_report(1.0))
        b = write(tmp_path, "b.json", make_report(2.0))
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["diff", str(a), str(a)]) == 0
        assert main(["diff", str(a), str(b)]) == 1
        assert main(["diff", str(a), str(bad)]) == 2
        capsys.readouterr()

    def test_timeline_two_on_empty_log(self, tmp_path, capsys):
        empty = tmp_path / "t.jsonl"
        empty.write_text("")
        assert main(["timeline", str(empty),
                     "-o", str(tmp_path / "out.json")]) == 2
        capsys.readouterr()


class TestRunReportLoad:
    """Corrupt artifacts must fail loudly, naming the offending path."""

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        report = RunReport(kind="bandwidth", makespan_s=1.0,
                           stats=stats_record(1.0, 0.1))
        report.save(path)
        assert RunReport.load(path).to_json() == report.to_json()

    def test_load_rejects_torn_json_with_path(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"schema_version": 2, "mak')
        with pytest.raises(ValueError, match="torn.json.*not valid JSON"):
            RunReport.load(path)

    def test_load_rejects_schema_violation_with_path(self, tmp_path):
        data = make_report(1.0)
        del data["metrics"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="bad.json.*metrics"):
            RunReport.load(path)

    def test_load_rejects_malformed_stats(self, tmp_path):
        data = make_report(1.0, {"mean_s": "fast"})
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="stats"):
            RunReport.load(path)


class TestMeanCiLabel:
    def test_label_formats_mean_half_width_and_n(self):
        label = mean_ci_label(stats_record(0.0015, 0.0002, n=5))
        assert label == "0.0015 ± 0.0002 s (n=5)"

    def test_empty_or_invalid_stats_yield_none(self):
        assert mean_ci_label({}) is None
        assert mean_ci_label({"mean_s": "x"}) is None

"""Bandwidth microbenchmark tests (the Fig 8 generator)."""

import pytest

from repro.apps.pingpong import (
    BandwidthResult,
    bandwidth_point,
    bandwidth_specs,
    measure_bandwidth,
)
from repro.errors import ConfigurationError
from repro.harness.parallel import sweep


class TestMeasureBandwidth:
    def test_basic_measurement(self, cichlid_preset):
        r = measure_bandwidth(cichlid_preset, 1 << 20, "pinned", repeats=2)
        assert isinstance(r, BandwidthResult)
        assert 0 < r.bandwidth < cichlid_preset.cluster.fabric.nic.bandwidth

    def test_bandwidth_below_wire_limit(self, ricc_preset):
        for mode in ("pinned", "mapped"):
            r = measure_bandwidth(ricc_preset, 4 << 20, mode, repeats=2)
            assert r.bandwidth <= ricc_preset.cluster.fabric.nic.bandwidth

    def test_auto_mode_recorded(self, cichlid_preset):
        r = measure_bandwidth(cichlid_preset, 1 << 16, None, repeats=1)
        assert r.mode == "auto"

    def test_repeats_increase_total_time_linearly(self, cichlid_preset):
        r1 = measure_bandwidth(cichlid_preset, 1 << 20, "pinned", repeats=1)
        r4 = measure_bandwidth(cichlid_preset, 1 << 20, "pinned", repeats=4)
        assert r4.seconds == pytest.approx(4 * r1.seconds, rel=0.25)

    def test_invalid_args(self, cichlid_preset):
        with pytest.raises(ConfigurationError):
            measure_bandwidth(cichlid_preset, 0)
        with pytest.raises(ConfigurationError):
            measure_bandwidth(cichlid_preset, 100, repeats=0)


def _fig8_rows(system, **grid):
    """The Fig 8 grid's rows, run serially with no result store."""
    return sweep(bandwidth_point, bandwidth_specs(system, **grid))


def _bandwidth(row):
    return row["nbytes"] * row["repeats"] / row["seconds"]


class TestSweep:
    def test_sweep_covers_all_modes(self):
        rows = _fig8_rows("cichlid", sizes=[1 << 18, 4 << 20],
                          pipeline_blocks=[1 << 20], repeats=1)
        modes = {r["mode"] for r in rows}
        assert modes == {"pinned", "mapped", "pipelined", "auto"}

    def test_pipeline_block_never_exceeds_message(self):
        rows = _fig8_rows("ricc", sizes=[1 << 18, 8 << 20],
                          pipeline_blocks=[1 << 20, 16 << 20], repeats=1)
        for r in rows:
            if r["mode"] == "pipelined":
                assert r["block"] <= r["nbytes"]

    def test_auto_never_far_from_best(self):
        """§V.B: the selector's choice tracks the best engine closely."""
        for nbytes in (1 << 18, 16 << 20):
            rows = _fig8_rows("ricc", sizes=[nbytes],
                              pipeline_blocks=[1 << 20, 4 << 20],
                              repeats=2)
            best = max(_bandwidth(r) for r in rows if r["mode"] != "auto")
            auto = next(_bandwidth(r) for r in rows if r["mode"] == "auto")
            assert auto >= 0.9 * best

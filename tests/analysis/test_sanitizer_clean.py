"""Tier-1 gate: every example script and every application driver runs
sanitizer-clean (zero findings, warnings included)."""

import runpy
from pathlib import Path

import pytest

from repro.analysis import autosanitize
from repro.systems import cichlid, ricc

ROOT = Path(__file__).resolve().parent.parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: the heavyweight sweeps; their tier-1 smoke coverage lives in
#: tests/test_examples.py — sanitizing the fast ones suffices here
SKIP = {"autotune_survey.py", "himeno_2d.py", "cg_solver.py"}


@pytest.mark.parametrize("script",
                         [s for s in EXAMPLES if s.name not in SKIP],
                         ids=lambda p: p.name)
def test_example_sanitizer_clean(script, capsys):
    with autosanitize() as session:
        runpy.run_path(str(script), run_name="__main__")
    capsys.readouterr()
    assert session.report.ok, session.report.render()
    assert session.report.stats["environments"] >= 1


class TestAppsSanitizerClean:
    def test_pingpong(self):
        from repro.apps.pingpong import measure_bandwidth
        with autosanitize() as session:
            measure_bandwidth(cichlid(), 1 << 20, "pinned", repeats=1)
        assert session.report.ok, session.report.render()

    @pytest.mark.parametrize("implementation", ["serial", "hand-optimized",
                                                "gpu-aware-mpi", "clmpi"])
    @pytest.mark.parametrize("preset", [cichlid, ricc],
                             ids=lambda p: p.__name__)
    def test_himeno(self, preset, implementation):
        """At 3 nodes the middle rank exchanges in both phases, so both
        halo exchanges of the A/B schedule run under the sanitizer."""
        from repro.apps.himeno import HimenoConfig, run_himeno
        cfg = HimenoConfig(size="XS", iterations=2)
        with autosanitize() as session:
            run_himeno(preset(), 3, implementation, cfg)
        assert session.report.ok, session.report.render()

    def test_cg(self):
        from repro.apps.cg import CgConfig, run_cg
        cfg = CgConfig(grid=(8, 4, 4), max_iters=30, tol=1e-6)
        with autosanitize() as session:
            run_cg(cichlid(), 2, cfg)
        assert session.report.ok, session.report.render()

    def test_nanopowder(self):
        from repro.apps.nanopowder import NanoConfig, run_nanopowder
        cfg = NanoConfig.test_scale(steps=2, cells=4)
        with autosanitize() as session:
            run_nanopowder(cichlid(), 2, "clmpi", cfg)
        assert session.report.ok, session.report.render()


class TestAutosanitize:
    def test_restores_environment_init(self):
        from repro.sim import Environment
        original = Environment.__init__
        with autosanitize():
            assert Environment.__init__ is not original
            env = Environment()
            assert env.probe is not None
        assert Environment.__init__ is original
        assert env.probe is None

    def test_merges_multiple_environments(self):
        from repro.sim import Environment
        with autosanitize() as session:
            Environment()
            Environment()
        assert session.report.stats["environments"] == 2

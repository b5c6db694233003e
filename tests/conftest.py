"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.launcher import ClusterApp
from repro.mpi.world import MpiWorld
from repro.sim import Environment, Tracer
from repro.systems import cichlid, ricc


# Hypothesis profiles.  ``tier1`` (the default) draws the same examples
# on every run: the random source is derived from each test, and no
# example database replays earlier failures.  ``deep`` explores freshly
# each run and raises the example count of tests that do not fix their
# own; select it with REPRO_HYPOTHESIS_PROFILE=deep.  A test's own
# ``max_examples`` holds under both.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("deep", max_examples=1000)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "tier1"))


def _live_children() -> list[str]:
    """This process's live (not zombie) children, as ``pid command``."""
    multiprocessing.active_children()  # joins finished workers
    me, found = str(os.getpid()), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            head, _, tail = stat.read_text().rpartition(")")
        except OSError:  # the process exited meanwhile
            continue
        state, ppid = tail.split()[:2]
        if ppid == me and state != "Z":
            found.append(head.replace(" (", " ", 1))
    return found


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if a test left a child process running (a worker
    process, daemon or agent that outlived its owner).  Children that
    are already exiting get a few seconds to finish."""
    deadline = time.monotonic() + 5.0
    while (left := _live_children()) and time.monotonic() < deadline:
        time.sleep(0.05)
    if left:
        reporter = session.config.pluginmanager.get_plugin(
            "terminalreporter")
        if reporter is not None:
            reporter.write("\n")
            reporter.write_sep("=", "child processes left running",
                               red=True)
            for child in left:
                reporter.write_line(child)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the harness result cache at a per-test directory.

    Keeps test runs from reading or polluting the developer's
    ``.repro_cache/`` in the repository root.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def traced_env() -> Environment:
    e = Environment()
    e.tracer = Tracer()
    return e


@pytest.fixture
def cichlid_preset():
    return cichlid()


@pytest.fixture
def ricc_preset():
    return ricc()


@pytest.fixture
def world2(cichlid_preset) -> MpiWorld:
    """A 2-rank MPI world on Cichlid."""
    return MpiWorld(cichlid_preset, num_nodes=2)


@pytest.fixture
def world4(cichlid_preset) -> MpiWorld:
    """A 4-rank MPI world on Cichlid."""
    return MpiWorld(cichlid_preset, num_nodes=4)


@pytest.fixture
def app2(cichlid_preset) -> ClusterApp:
    """A 2-rank full-stack cluster app on Cichlid."""
    return ClusterApp(cichlid_preset, 2)


def run_ranks(world: MpiWorld, main, *args, **kwargs):
    """Run a rank coroutine on every rank of a world; return values."""
    return world.run(main, *args, **kwargs)


def payload(nbytes: int, seed: int = 0) -> np.ndarray:
    """Deterministic byte payload."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)

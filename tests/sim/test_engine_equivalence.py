"""Coroutine vs. mesoscale (vectorized) engine byte-identity matrix.

The vectorized engine's contract is not "close": every row it produces
must serialize to the *same canonical JSON* as the coroutine engine's —
same IEEE-754 bits, down to the last ulp.  These tests pin that for the
three timing-only workloads that have mesoscale models (pingpong,
Himeno, the collective-load scenario) at 4 and 64 ranks, the collective
load also at 7; the 1024-rank cells run the coroutine oracle for several
seconds each and are gated behind ``REPRO_HEAVY_TESTS=1``.

Run just this matrix with ``pytest -m engine_smoke``.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.apps.collective_load import collective_load
from repro.apps.himeno import HimenoConfig, run_himeno
from repro.apps.pingpong import bandwidth_point, measure_bandwidth
from repro.sim import EngineError
from repro.systems import custom, get_system
from repro.systems import presets

pytestmark = pytest.mark.engine_smoke

heavy = pytest.mark.skipif(
    os.environ.get("REPRO_HEAVY_TESTS") != "1",
    reason="1024-rank coroutine oracle takes seconds per cell; "
           "set REPRO_HEAVY_TESTS=1 to run")

RANKS = [4, 64, pytest.param(1024, marks=heavy)]
SYSTEMS = ["cichlid", "ricc"]


def canon(obj) -> str:
    """Canonical JSON — the byte-identity yardstick."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _system(name: str, ranks: int):
    return get_system(name, max_nodes=max(ranks, 4))


# -- pingpong ---------------------------------------------------------------

@pytest.mark.parametrize("ranks", RANKS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_pingpong_rows_identical(system, ranks):
    """P/2 concurrent pairs, auto + forced engines, two message sizes."""
    for nbytes in (1 << 16, 1 << 22):
        for mode in (None, "pinned"):
            spec = {"system": system, "nbytes": nbytes, "mode": mode,
                    "block": None, "repeats": 2, "ranks": ranks}
            a = bandwidth_point(dict(spec))
            b = bandwidth_point(dict(spec, engine="vectorized"))
            assert canon(a) == canon(b), (system, ranks, nbytes, mode)


# -- pingpong on generated presets ------------------------------------------

@st.composite
def _generated_preset(draw):
    """A valid ``systems.custom()`` preset with drawn wire and PCIe
    constants: the shared timing rules under arbitrary operands."""
    p = custom("gen",
               net_bandwidth=draw(st.floats(5e7, 5e9), label="net_bw"),
               net_latency=draw(st.floats(1e-7, 1e-4), label="net_lat"),
               gpu_gflops=50.0,
               pinned_bandwidth=draw(st.floats(5e8, 8e9), label="pinned"),
               mapped_bandwidth=draw(st.floats(1e8, 6e9), label="mapped"),
               copy_engines=draw(st.sampled_from([1, 2]), label="engines"))
    pcie = replace(p.cluster.node.pcie,
                   copy_latency=draw(st.floats(0.0, 5e-5), label="copy_lat"),
                   mapped_latency=draw(st.floats(0.0, 1e-5),
                                       label="mapped_lat"))
    fabric = replace(p.cluster.fabric,
                     switch_latency=draw(st.floats(0.0, 5e-6),
                                         label="switch_lat"))
    cluster = replace(p.cluster, fabric=fabric,
                      node=replace(p.cluster.node, pcie=pcie))
    return replace(p, cluster=cluster)


@seed(2013)
@settings(max_examples=250, deadline=None)
@given(st.data())
def test_pingpong_rows_identical_on_generated_presets(data):
    """Both engines' ``bandwidth_point`` rows serialize identically on a
    generated system, or the mesoscale engine refuses the point."""
    preset = data.draw(_generated_preset(), label="preset")
    threshold = preset.mpi_eager_threshold
    nbytes = data.draw(st.one_of(st.integers(1, threshold),
                                 st.integers(threshold + 1, 4 * threshold)),
                       label="nbytes")
    mode = data.draw(st.sampled_from([None, "pinned", "mapped",
                                      "pipelined"]), label="mode")
    block = None
    if mode == "pipelined":
        block = data.draw(st.integers(-(-nbytes // 6), nbytes),
                          label="block")
    spec = {"system": preset.name, "nbytes": nbytes, "mode": mode,
            "block": block, "repeats": data.draw(st.integers(1, 2)),
            "ranks": data.draw(st.integers(2, 8), label="ranks")}
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(presets.SYSTEMS, preset.name, lambda **_: preset)
        a = bandwidth_point(dict(spec))
        try:
            b = bandwidth_point(dict(spec, engine="vectorized",
                                     strict_engine=True))
        except EngineError:
            return
    assert canon(a) == canon(b), spec


# -- himeno -----------------------------------------------------------------

def _himeno_row(system, ranks, impl, engine):
    # mi scales with the rank count so the decomposition stays valid
    # (M-size tops out at 62 ranks); small j/k planes keep it fast
    cfg = HimenoConfig(size="custom", dims=(2 * ranks + 2, 33, 33),
                       iterations=2)
    res = run_himeno(_system(system, ranks), ranks, impl, cfg,
                     functional=False, engine=engine)
    return {"time": res.time, "gflops": res.gflops,
            "kernel_times": res.kernel_times,
            "gosa_per_iter": res.gosa_per_iter}


@pytest.mark.parametrize("ranks", RANKS)
@pytest.mark.parametrize("impl", ["serial", "clmpi"])
@pytest.mark.parametrize("system", SYSTEMS)
def test_himeno_rows_identical(system, impl, ranks):
    a = _himeno_row(system, ranks, impl, "coroutine")
    b = _himeno_row(system, ranks, impl, "vectorized")
    assert canon(a) == canon(b), (system, impl, ranks)


def test_himeno_odd_mapped_clmpi_falls_back():
    """The one configuration the mesoscale model refuses (odd-rank
    mapped-mode clmpi: the coroutine heap's exact-tie order is not
    reproducible) falls back loudly and still returns oracle rows."""
    with pytest.warns(RuntimeWarning, match="falling back"):
        b = _himeno_row("cichlid", 3, "clmpi", "vectorized")
    a = _himeno_row("cichlid", 3, "clmpi", "coroutine")
    assert canon(a) == canon(b)


# -- collective-load scenario ----------------------------------------------

# 7 ranks: reduce parents with missing children, and barrier rounds whose
# distance does not divide the rank count
@pytest.mark.parametrize("ranks", [4, 7] + RANKS[1:])
@pytest.mark.parametrize("system", SYSTEMS)
def test_collective_rows_identical(system, ranks):
    a = collective_load(_system(system, ranks), ranks, rounds=3,
                        engine="coroutine")
    b = collective_load(_system(system, ranks), ranks, rounds=3,
                        engine="vectorized")
    assert canon(a) == canon(b), (system, ranks)


# -- guard rails ------------------------------------------------------------

def test_vectorized_refuses_functional_himeno():
    with pytest.raises(EngineError, match="timing-only"):
        run_himeno(get_system("cichlid"), 2, "clmpi",
                   HimenoConfig(size="XXS", iterations=1),
                   functional=True, engine="vectorized")


def test_vectorized_refuses_functional_pingpong():
    with pytest.raises(EngineError, match="timing-only"):
        measure_bandwidth(get_system("cichlid"), 1 << 16,
                          functional=True, engine="vectorized")


def test_unknown_engine_rejected():
    with pytest.raises(EngineError, match="unknown engine"):
        run_himeno(get_system("cichlid"), 2, "clmpi",
                   HimenoConfig(size="XXS", iterations=1),
                   functional=False, engine="warp")


# -- fallback specificity + strict mode -------------------------------------

def test_pingpong_fallback_warning_names_the_feature():
    """The RuntimeWarning must say *which* feature forced the coroutine
    fallback, not a generic laundry list."""
    with pytest.warns(RuntimeWarning, match="fault injection"):
        measure_bandwidth(get_system("cichlid"), 1 << 16, "pinned",
                          faults={"seed": 1, "events": []},
                          engine="vectorized")
    with pytest.warns(RuntimeWarning, match="observability hooks"):
        measure_bandwidth(get_system("cichlid"), 1 << 16, "pinned",
                          obs=True, engine="vectorized")
    with pytest.warns(RuntimeWarning, match="ULFM recovery"):
        measure_bandwidth(get_system("cichlid"), 1 << 16, "pinned",
                          ft=True, engine="vectorized")


def test_pingpong_odd_ranks_fall_back_with_reason():
    with pytest.warns(RuntimeWarning, match="even rank count"):
        r = measure_bandwidth(get_system("cichlid", max_nodes=3),
                              1 << 16, "pinned", ranks=3,
                              engine="vectorized")
    assert r.seconds > 0  # the coroutine fallback produced the row


def test_pingpong_strict_engine_raises_instead_of_falling_back():
    with pytest.raises(EngineError, match="strict_engine"):
        measure_bandwidth(get_system("cichlid"), 1 << 16, "pinned",
                          obs=True, engine="vectorized",
                          strict_engine=True)
    with pytest.raises(EngineError, match="even rank count"):
        measure_bandwidth(get_system("cichlid", max_nodes=3), 1 << 16,
                          "pinned", ranks=3, engine="vectorized",
                          strict_engine=True)


def test_himeno_strict_engine_raises_instead_of_falling_back():
    cfg = HimenoConfig(size="XXS", iterations=1)
    with pytest.raises(EngineError, match="strict_engine"):
        run_himeno(get_system("cichlid"), 2, "clmpi", cfg,
                   functional=False, trace=True, engine="vectorized",
                   strict_engine=True)
    # odd-rank mapped clmpi: the model's own refusal propagates
    with pytest.raises(EngineError):
        run_himeno(_system("cichlid", 3), 3, "clmpi",
                   HimenoConfig(size="custom", dims=(8, 33, 33),
                                iterations=2),
                   functional=False, engine="vectorized",
                   strict_engine=True)


def test_strict_engine_never_fires_on_supported_points():
    """strict mode is free when the vectorized model covers the point."""
    r = measure_bandwidth(get_system("cichlid"), 1 << 16, "pinned",
                          engine="vectorized", strict_engine=True)
    assert r.seconds > 0


def test_bandwidth_point_threads_strict_engine():
    from repro.apps.pingpong import bandwidth_point

    with pytest.raises(EngineError, match="strict_engine"):
        bandwidth_point({"system": "cichlid", "nbytes": 1 << 16,
                         "mode": "pinned", "obs": True,
                         "engine": "vectorized", "strict_engine": True})

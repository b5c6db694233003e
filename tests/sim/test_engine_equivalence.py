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
from hypothesis import example, given, seed, settings, strategies as st

from repro.apps.collective_load import collective_load
from repro.apps.himeno import IMPLEMENTATIONS, HimenoConfig, run_himeno
from repro.apps.himeno.vectorized import VECTORIZED_IMPLEMENTATIONS
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
            b = bandwidth_point(dict(spec, engine="vectorized"))
        except EngineError:
            return
    assert canon(a) == canon(b), spec


def _auto_is_coroutine(row, refuses: bool) -> None:
    """``row(engine)`` under ``auto`` is the coroutine row.  On an input
    the replay refuses by rule, ``vectorized`` raises; on any other it
    gives the same row or refuses a tie it cannot order."""
    oracle = row("coroutine")
    assert row("auto") == oracle
    try:
        replayed = row("vectorized")
    except EngineError:
        return
    assert not refuses, "the replay accepted an input it must refuse"
    assert replayed == oracle


#: a third of the generated points are functional (payload-moving)
_FUNCTIONAL = st.sampled_from([False, False, True])


@seed(2013)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_auto_pingpong_rows_equal_coroutine_on_generated_presets(data):
    """``auto`` gives the coroutine pingpong row in every mode; functional
    and odd-rank points are refused by ``vectorized``."""
    preset = data.draw(_generated_preset(), label="preset")
    nbytes = data.draw(st.integers(1, 4 * preset.mpi_eager_threshold),
                       label="nbytes")
    mode = data.draw(st.sampled_from([None, "pinned", "mapped",
                                      "pipelined"]), label="mode")
    block = None
    if mode == "pipelined":
        block = data.draw(st.integers(-(-nbytes // 6), nbytes),
                          label="block")
    spec = {"system": preset.name, "nbytes": nbytes, "mode": mode,
            "block": block, "repeats": 1,
            "functional": data.draw(_FUNCTIONAL, label="functional"),
            "ranks": data.draw(st.integers(2, 6), label="ranks")}

    def row(engine):
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(presets.SYSTEMS, preset.name, lambda **_: preset)
            return canon(bandwidth_point(dict(spec, engine=engine)))

    _auto_is_coroutine(row, spec["functional"] or spec["ranks"] % 2 == 1)


@seed(2013)
@settings(max_examples=100, deadline=None)
@given(preset=_generated_preset(),
       impl=st.sampled_from(sorted(IMPLEMENTATIONS)),
       ranks=st.integers(1, 6),
       force_mode=st.sampled_from([None, "pinned", "mapped", "pipelined"]),
       plane=st.sampled_from([9, 33]), functional=_FUNCTIONAL,
       iterations=st.sampled_from([1, 2]))
@example(preset=presets.cichlid(), impl="clmpi", ranks=3,
         force_mode="mapped", plane=9, functional=False, iterations=2)
@example(preset=presets.cichlid(), impl="clmpi", ranks=2,
         force_mode=None, plane=9, functional=True, iterations=2)
@example(preset=presets.cichlid(), impl="serial", ranks=3,
         force_mode=None, plane=9, functional=False, iterations=1)
def test_auto_himeno_rows_equal_coroutine_on_generated_presets(
        preset, impl, ranks, force_mode, plane, functional, iterations):
    """``auto`` gives the coroutine Himeno row in all four
    implementations.  ``vectorized`` refuses functional runs, the
    implementations and the pipelined planes it has no model for, and
    odd rank counts of 3 or more (the first and last examples)."""
    cfg = HimenoConfig(size="custom", dims=(2 * ranks + 2, plane, plane),
                       iterations=iterations)

    def row(engine):
        res = run_himeno(preset, ranks, impl, cfg, functional=functional,
                         force_mode=force_mode, engine=engine)
        return canon([res.time, res.gflops, res.kernel_times,
                      res.gosa_per_iter])

    _auto_is_coroutine(row, functional
                       or impl not in VECTORIZED_IMPLEMENTATIONS
                       or force_mode == "pipelined"
                       or (ranks >= 3 and ranks % 2 == 1))


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


@pytest.mark.parametrize("ranks", [3, 7])
@pytest.mark.parametrize("impl", ["serial", "clmpi"])
def test_himeno_odd_ranks_fall_back(impl, ranks):
    """The replay refuses odd rank counts of 3 or more by one rule (rank
    P-1 and rank 0 both run ahead of the phase batches there):
    ``vectorized`` raises naming it, and ``auto`` returns the coroutine
    row."""
    with pytest.raises(EngineError, match="odd rank counts"):
        _himeno_row("cichlid", ranks, impl, "vectorized")
    a = _himeno_row("cichlid", ranks, impl, "coroutine")
    assert canon(_himeno_row("cichlid", ranks, impl, "auto")) == canon(a)


def test_himeno_odd_ranks_refused_not_silently_wrong():
    """One iteration of serial Himeno on 3 ranks: the replay used to
    return a row that differs from the coroutine one (a time of
    1.47886e-3 s against 1.42679e-3 s), under ``auto`` as well."""
    cfg = HimenoConfig(size="custom", dims=(8, 9, 9), iterations=1)

    def row(engine):
        res = run_himeno(get_system("cichlid"), 3, "serial", cfg,
                         functional=False, engine=engine)
        return canon([res.time, res.gflops, res.kernel_times,
                      res.gosa_per_iter])

    with pytest.raises(EngineError, match="odd rank counts"):
        row("vectorized")
    assert row("auto") == row("coroutine")


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


# -- refusals: ``vectorized`` raises, ``auto`` runs the coroutine program --

def _pingpong_row(engine, **spec):
    return bandwidth_point(dict({"system": "cichlid", "nbytes": 1 << 16,
                                 "mode": "pinned"}, engine=engine, **spec))


def test_pingpong_refusal_names_the_feature():
    """The refusal says *which* requested feature the replay does not
    model, not a generic laundry list."""
    features = {"fault injection": {"faults": {"seed": 1, "events": []}},
                "observability hooks": {"obs": True},
                "ULFM recovery": {"ft": True}}
    for feature, spec in features.items():
        with pytest.raises(EngineError, match=feature) as info:
            _pingpong_row("vectorized", **spec)
        others = [f for f in features if f != feature]
        assert not any(f in str(info.value) for f in others)
        assert (canon(_pingpong_row("auto", **spec))
                == canon(_pingpong_row("coroutine", **spec)))


def test_pingpong_odd_ranks_fall_back_with_reason():
    with pytest.raises(EngineError, match="even rank count"):
        _pingpong_row("vectorized", ranks=3)
    row = _pingpong_row("auto", ranks=3)
    assert row["seconds"] > 0
    assert canon(row) == canon(_pingpong_row("coroutine", ranks=3))


def test_pingpong_refusal_names_every_requested_feature():
    spec = {"obs": True, "faults": {"seed": 1, "events": []}}
    with pytest.raises(EngineError,
                       match="fault injection.*observability hooks"):
        _pingpong_row("vectorized", **spec)
    assert (canon(_pingpong_row("auto", **spec))
            == canon(_pingpong_row("coroutine", **spec)))


def test_himeno_refusal_names_the_feature():
    system = get_system("cichlid")
    cfg = HimenoConfig(size="XXS", iterations=1)
    cases = {"trace": ("clmpi", {"trace": True}),
             "metrics": ("clmpi", {"metrics": True}),
             "faults": ("clmpi", {"faults": {"seed": 1, "events": []}}),
             "implementation='hand-optimized'": ("hand-optimized", {}),
             "implementation='gpu-aware-mpi'": ("gpu-aware-mpi", {}),
             "force_mode='pipelined'": ("clmpi",
                                        {"force_mode": "pipelined"})}

    def row(engine, impl, kw):
        res = run_himeno(system, 2, impl, cfg, functional=False,
                         engine=engine, **kw)
        return canon([res.time, res.kernel_times, res.gosa_per_iter])

    for feature, (impl, kw) in cases.items():
        with pytest.raises(EngineError) as info:
            row("vectorized", impl, kw)
        assert f"does not support {feature}" in str(info.value)
        assert row("auto", impl, kw) == row("coroutine", impl, kw)


def test_vectorized_and_auto_replay_supported_points(monkeypatch):
    """Where the replay models the point, ``auto`` is the replay: no
    coroutine program runs, and the row is the coroutine row."""
    from repro.apps import pingpong

    oracle = _pingpong_row("coroutine")

    def no_coroutines(*args, **kwargs):
        raise AssertionError("the coroutine program ran")

    monkeypatch.setattr(pingpong, "ClusterApp", no_coroutines)
    assert canon(_pingpong_row("vectorized")) == canon(oracle)
    assert canon(_pingpong_row("auto")) == canon(oracle)


def test_bandwidth_point_threads_the_engine():
    """The spec's ``engine`` reaches the point; a spec that still carries
    the old ``strict_engine`` key is accepted, and the key changes
    nothing."""
    from repro.harness.fig9 import himeno_point

    with pytest.raises(EngineError, match="observability hooks"):
        _pingpong_row("vectorized", obs=True)
    with pytest.raises(EngineError, match="observability hooks"):
        _pingpong_row("vectorized", obs=True, strict_engine=True)
    assert (canon(_pingpong_row("vectorized", strict_engine=True))
            == canon(_pingpong_row("coroutine")))
    spec = {"system": "cichlid", "nodes": 2, "impl": "clmpi",
            "size": "XXS", "iterations": 1}
    assert (canon(himeno_point(dict(spec, engine="vectorized",
                                    strict_engine=True)))
            == canon(himeno_point(spec)))

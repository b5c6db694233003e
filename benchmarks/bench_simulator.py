"""Meta-benchmarks: the simulator's own performance.

Not paper results — these quantify what a sweep costs in *real* time, per
the optimizing-code discipline: measure before trusting.  Exact guards
beside them check that a detached run enters no observer, fault or
schedule-policy code and leaves no hot-path object to the cycle
collector, and that mesoscale points never call ``numpy.unique``.
"""

import gc
import sys

import numpy as np
import pytest

from repro.mpi import MpiWorld
from repro.sim import Environment, Resource
from repro.systems import cichlid, ricc


def test_engine_event_throughput(benchmark):
    """Raw calendar throughput: schedule/fire 50k timeout events."""
    def run():
        env = Environment()

        def ticker(env, n):
            for _ in range(n):
                yield env.timeout(1e-6)

        for _ in range(5):
            env.process(ticker(env, 10_000))
        env.run()
        return env.now

    result = benchmark(run)
    assert result > 0


def test_resource_contention_throughput(benchmark):
    """10k acquire/release cycles through a contended resource."""
    def run():
        env = Environment()
        res = Resource(env, capacity=2)

        def user(env, n):
            for _ in range(n):
                grant = yield from res.acquire()
                yield env.timeout(1e-6)
                res.release(grant)

        for _ in range(10):
            env.process(user(env, 1_000))
        env.run()
        return env.now

    assert benchmark(run) > 0


def test_mpi_message_rate(benchmark):
    """2k small messages through the full MPI stack."""
    def run():
        world = MpiWorld(cichlid(), 2)
        buf = np.zeros(64, dtype=np.uint8)

        def main(comm):
            for i in range(1_000):
                if comm.rank == 0:
                    yield from comm.send(buf, 1, tag=i)
                else:
                    yield from comm.recv(buf, 0, tag=i)

        world.run(main)
        return world.env.now

    assert benchmark(run) > 0


def _event_loop_run(metrics: bool, profile=None) -> float:
    """One 20k-event calendar drain, with or without a registry.

    ``profile`` is installed with ``sys.setprofile`` around the drain
    itself (environment construction excluded).
    """
    env = Environment()
    if metrics:
        from repro.obs import MetricsRegistry
        MetricsRegistry().attach(env)

    def ticker(env, n):
        for _ in range(n):
            yield env.timeout(1e-6)

    for _ in range(2):
        env.process(ticker(env, 10_000))
    _run_profiled(env.run, profile)
    return env.now


def _run_profiled(run, profile) -> None:
    """``run()``, under ``sys.setprofile(profile)`` when one is given."""
    if profile is None:
        run()
        return
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)


def test_metrics_detached_event_throughput(benchmark):
    """Event throughput with ``env.probe is None`` — the configuration
    every figure run uses unless --metrics/--report is passed."""
    assert benchmark(_event_loop_run, False) > 0


def test_metrics_attached_event_throughput(benchmark):
    """Same calendar drain with a registry attached (counts every
    schedule/fire), to quantify what observability costs when on."""
    assert benchmark(_event_loop_run, True) > 0


def _mpi_loop_run(faults: bool, profile=None) -> float:
    """1k-message MPI loop with or without the fault/FT stack attached.

    ``profile`` is installed with ``sys.setprofile`` around the run
    itself (world construction excluded).
    """
    from repro.faults import FaultPlan

    world = MpiWorld(cichlid(), 2,
                     faults=FaultPlan() if faults else None)
    buf = np.zeros(64, dtype=np.uint8)

    def main(comm):
        for i in range(500):
            if comm.rank == 0:
                yield from comm.send(buf, 1, tag=i)
            else:
                yield from comm.recv(buf, 0, tag=i)

    _run_profiled(lambda: world.run(main), profile)
    return world.env.now


def test_ft_detached_message_rate(benchmark):
    """Message rate with ``env.faults is None`` — no injector, and the
    ULFM failure detector is never even instantiated."""
    assert benchmark(_mpi_loop_run, False) > 0


def test_ft_attached_message_rate(benchmark):
    """Same loop under an (empty) fault plan: the injector consults its
    fate tables and the failure detector becomes reachable."""
    assert benchmark(_mpi_loop_run, True) > 0


def _clmpi_point_run(point: str, profile=None) -> float:
    """One timing-only coroutine point through OpenCL, PCIe, GPU and
    clMPI: a pipelined Fig 8 bandwidth point (``"pipelined"``) or a
    4-rank clMPI Himeno point (``"himeno"``), nothing attached.

    ``profile`` is installed with ``sys.setprofile`` around the run
    itself (cluster construction excluded).
    """
    from repro.apps.himeno import IMPLEMENTATIONS, HimenoConfig
    from repro.apps.pingpong import _pingpong_main
    from repro.launcher import ClusterApp

    if point == "pipelined":
        app = ClusterApp(cichlid(), 2, functional=False,
                         force_mode="pipelined", force_block=1 << 20)
        args = (_pingpong_main, 4 << 20, 2)
    else:
        app = ClusterApp(cichlid(), 4, functional=False)
        args = (IMPLEMENTATIONS["clmpi"],
                HimenoConfig(size="S", iterations=2), False)
    _run_profiled(lambda: app.run(*args), profile)
    return app.env.now


#: observer, fault and failure-detector modules a detached run must
#: never enter
_ATTACHMENT_MODULES = ("repro.obs", "repro.analysis", "repro.faults",
                       "repro.mpi.ft", "repro.sim.trace",
                       "repro.sim.probe")

#: the paths only a schedule policy routes through, as
#: ``module.function``: the policed run loop and deferred matching
_POLICED_FUNCTIONS = frozenset({"repro.sim.core._run_scheduled",
                                "repro.mpi.comm._schedule_flush",
                                "repro.mpi.comm._flush_endpoint"})


def _attachment_calls(run) -> list[str]:
    """Every function of the attachment modules, and every policed
    function, that ``run(profile=...)`` enters, as sorted
    ``module.function`` names."""
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            name = f"{module}.{frame.f_code.co_name}"
            if name in _POLICED_FUNCTIONS or any(
                    module == m or module.startswith(m + ".")
                    for m in _ATTACHMENT_MODULES):
                entered.add(name)

    assert run(profile=profile) > 0
    return sorted(entered)


def test_mpi_loop_detached_enters_no_attachment_code():
    """Exact detached-cost guard: with no tracer, monitor, metrics
    registry, fault plan or schedule policy attached, the 1k-message MPI
    loop must not enter one function of the observer, fault or
    failure-detector modules, nor the policed run loop or deferred
    matching.  Unlike a wall-clock comparison this cannot be hidden by
    noise: a single stray call fails it."""
    entered = _attachment_calls(lambda profile: _mpi_loop_run(
        False, profile=profile))
    assert not entered, f"detached MPI loop entered {entered}"


def test_event_loop_detached_enters_no_attachment_code():
    """The same guard on a detached 20k-event calendar drain: it must
    enter no attachment module and no policed path."""
    entered = _attachment_calls(lambda profile: _event_loop_run(
        False, profile=profile))
    assert not entered, f"detached event loop entered {entered}"


@pytest.mark.parametrize("point", ["pipelined", "himeno"])
def test_clmpi_points_detached_enter_no_attachment_code(point):
    """The same guard over the OpenCL event/queue, PCIe, GPU and clMPI
    instrumentation sites, which the MPI loop never reaches."""
    entered = _attachment_calls(lambda profile: _clmpi_point_run(
        point, profile=profile))
    assert not entered, f"detached {point} point entered {entered}"


def _cyclic_garbage(run) -> list:
    """The objects ``run()`` leaves for the cycle collector.

    Under ``gc.DEBUG_SAVEALL`` the collector moves what it finds into
    ``gc.garbage`` instead of freeing it, so everything reference
    counting could not free is there to inspect.  The ``gc`` flags and
    ``gc.garbage`` are restored afterwards.
    """
    flags, saved = gc.get_debug(), gc.garbage[:]
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return gc.garbage[:]
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved


def test_hot_path_objects_die_by_refcount():
    """Exact guard beside the detached-cost guards: a grant, an OpenCL
    command event or a finished process that only the cycle collector
    can free is a reference cycle on the hot path, and a sweep makes
    one per grant, command or process.  Runs a serial and a
    hand-optimized Himeno point and a clMPI bandwidth point and finds
    none of them in the cyclic garbage."""
    from repro.apps.pingpong import bandwidth_point
    from repro.harness.fig9 import himeno_point
    from repro.ocl.event import CLEvent
    from repro.sim import Process
    from repro.sim.resources import Request

    def run():
        for impl in ("serial", "hand-optimized"):
            himeno_point({"system": "cichlid", "nodes": 4, "impl": impl,
                          "size": "M", "iterations": 2,
                          "functional": False})
        bandwidth_point({"system": "cichlid", "nbytes": 4 << 20,
                         "mode": "pipelined", "block": 1 << 20,
                         "repeats": 2})

    garbage = _cyclic_garbage(run)
    leaked = sorted({type(o).__name__ for o in garbage
                     if isinstance(o, (Request, CLEvent))
                     or (isinstance(o, Process) and not o.is_alive)})
    assert not leaked, f"reference cycles through {leaked}"


def _policy_loop_run(policy: bool) -> float:
    """1k-message MPI loop with or without a schedule policy attached."""
    from repro.analysis.schedule import SchedulePolicy

    world = MpiWorld(cichlid(), 2)
    if policy:
        world.env.schedule_policy = SchedulePolicy()
    buf = np.zeros(64, dtype=np.uint8)

    def main(comm):
        for i in range(500):
            if comm.rank == 0:
                yield from comm.send(buf, 1, tag=i)
            else:
                yield from comm.recv(buf, 0, tag=i)

    world.run(main)
    return world.env.now


def test_schedule_policy_detached_message_rate(benchmark):
    """Message rate with ``env.schedule_policy is None`` — the regime
    every normal run uses; matching stays immediate and the scheduler
    never consults a policy."""
    assert benchmark(_policy_loop_run, False) > 0


def test_schedule_policy_attached_message_rate(benchmark):
    """Same loop under the verifier's policed regime: deferred matching
    flush rounds plus the policed run loop, to quantify what one
    explored schedule costs over a plain run."""
    assert benchmark(_policy_loop_run, True) > 0


def test_tracer_record_empty_meta_fast_path(benchmark):
    """Meta-less ``Tracer.record`` must reuse the shared empty mapping
    instead of allocating a dict per record."""
    from repro.sim import Tracer

    def run():
        tr = Tracer()
        for i in range(50_000):
            tr.record("lane", "x", i * 1e-6, i * 1e-6 + 1e-6, "host")
        return tr

    tr = benchmark(run)
    assert tr.records[0].meta is tr.records[-1].meta  # shared singleton


def test_timing_only_himeno_iteration_cost(benchmark):
    """Real-time cost of one timing-only M-size Himeno run (the unit of
    the Fig 9 sweeps)."""
    from repro.apps.himeno import HimenoConfig, run_himeno

    def run():
        return run_himeno(ricc(), 8, "clmpi",
                          HimenoConfig(size="M", iterations=4),
                          functional=False).time

    assert benchmark(run) > 0


# -- mesoscale (vectorized) engine ------------------------------------------

def _himeno_mesoscale_point(engine: str):
    """The 1024-rank Himeno point both engines must agree on."""
    from repro.apps.himeno import HimenoConfig, run_himeno
    from repro.systems import get_system

    cfg = HimenoConfig(size="custom", dims=(2050, 33, 33), iterations=3)
    res = run_himeno(get_system("ricc", max_nodes=1024), 1024, "clmpi",
                     cfg, functional=False, engine=engine)
    return res.time, res.gflops, res.kernel_times


def test_vectorized_engine_throughput(benchmark):
    """1024-rank Himeno point, coroutine vs mesoscale engine.

    Asserts the two engines return bit-identical virtual results and
    that the mesoscale replay is at least 10x faster in real time (it
    measures 100-200x here; 10x leaves headroom for slow CI hosts).
    """
    import time

    t0 = time.perf_counter()
    cor = _himeno_mesoscale_point("coroutine")
    coroutine_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    vec = _himeno_mesoscale_point("vectorized")
    vectorized_s = time.perf_counter() - t0
    assert cor == vec, "engines disagree on the virtual result"
    speedup = coroutine_s / vectorized_s
    benchmark.extra_info["coroutine_s"] = coroutine_s
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 10.0, \
        f"mesoscale engine only {speedup:.1f}x faster at 1024 ranks"
    assert benchmark(_himeno_mesoscale_point, "vectorized")[0] > 0


def _calls_into(run, hit) -> int:
    """How many function calls ``run()`` makes whose frame ``hit``
    accepts."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and hit(frame):
            calls += 1

    _run_profiled(run, profile)
    return calls


def _numpy_unique_calls(run) -> int:
    """How many times ``run()`` enters ``numpy.unique``."""
    return _calls_into(run, lambda frame: (
        frame.f_code.co_name == "unique"
        and frame.f_globals.get("__name__", "").startswith("numpy")))


def test_mesoscale_points_enter_no_numpy_unique():
    """Exact per-batch cost guard on the mesoscale engine: a 2048-rank
    bandwidth point and a 1024-rank Himeno point check each port batch
    for repeated ports in O(batch), so neither may enter the hashing
    ``numpy.unique`` once.  A count, not a timing: noise cannot hide a
    regression."""
    from repro.apps.pingpong import bandwidth_point

    spec = {"system": "ricc", "nbytes": 4 << 20, "mode": "pipelined",
            "block": 1 << 20, "repeats": 2, "ranks": 2048,
            "engine": "vectorized", "strict_engine": True}
    calls = {
        "bandwidth-2048": _numpy_unique_calls(
            lambda: bandwidth_point(dict(spec))),
        "himeno-1024": _numpy_unique_calls(
            lambda: _himeno_mesoscale_point("vectorized")),
    }
    assert calls == {"bandwidth-2048": 0, "himeno-1024": 0}, \
        f"mesoscale points entered numpy.unique: {calls}"


def _vectorized_calls(run) -> int:
    """How many times ``run()`` enters a function of
    :mod:`repro.sim.vectorized`."""
    return _calls_into(run, lambda frame: (
        frame.f_globals.get("__name__") == "repro.sim.vectorized"))


def test_mesoscale_collectives_run_in_array_rounds():
    """Exact per-round cost guard on the mesoscale collectives: the
    1024-rank Himeno point and a 1024-rank collective-load point must
    each enter the engine module fewer than 1,500 times.  A barrier
    round is one rotation of the port arrays and a reduce drains a
    whole tree level at once; draining the reduce tree parent by parent
    again enters it thousands of times per point."""
    from repro.apps.collective_load import collective_load_point

    spec = {"system": "ricc", "ranks": 1024, "engine": "vectorized",
            "strict_engine": True}
    calls = {
        "himeno-1024": _vectorized_calls(
            lambda: _himeno_mesoscale_point("vectorized")),
        "collective-1024": _vectorized_calls(
            lambda: collective_load_point(dict(spec))),
    }
    assert all(n < 1500 for n in calls.values()), \
        f"mesoscale collectives entered repro.sim.vectorized {calls} times"


def test_mesoscale_fixed_port_rounds_run_on_lane_local_state():
    """Exact per-block cost guard on the mesoscale engine: a 2048-rank
    RICC 64 MiB pipelined point in 1 MiB blocks must enter the engine
    module fewer than 200 times, and a 1024-rank collective-load point
    fewer than 400.  A pipelined transfer checks and gathers its lanes'
    ports once and runs every block on lane-local arrays, and a
    broadcast level is one round on strided views of the port arrays;
    serving each block or level as a generic ``transfer`` batch again
    enters it thousands of times per point."""
    from repro.apps.collective_load import collective_load_point
    from repro.apps.pingpong import bandwidth_point

    pipelined = {"system": "ricc", "nbytes": 64 << 20, "mode": "pipelined",
                 "block": 1 << 20, "repeats": 4, "ranks": 2048,
                 "engine": "vectorized", "strict_engine": True}
    collective = {"system": "ricc", "ranks": 1024, "engine": "vectorized",
                  "strict_engine": True}
    calls = {
        "pipelined-2048": _vectorized_calls(
            lambda: bandwidth_point(dict(pipelined))),
        "collective-1024": _vectorized_calls(
            lambda: collective_load_point(dict(collective))),
    }
    assert calls["pipelined-2048"] < 200 and calls["collective-1024"] < 400, \
        f"mesoscale fixed-port rounds entered repro.sim.vectorized " \
        f"{calls} times"

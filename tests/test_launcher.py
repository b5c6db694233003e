"""Tests of the full-stack launcher and top-level package surface."""

import numpy as np
import pytest

import repro
from repro import ClusterApp, RankContext, launch
from repro.errors import ReproError
from repro.mpi.datatypes import BYTE, CL_MEM, FLOAT32, from_numpy_dtype
from repro.systems import cichlid, ricc


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None

    def test_error_hierarchy(self):
        from repro.errors import (ClmpiError, ConfigurationError, MpiError,
                                  OclError, ReproError)
        for exc in (ClmpiError, ConfigurationError, MpiError, OclError):
            assert issubclass(exc, ReproError)

    def test_ocl_error_carries_code(self):
        from repro.errors import OclError
        err = OclError("CL_INVALID_VALUE", "details")
        assert err.code == "CL_INVALID_VALUE"
        assert "details" in str(err)


class TestDatatypes:
    def test_cl_mem_marker(self):
        assert CL_MEM.is_cl_mem
        assert not FLOAT32.is_cl_mem

    def test_from_numpy(self):
        assert from_numpy_dtype(np.float32) is FLOAT32
        assert from_numpy_dtype("u1") is BYTE
        assert from_numpy_dtype(np.complex128) is BYTE  # fallback

    def test_count_of(self):
        arr = np.zeros(10, dtype=np.float32)
        assert FLOAT32.count_of(arr) == 10
        assert CL_MEM.count_of(arr) == 40


class TestClusterApp:
    def test_needs_preset(self):
        with pytest.raises(ReproError):
            ClusterApp("not a preset", 2)

    def test_contexts_wired_per_rank(self):
        app = ClusterApp(cichlid(), 3)
        assert app.size == 3
        for rank, ctx in enumerate(app.contexts):
            assert isinstance(ctx, RankContext)
            assert ctx.rank == rank
            assert ctx.size == 3
            assert ctx.comm.rank == rank
            assert ctx.device.node_id == rank
            assert ctx.ocl.clmpi_runtime is ctx.runtime

    def test_run_collects_return_values(self):
        app = ClusterApp(cichlid(), 2)

        def main(ctx):
            yield ctx.env.timeout(0.1 * (ctx.rank + 1))
            return ctx.rank * 10

        assert app.run(main) == [0, 10]
        assert app.env.now == pytest.approx(0.2)

    def test_launch_convenience(self):
        def main(ctx):
            yield from ctx.comm.barrier()
            return ctx.rank

        assert launch(ricc(), 2, main) == [0, 1]

    def test_deadlock_detected(self):
        app = ClusterApp(cichlid(), 2)

        def main(ctx):
            if ctx.rank == 0:
                yield ctx.env.event()  # waits forever
            else:
                yield ctx.env.timeout(0)

        with pytest.raises(ReproError, match="deadlock"):
            app.run(main)

    def test_both_facades_report_the_same_deadlock(self):
        """A recv/recv deadlock sanitizes to the same findings through
        ``MpiWorld.run`` and ``ClusterApp.run`` — both launch through one
        loop — while each facade keeps its own exception."""
        from repro.analysis import Sanitizer
        from repro.errors import MpiError
        from repro.mpi import MpiWorld

        def main(comm):
            yield from comm.recv(np.zeros(4), source=1 - comm.rank, tag=3)

        stuck = "deadlock: ranks never terminated: ['rank0.main', " \
                "'rank1.main']"
        world = MpiWorld(cichlid(), 2)
        with Sanitizer(world) as via_world:
            with pytest.raises(MpiError) as err:
                world.run(main)
        assert str(err.value) == stuck
        app = ClusterApp(cichlid(), 2)
        with Sanitizer(app) as via_app:
            with pytest.raises(ReproError) as err:
                app.run(lambda ctx: main(ctx.comm))
        assert type(err.value) is ReproError
        assert str(err.value).startswith(stuck + " (run under")
        assert via_world.report.render() == via_app.report.render()
        assert sorted(via_world.report.kinds()) == [
            "communication-deadlock", "unmatched-recv", "unmatched-recv"]

    def test_run_until_leaves_stragglers(self):
        app = ClusterApp(cichlid(), 2)

        def main(ctx):
            yield ctx.env.timeout(100.0)
            return "done"

        results = app.run(main, until=1.0)
        assert results == [None, None]
        assert app.env.now == 1.0

    def test_queue_helper(self):
        app = ClusterApp(cichlid(), 1)
        q1 = app.contexts[0].queue()
        q2 = app.contexts[0].queue(in_order=False)
        assert q1.in_order and not q2.in_order

    def test_force_mode_propagates(self):
        app = ClusterApp(ricc(), 2, force_mode="mapped")
        for ctx in app.contexts:
            assert ctx.runtime.describe(64 << 20, 0).mode == "mapped"

    def test_trace_flag(self):
        app = ClusterApp(cichlid(), 1, trace=True)
        assert app.tracer is not None

    def test_rank_args_forwarded(self):
        app = ClusterApp(cichlid(), 2)

        def main(ctx, a, b=0):
            yield ctx.env.timeout(0)
            return a + b + ctx.rank

        assert app.run(main, 5, b=2) == [7, 8]


class TestRuntimeRequirements:
    def test_runtime_needs_selector_or_policy(self):
        from repro.clmpi import ClmpiRuntime
        from repro.errors import ClmpiError
        from repro.mpi.world import MpiWorld
        from repro.ocl import Context, Device

        world = MpiWorld(cichlid(), 1)
        ctx = Context(Device(world.cluster[0]))
        with pytest.raises(ClmpiError):
            ClmpiRuntime(ctx, world.comm(0))

    def test_runtime_accepts_policy(self):
        from repro.clmpi import ClmpiRuntime
        from repro.mpi.world import MpiWorld
        from repro.ocl import Context, Device

        world = MpiWorld(cichlid(), 1)
        ctx = Context(Device(world.cluster[0]))
        rt = ClmpiRuntime(ctx, world.comm(0), policy=cichlid().policy)
        assert ctx.clmpi_runtime is rt

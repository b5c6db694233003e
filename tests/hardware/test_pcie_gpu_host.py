"""Unit tests of the PCIe, GPU, and host models."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.gpu import GpuModel, GpuSpec
from repro.hardware.host import HostModel, HostSpec
from repro.hardware.pcie import PcieModel, PcieSpec
from repro.sim import Tracer


def pcie_spec(**kw):
    defaults = dict(pinned_bandwidth=5e9, pageable_bandwidth=2.5e9,
                    mapped_bandwidth=1e9, copy_latency=10e-6,
                    map_overhead=4e-6, mapped_latency=2e-6)
    defaults.update(kw)
    return PcieSpec(**defaults)


def gpu_spec(**kw):
    defaults = dict(name="TestGPU", sustained_gflops=40.0,
                    mem_bandwidth=100e9, launch_overhead=5e-6,
                    copy_engines=2, memory_bytes=1 << 30)
    defaults.update(kw)
    return GpuSpec(**defaults)


def host_spec(**kw):
    defaults = dict(name="TestCPU", sustained_gflops=10.0,
                    memcpy_bandwidth=4e9, call_overhead=1e-6,
                    sync_overhead=10e-6)
    defaults.update(kw)
    return HostSpec(**defaults)


class TestPcieSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            pcie_spec(pinned_bandwidth=0)
        with pytest.raises(ConfigurationError):
            pcie_spec(mapped_bandwidth=-1)
        with pytest.raises(ConfigurationError):
            pcie_spec(copy_latency=-1e-6)


class TestPcieModel:
    def test_pinned_d2h_time(self, env):
        pcie = PcieModel(env, pcie_spec())

        def proc(env):
            return (yield from pcie.d2h(5_000_000, pinned=True))

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(10e-6 + 5e6 / 5e9)

    def test_pageable_slower_than_pinned(self, env):
        pcie = PcieModel(env, pcie_spec())
        times = {}

        def proc(env, pinned):
            times[pinned] = yield from pcie.h2d(10_000_000, pinned=pinned)

        env.process(proc(env, True))
        env.run()
        env.process(proc(env, False))
        env.run()
        assert times[False] > times[True]

    def test_dual_engines_concurrent_directions(self, env):
        pcie = PcieModel(env, pcie_spec(copy_latency=0.0), copy_engines=2)

        def d2h(env):
            yield from pcie.d2h(5_000_000)

        def h2d(env):
            yield from pcie.h2d(5_000_000)

        env.process(d2h(env))
        env.process(h2d(env))
        env.run()
        assert env.now == pytest.approx(1e-3)  # overlapped

    def test_single_engine_serializes_directions(self, env):
        pcie = PcieModel(env, pcie_spec(copy_latency=0.0), copy_engines=1)

        def d2h(env):
            yield from pcie.d2h(5_000_000)

        def h2d(env):
            yield from pcie.h2d(5_000_000)

        env.process(d2h(env))
        env.process(h2d(env))
        env.run()
        assert env.now == pytest.approx(2e-3)  # serialized (C1060-style)

    def test_invalid_engine_count(self, env):
        with pytest.raises(ConfigurationError):
            PcieModel(env, pcie_spec(), copy_engines=3)

    def test_mapped_read_time(self, env):
        pcie = PcieModel(env, pcie_spec())

        def proc(env):
            return (yield from pcie.mapped_read(1_000_000))

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(2e-6 + 1e6 / 1e9)

    def test_map_overhead(self, env):
        pcie = PcieModel(env, pcie_spec())

        def proc(env):
            return (yield from pcie.map_buffer())

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(4e-6)

    def test_negative_copy_rejected(self, env):
        pcie = PcieModel(env, pcie_spec())

        def proc(env):
            yield from pcie.d2h(-1)

        env.process(proc(env))
        with pytest.raises(ValueError):
            env.run()


class TestGpuSpec:
    def test_kernel_time_compute_bound(self):
        spec = gpu_spec()
        # 40 GFLOPS, 4e9 flops -> 0.1 s + launch
        assert spec.kernel_time(flops=4e9) == pytest.approx(0.1 + 5e-6)

    def test_kernel_time_memory_bound(self):
        spec = gpu_spec()
        t = spec.kernel_time(flops=1.0, mem_bytes=200e9)
        assert t == pytest.approx(2.0 + 5e-6)

    def test_roofline_takes_max(self):
        spec = gpu_spec()
        both = spec.kernel_time(flops=4e9, mem_bytes=200e9)
        assert both == pytest.approx(2.0 + 5e-6)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            gpu_spec().kernel_time(flops=-1)

    def test_invalid_copy_engines(self):
        with pytest.raises(ConfigurationError):
            gpu_spec(copy_engines=0)

    def test_invalid_throughput(self):
        with pytest.raises(ConfigurationError):
            gpu_spec(sustained_gflops=0)


class TestGpuModel:
    def test_kernels_serialize_on_compute_engine(self, env):
        gpu = GpuModel(env, gpu_spec())

        def proc(env):
            yield from gpu.run_kernel(0.5)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert env.now == pytest.approx(1.0)

    def test_memory_accounting(self, env):
        gpu = GpuModel(env, gpu_spec(memory_bytes=1000))
        gpu.allocate(600)
        assert gpu.allocated_bytes == 600
        with pytest.raises(ConfigurationError):
            gpu.allocate(500)
        gpu.free(600)
        gpu.allocate(900)

    def test_negative_allocation(self, env):
        gpu = GpuModel(env, gpu_spec())
        with pytest.raises(ValueError):
            gpu.allocate(-1)

    def test_kernel_traced(self, traced_env):
        gpu = GpuModel(traced_env, gpu_spec(), lane="gpu0")

        def proc(env):
            yield from gpu.run_kernel(0.25, "mykernel")

        traced_env.process(proc(traced_env))
        traced_env.run()
        recs = traced_env.observer(Tracer).on_lane("gpu0")
        assert recs[0].label == "mykernel"
        assert recs[0].duration == pytest.approx(0.25)


class TestHostModel:
    def test_compute_time(self, env):
        host = HostModel(env, host_spec())

        def proc(env):
            return (yield from host.compute(5e9))

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(0.5)

    def test_memcpy_time(self):
        # the copy rule repro.mpi.comm charges for eager staging and
        # unexpected-message copies
        assert host_spec().memcpy_time(4_000_000) == 1e-3

    def test_cores_bound_concurrency(self, env):
        host = HostModel(env, host_spec(), cores=2)

        def proc(env):
            yield from host.compute(10e9)  # 1 s each

        for _ in range(4):
            env.process(proc(env))
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_api_and_sync_overheads(self, env):
        host = HostModel(env, host_spec())

        def proc(env):
            yield from host.api_call()
            yield from host.sync_wakeup()
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(11e-6)

    def test_invalid_cores(self, env):
        with pytest.raises(ConfigurationError):
            HostModel(env, host_spec(), cores=0)

"""Command-queue semantics: ordering, wait lists, blocking, profiling."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import OclError
from repro.ocl import CommandStatus, Kernel
from repro.ocl.api import wait_for_events
from repro.sim.probe import Probe


def run(env, gen):
    p = env.process(gen)
    env.run()
    return p.value


def make_kernel(name="k", duration=1e-3, body=None):
    return Kernel(name, body=body, cost=lambda gpu, *a: duration)


class RecordingMonitor(Probe):
    """Probe that records host syncs and enqueued commands and ignores
    every other hook."""

    def __init__(self):
        self.host_syncs = []
        self.enqueued = []

    def on_host_sync(self, events):
        self.host_syncs.append(list(events))

    def on_command_enqueued(self, queue, cmd):
        self.enqueued.append(cmd)


class TestInOrderQueue:
    def test_commands_execute_in_fifo_order(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        order = []

        def body_factory(i):
            def body():
                order.append(i)
            return body

        def main():
            evts = []
            for i in range(4):
                k = Kernel(f"k{i}", body=lambda i=i: order.append(i),
                           cost=lambda gpu: 1e-3)
                evts.append((yield from q.enqueue_nd_range_kernel(k, ())))
            yield from q.finish()
            return evts

        evts = run(env, main())
        assert order == [0, 1, 2, 3]
        # strictly serialized in time
        for a, b in zip(evts, evts[1:]):
            assert (a.profile[CommandStatus.COMPLETE]
                    <= b.profile[CommandStatus.RUNNING] + 1e-12)

    def test_command_starts_only_after_predecessor(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()

        def main():
            e1 = yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=0.5), ())
            e2 = yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=0.1), ())
            yield from q.finish()
            return e1, e2

        e1, e2 = run(env, main())
        assert e2.profile[CommandStatus.RUNNING] >= 0.5

    def test_commands_enqueued_before_dispatch_starts(self, node_env):
        """Commands that reach a queue in the step that created it, before
        its dispatcher's first step, all run, in order, from t=0."""
        env, ctx = node_env
        sync_wakeup = ctx.host.sync_wakeup
        ctx.host = SimpleNamespace(api_call=lambda: iter(()),
                                   sync_wakeup=sync_wakeup)

        def main():
            q = ctx.create_queue()
            evts = []
            for i in range(3):
                evts.append((yield from q.enqueue_nd_range_kernel(
                    make_kernel(f"k{i}", duration=0.5), ())))
            assert all(e.status == CommandStatus.QUEUED for e in evts)
            yield from q.finish()
            return evts

        evts = run(env, main())
        assert [e.profile[CommandStatus.RUNNING] for e in evts] == \
            [0.0, 0.5, 1.0]

    def test_commands_enqueued_before_dispatch_run_in_enqueue_order(
            self, node_env):
        """Commands queued up before the dispatcher's first step leave the
        queue in the order they were enqueued."""
        env, ctx = node_env
        ctx.host = SimpleNamespace(api_call=lambda: iter(()),
                                   sync_wakeup=ctx.host.sync_wakeup)
        ran = []

        def main():
            q = ctx.create_queue()
            for i in range(5):
                k = Kernel(f"k{i}", body=lambda i=i: ran.append(i),
                           cost=lambda gpu: 1e-3)
                yield from q.enqueue_nd_range_kernel(k, ())
            assert ran == []
            yield from q.finish()

        run(env, main())
        assert ran == [0, 1, 2, 3, 4]

    def test_each_command_runs_once_on_its_own_queue(self, node_env):
        """Commands spread over two in-order queues of one context each run
        exactly once, on the queue they were enqueued on, in that queue's
        enqueue order."""
        env, ctx = node_env
        qa, qb = ctx.create_queue(), ctx.create_queue()
        ran = []

        def main():
            for i in range(6):
                name, q = ("a", qa) if i % 2 == 0 else ("b", qb)
                k = Kernel(f"k{i}", body=lambda n=name, i=i: ran.append((n, i)),
                           cost=lambda gpu: 1e-3)
                yield from q.enqueue_nd_range_kernel(k, ())
            yield from qa.finish()
            yield from qb.finish()

        run(env, main())
        assert sorted(ran) == [("a", 0), ("a", 2), ("a", 4),
                               ("b", 1), ("b", 3), ("b", 5)]
        assert [i for n, i in ran if n == "a"] == [0, 2, 4]
        assert [i for n, i in ran if n == "b"] == [1, 3, 5]

    def test_idle_queue_takes_a_command_when_enqueued(self, node_env):
        """A queue that has drained starts the next command as soon as
        it is enqueued, however late."""
        env, ctx = node_env
        q = ctx.create_queue()

        def main():
            e1 = yield from q.enqueue_nd_range_kernel(make_kernel(), ())
            yield env.timeout(2.0)
            asked = env.now
            e2 = yield from q.enqueue_nd_range_kernel(make_kernel(), ())
            submitted = env.now  # the enqueue call has returned
            yield from q.finish()
            return e1, e2, asked, submitted

        e1, e2, asked, submitted = run(env, main())
        assert e1.profile[CommandStatus.COMPLETE] < asked
        assert e2.profile[CommandStatus.QUEUED] == asked
        assert e2.profile[CommandStatus.RUNNING] == submitted

    def test_enqueue_is_nonblocking_for_host(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()

        def main():
            yield from q.enqueue_nd_range_kernel(make_kernel(duration=1.0), ())
            return env.now  # way before the kernel completes

        t = run(env, main())
        assert t < 1e-3


class TestOutOfOrderQueue:
    def test_independent_commands_overlap_engines(self, node_env):
        """A kernel (compute engine) and a read (copy engine) overlap."""
        env, ctx = node_env
        q = ctx.create_queue(in_order=False)
        buf = ctx.create_buffer(1 << 20)
        host = np.empty(1 << 20, dtype=np.uint8)

        def main():
            ek = yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=1e-3), ())
            er = yield from q.enqueue_read_buffer(buf, False, 0, 1 << 20,
                                                  host)
            yield from q.finish()
            return ek, er

        ek, er = run(env, main())
        k_span = (ek.profile[CommandStatus.RUNNING],
                  ek.profile[CommandStatus.COMPLETE])
        r_span = (er.profile[CommandStatus.RUNNING],
                  er.profile[CommandStatus.COMPLETE])
        assert min(k_span[1], r_span[1]) > max(k_span[0], r_span[0])

    def test_wait_list_orders_commands(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue(in_order=False)

        def main():
            e1 = yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=0.3), ())
            e2 = yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=0.1), (), wait_for=(e1,))
            yield from q.finish()
            return e1, e2

        e1, e2 = run(env, main())
        assert (e2.profile[CommandStatus.RUNNING]
                >= e1.profile[CommandStatus.COMPLETE])

    def test_barrier_gates_later_commands(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue(in_order=False)

        def main():
            e1 = yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=0.4), ())
            yield from q.enqueue_barrier()
            e2 = yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=0.1), ())
            yield from q.finish()
            return e1, e2

        e1, e2 = run(env, main())
        assert (e2.profile[CommandStatus.RUNNING]
                >= e1.profile[CommandStatus.COMPLETE])

    def test_barrier_waits_on_exactly_the_incomplete_prior(self, node_env):
        """The barrier's wait list is the prior commands still running,
        in enqueue order; one that already completed is left out."""
        env, ctx = node_env
        mon = env.attach(RecordingMonitor())
        q = ctx.create_queue(in_order=False)

        def main():
            e1 = yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=0.4), ())
            e2 = yield from q.enqueue_marker()
            yield from wait_for_events([e2], host=ctx.host)
            e3 = yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=0.3), ())
            e4 = yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=0.2), ())
            assert e2.is_complete and not e1.is_complete
            yield from q.enqueue_barrier()
            yield from q.finish()
            return e1, e3, e4

        e1, e3, e4 = run(env, main())
        barrier, = [c for c in mon.enqueued if c.label == "barrier"]
        assert barrier.wait_events == (e1, e3, e4)


class TestTransfers:
    def test_write_read_roundtrip(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        buf = ctx.create_buffer(4096)
        src = np.arange(1024, dtype=np.float32)
        dst = np.zeros(1024, dtype=np.float32)

        def main():
            yield from q.enqueue_write_buffer(buf, True, 0, 4096, src)
            yield from q.enqueue_read_buffer(buf, True, 0, 4096, dst)

        run(env, main())
        assert np.array_equal(src, dst)

    def test_offset_write(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        buf = ctx.create_buffer(100)

        def main():
            yield from q.enqueue_write_buffer(
                buf, True, 10, 5, np.full(5, 9, dtype=np.uint8))

        run(env, main())
        assert np.all(buf.bytes_view(10, 5) == 9)
        assert np.all(buf.bytes_view(0, 10) == 0)

    def test_copy_buffer(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        a = ctx.create_buffer(64)
        b = ctx.create_buffer(64)
        a.bytes_view()[:] = 5

        def main():
            yield from q.enqueue_copy_buffer(a, b, 0, 0, 64)
            yield from q.finish()

        run(env, main())
        assert np.all(b.bytes_view() == 5)

    def test_small_host_array_rejected(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        buf = ctx.create_buffer(100)

        def main():
            yield from q.enqueue_read_buffer(buf, True, 0, 100,
                                             np.zeros(10, dtype=np.uint8))

        with pytest.raises(OclError, match="CL_INVALID_VALUE"):
            run(env, main())

    def test_foreign_buffer_rejected(self, node_env, timing_only_env):
        env, ctx = node_env
        _, other_ctx = timing_only_env
        q = ctx.create_queue()
        foreign = other_ctx.create_buffer(16)

        def main():
            yield from q.enqueue_read_buffer(foreign, True, 0, 16,
                                             np.zeros(16, dtype=np.uint8))

        with pytest.raises(OclError, match="CL_INVALID_MEM_OBJECT"):
            run(env, main())

    def test_blocking_read_waits(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        buf = ctx.create_buffer(1 << 22)
        host = np.empty(1 << 22, dtype=np.uint8)

        def main():
            yield from q.enqueue_read_buffer(buf, True, 0, 1 << 22, host)
            return env.now

        t = run(env, main())
        assert t >= (1 << 22) / 5.7e9  # at least the PCIe time

    def test_pinned_faster_than_pageable(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        buf = ctx.create_buffer(1 << 22)
        host = np.empty(1 << 22, dtype=np.uint8)

        def main():
            t0 = env.now
            yield from q.enqueue_write_buffer(buf, True, 0, 1 << 22, host,
                                              pinned=True)
            t1 = env.now
            yield from q.enqueue_write_buffer(buf, True, 0, 1 << 22, host,
                                              pinned=False)
            return t1 - t0, env.now - t1

        pinned_t, pageable_t = run(env, main())
        assert pageable_t > 1.5 * pinned_t

    def test_none_host_array_requires_timing_only(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        buf = ctx.create_buffer(16)

        def main():
            yield from q.enqueue_read_buffer(buf, True, 0, 16, None)

        with pytest.raises(OclError, match="timing-only"):
            run(env, main())

    def test_timing_only_none_host_array_ok(self, timing_only_env):
        env, ctx = timing_only_env
        q = ctx.create_queue()
        buf = ctx.create_buffer(1 << 20)

        def main():
            yield from q.enqueue_write_buffer(buf, True, 0, 1 << 20, None)
            return env.now

        assert run(env, main()) > 0
        assert buf._data is None  # never materialized


class TestMapping:
    def test_map_returns_live_view(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        buf = ctx.create_buffer(32)

        def main():
            evt, view = yield from q.enqueue_map_buffer(buf, True, 0, 32)
            view[:] = 7
            yield from q.enqueue_unmap_mem_object(buf)
            yield from q.finish()

        run(env, main())
        assert np.all(buf.bytes_view() == 7)
        assert not buf.is_mapped


class TestKernelLaunch:
    def test_functional_body_runs_with_args(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        buf = ctx.create_buffer(40)
        k = Kernel("fill",
                   body=lambda b, v: b.view("f4").__setitem__(
                       slice(None), v),
                   flops=100.0)

        def main():
            yield from q.enqueue_nd_range_kernel(k, (buf, 2.5))
            yield from q.finish()

        run(env, main())
        assert np.all(buf.view("f4") == 2.5)

    def test_duration_matches_cost_model(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        k = Kernel("flops", flops=45e9)  # exactly 1 s on the C2070 model

        def main():
            evt = yield from q.enqueue_nd_range_kernel(k, ())
            yield from q.finish()
            return evt

        evt = run(env, main())
        assert evt.duration() == pytest.approx(1.0 + 8e-6)

    def test_non_kernel_rejected(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()

        def main():
            yield from q.enqueue_nd_range_kernel("not a kernel", ())

        with pytest.raises(OclError, match="CL_INVALID_KERNEL"):
            run(env, main())

    def test_kernel_body_exception_fails_event(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        k = Kernel("bad", body=lambda: 1 / 0, flops=1.0)

        def main():
            evt = yield from q.enqueue_nd_range_kernel(k, ())
            try:
                yield evt.completion
            except ZeroDivisionError:
                return "failed as expected"

        assert run(env, main()) == "failed as expected"

    def test_failed_waitlist_fails_dependents(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()
        bad = Kernel("bad", body=lambda: 1 / 0, flops=1.0)
        good = Kernel("good", flops=1.0)

        def main():
            e1 = yield from q.enqueue_nd_range_kernel(bad, ())
            e2 = yield from q.enqueue_nd_range_kernel(good, (),
                                                      wait_for=(e1,))
            try:
                yield e2.completion
            except OclError as exc:
                return exc.code

        assert run(env, main()) == \
            "CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST"


class TestSync:
    def test_finish_drains_queue(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()

        def main():
            yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=0.7), ())
            yield from q.finish()
            return env.now

        assert run(env, main()) >= 0.7

    def test_finish_reports_drained_events_in_enqueue_order(self,
                                                            node_env):
        env, ctx = node_env
        mon = env.attach(RecordingMonitor())
        q = ctx.create_queue()

        def main():
            evts = []
            for i in range(16):
                evts.append((yield from q.enqueue_nd_range_kernel(
                    make_kernel(f"k{i}"), ())))
            yield from q.finish()
            return evts

        evts = run(env, main())
        assert mon.host_syncs == [evts]

    def test_finish_empty_queue_is_cheap(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()

        def main():
            yield from q.finish()
            return env.now

        assert run(env, main()) < ctx.host.spec.sync_overhead

    def test_wait_for_events_multiple(self, node_env):
        env, ctx = node_env
        q1 = ctx.create_queue()
        q2 = ctx.create_queue()

        def main():
            e1 = yield from q1.enqueue_nd_range_kernel(
                make_kernel(duration=0.2), ())
            e2 = yield from q2.enqueue_nd_range_kernel(
                make_kernel(duration=0.5), ())
            yield from wait_for_events([e1, e2], host=ctx.host)
            return env.now

        # two queues, one compute engine: kernels serialize
        assert run(env, main()) >= 0.7

    def test_wait_for_events_empty_rejected(self, node_env):
        env, ctx = node_env

        def main():
            yield from wait_for_events([])

        with pytest.raises(OclError):
            run(env, main())

    def test_invalid_wait_list_entry(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()

        def main():
            yield from q.enqueue_marker(wait_for=("nonsense",))

        with pytest.raises(OclError, match="CL_INVALID_EVENT_WAIT_LIST"):
            run(env, main())

    def test_marker_completes_after_predecessors(self, node_env):
        env, ctx = node_env
        q = ctx.create_queue()

        def main():
            yield from q.enqueue_nd_range_kernel(
                make_kernel(duration=0.3), ())
            m = yield from q.enqueue_marker()
            yield m.completion
            return env.now

        assert run(env, main()) >= 0.3

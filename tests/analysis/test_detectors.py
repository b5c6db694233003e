"""The seeded-fault fixtures: each hazard class must be detected with a
witness chain naming the entities involved."""

import numpy as np
import pytest

from repro import ClusterApp, clmpi
from repro.analysis import Sanitizer
from repro.errors import ReproError
from repro.ocl import Kernel
from repro.systems import cichlid


def run_sanitized(main, nodes=2, expect_deadlock=False):
    app = ClusterApp(cichlid(), nodes)
    with Sanitizer(app) as san:
        if expect_deadlock:
            with pytest.raises(ReproError, match="deadlock"):
                app.run(main)
        else:
            app.run(main)
    return san.report


class TestDeadlockCycle:
    def test_event_wait_cycle_detected(self):
        """Head-of-line: a command waits on a user event the host would
        only complete after draining the queue behind it."""
        def main(ctx):
            q = ctx.queue()
            buf = ctx.ocl.create_buffer(64)
            gate = ctx.ocl.create_user_event("gate")
            yield from q.enqueue_write_buffer(
                buf, False, 0, 64, np.zeros(64, np.uint8),
                wait_for=(gate,))
            marker = yield from q.enqueue_marker()
            yield from marker.wait()   # never returns
            gate.set_complete()        # unreachable

        report = run_sanitized(main, nodes=1, expect_deadlock=True)
        cycles = report.by_kind("deadlock-cycle")
        assert cycles, report.render()
        finding = cycles[0]
        # the witness names every entity of the cycle
        chain = "\n".join(finding.witness)
        assert "'gate'" in chain
        assert "rank0.main" in chain
        assert "head-of-line" in chain
        assert "wait-list" in chain

    def test_cycle_through_a_queue_dispatcher(self):
        """A user event made by a completion callback was created by the
        queue's dispatcher (the active process when the command
        completed); a later command on that queue waiting for it closes
        a cycle through the dispatcher, which the witness names."""
        made = []

        def main(ctx):
            q = ctx.queue()
            buf = ctx.ocl.create_buffer(64)
            write = yield from q.enqueue_write_buffer(
                buf, False, 0, 64, np.zeros(64, np.uint8))
            write.set_callback(lambda ev, status: made.append(
                ctx.ocl.create_user_event("from-callback")))
            yield from q.finish()
            yield from q.enqueue_marker(wait_for=(made[0],))
            yield from q.finish()

        report = run_sanitized(main, nodes=1, expect_deadlock=True)
        cycles = report.by_kind("deadlock-cycle")
        assert len(cycles) == 1, report.render()
        assert cycles[0].witness == [
            "user-event 'from-callback' must be completed by its "
            "creating thread ->",
            "process 'queue1.dispatcher' (creating thread) is blocked "
            "waiting for ->",
            "user-event 'from-callback'  [cycle closes]"]

    def test_clean_chain_has_no_cycle(self):
        def main(ctx):
            q = ctx.queue()
            buf = ctx.ocl.create_buffer(64)
            gate = ctx.ocl.create_user_event("gate")
            yield from q.enqueue_write_buffer(
                buf, False, 0, 64, np.zeros(64, np.uint8),
                wait_for=(gate,))
            gate.set_complete()        # completed *before* waiting
            yield from q.finish()

        report = run_sanitized(main, nodes=1)
        assert report.ok, report.render()


class TestUnmatchedRecv:
    def test_unmatched_recv_named(self):
        def main(ctx):
            if ctx.rank == 0:
                req = yield from ctx.comm.irecv(np.empty(8), 1, 7)
                yield from req.wait()
            else:
                yield ctx.env.timeout(0)

        report = run_sanitized(main, expect_deadlock=True)
        findings = report.by_kind("unmatched-recv")
        assert findings, report.render()
        msg = findings[0].message
        assert "rank 1" in msg and "tag 7" in msg and "WORLD" in msg
        # witness walks from the blocked rank thread to the recv
        assert any("rank0.main" in step for step in findings[0].witness)

    def test_sendrecv_self_deadlock(self):
        """Sendrecv to self with mismatched tags: the classic textbook
        self-deadlock, reported as a rank-level wait cycle."""
        def main(ctx):
            data = np.zeros(1 << 20, np.uint8)
            out = np.empty_like(data)
            yield from ctx.comm.sendrecv(data, 0, 0, out, 0, 1)

        app = ClusterApp(cichlid(), 1)
        with Sanitizer(app) as san:
            with pytest.raises(ReproError, match="deadlock"):
                app.run(main)
        kinds = set(san.report.kinds())
        assert "unmatched-recv" in kinds, san.report.render()
        assert "communication-deadlock" in kinds, san.report.render()
        comm_cycle = san.report.by_kind("communication-deadlock")[0]
        assert "rank 0 -> rank 0" in comm_cycle.message


class TestUnmatchedSend:
    def test_stuck_pipelined_send_names_its_command(self):
        """A pipelined clMPI send nobody receives: its block sends are
        posted by the transfer's wire process, and the witness still
        walks from the blocked rank thread through the command that
        issued them to the unmatched rendezvous send."""
        nbytes = 16 << 20

        def main(ctx):
            q = ctx.queue()
            buf = ctx.ocl.create_buffer(nbytes)
            if ctx.rank == 0:
                yield from clmpi.enqueue_send_buffer(
                    q, buf, False, 0, nbytes, 1, 7, ctx.comm)
                yield from q.finish()
            else:
                yield ctx.env.timeout(0)

        app = ClusterApp(cichlid(), 2, force_mode="pipelined",
                         force_block=nbytes // 2)
        with Sanitizer(app) as san:
            with pytest.raises(ReproError, match="deadlock"):
                app.run(main)
        findings = san.report.by_kind("unmatched-send")
        assert len(findings) == 1, san.report.render()
        witness = findings[0].witness
        assert witness[0].startswith("process 'rank0.main'")
        assert witness[1].startswith(
            "command 'clmpi.send->r1 t7' (on queue 'queue1', "
            "engine=pipelined) is executing a transfer that never "
            "completed")
        assert witness[2].startswith("mpi-send 'send r0->r1")
        assert not san.report.by_kind("stalled-command")


class TestDataRace:
    def _race_main(self, ordered):
        def main(ctx):
            q1, q2 = ctx.queue(), ctx.queue()
            buf = ctx.ocl.create_buffer(4096)
            host = np.ones(4096, np.uint8)
            e1 = yield from q1.enqueue_write_buffer(buf, False, 0, 4096,
                                                    host)
            wait = (e1,) if ordered else ()
            yield from q2.enqueue_read_buffer(buf, False, 0, 4096, host,
                                              wait_for=wait)
            yield from q1.finish()
            yield from q2.finish()
        return main

    def test_unordered_write_read_races(self):
        report = run_sanitized(self._race_main(ordered=False), nodes=1)
        races = report.by_kind("data-race")
        assert races, report.render()
        chain = "\n".join(races[0].witness)
        assert "write of [0, 4096)" in chain
        assert "read of [0, 4096)" in chain

    def test_event_ordering_silences_race(self):
        report = run_sanitized(self._race_main(ordered=True), nodes=1)
        assert report.ok, report.render()

    def test_write_vs_clmpi_send_races(self):
        """The satellite fixture: host write racing a device send."""
        def main(ctx):
            q1, q2 = ctx.queue(), ctx.queue()
            buf = ctx.ocl.create_buffer(4096)
            if ctx.rank == 0:
                yield from q1.enqueue_write_buffer(
                    buf, False, 0, 4096, np.ones(4096, np.uint8))
                yield from clmpi.enqueue_send_buffer(
                    q2, buf, False, 0, 4096, 1, 0, ctx.comm)
                yield from q1.finish()
                yield from q2.finish()
            else:
                q = ctx.queue()
                yield from clmpi.enqueue_recv_buffer(
                    q, buf, False, 0, 4096, 0, 0, ctx.comm)
                yield from q.finish()

        report = run_sanitized(main)
        races = report.by_kind("data-race")
        assert races, report.render()
        assert "clmpi.send" in "\n".join(races[0].witness)

    def test_disjoint_ranges_do_not_race(self):
        def main(ctx):
            q1, q2 = ctx.queue(), ctx.queue()
            buf = ctx.ocl.create_buffer(4096)
            host = np.ones(2048, np.uint8)
            yield from q1.enqueue_write_buffer(buf, False, 0, 2048, host)
            yield from q2.enqueue_write_buffer(buf, False, 2048, 2048,
                                               host)
            yield from q1.finish()
            yield from q2.finish()

        report = run_sanitized(main, nodes=1)
        assert report.ok, report.render()

    def test_kernel_access_declaration_participates(self):
        k = Kernel("scale", body=lambda b: None,
                   cost=lambda gpu, b: 1e-6, arg_access=("rw",))

        def main(ctx):
            q1, q2 = ctx.queue(), ctx.queue()
            buf = ctx.ocl.create_buffer(1024)
            yield from q1.enqueue_nd_range_kernel(k, (buf,))
            yield from q2.enqueue_write_buffer(
                buf, False, 0, 1024, np.zeros(1024, np.uint8))
            yield from q1.finish()
            yield from q2.finish()

        report = run_sanitized(main, nodes=1)
        assert report.by_kind("data-race"), report.render()

    def test_undeclared_kernel_not_checked(self):
        """Kernels without arg_access are exempt (deliberate overlap,
        e.g. himeno's compute during halo transfer, must not flag)."""
        k = Kernel("opaque", body=lambda b: None, cost=lambda gpu, b: 1e-6)

        def main(ctx):
            q1, q2 = ctx.queue(), ctx.queue()
            buf = ctx.ocl.create_buffer(1024)
            yield from q1.enqueue_nd_range_kernel(k, (buf,))
            yield from q2.enqueue_write_buffer(
                buf, False, 0, 1024, np.zeros(1024, np.uint8))
            yield from q1.finish()
            yield from q2.finish()

        report = run_sanitized(main, nodes=1)
        assert report.ok, report.render()


class TestLeaks:
    def test_leaked_user_event(self):
        def main(ctx):
            ctx.ocl.create_user_event("orphan")
            yield ctx.env.timeout(1.0)

        report = run_sanitized(main, nodes=1)
        leaks = report.by_kind("leaked-user-event")
        assert leaks, report.render()
        assert "'orphan'" in leaks[0].message

    def test_never_waited_request(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.isend(np.zeros(4), 1, 0)
            else:
                yield from ctx.comm.recv(np.empty(4), 0, 0)
            yield from ctx.comm.barrier()

        report = run_sanitized(main)
        assert report.by_kind("never-waited-request"), report.render()

    def test_pending_queue_commands(self):
        """Enqueue work gated on an event, never complete it, never
        wait: the queue is torn down with the command still pending."""
        def main(ctx):
            q = ctx.queue()
            buf = ctx.ocl.create_buffer(64)
            gate = ctx.ocl.create_user_event("gate")
            yield from q.enqueue_write_buffer(
                buf, False, 0, 64, np.zeros(64, np.uint8),
                wait_for=(gate,))
            # returns without waiting: no deadlock, just abandonment

        report = run_sanitized(main, nodes=1)
        kinds = set(report.kinds())
        assert "pending-queue-commands" in kinds, report.render()

    def test_unreceived_message(self):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(np.zeros(4), 1, 3)
            else:
                yield ctx.env.timeout(1.0)   # never receives

        report = run_sanitized(main)
        leaks = report.by_kind("unreceived-message")
        assert leaks, report.render()
        assert "tag=3" in leaks[0].message

    def test_bridged_request_is_not_a_leak(self):
        """Fig 7 ownership transfer: a request bridged to an event need
        not be waited on."""
        def main(ctx):
            if ctx.rank == 0:
                req = yield from ctx.comm.irecv(np.empty(4), 1, 0)
                uev = clmpi.event_from_mpi_request(ctx.ocl, req)
                yield uev.completion
            else:
                yield from ctx.comm.send(np.zeros(4), 0, 0)

        report = run_sanitized(main)
        assert not report.by_kind("never-waited-request"), report.render()

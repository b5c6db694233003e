"""Fault injection under the sanitizer: tolerated faults leave a clean
report (no deadlock / leak / race false positives); injected failures
that do surface are classified as warnings, not program bugs.

This is the tier-1 smoke for the whole fault matrix: one example per
fault class runs a small full-stack workload under autosanitize.
"""

import numpy as np
import pytest

from repro import ClusterApp, clmpi
from repro.analysis import Sanitizer, autosanitize
from repro.faults import FaultPlan

NB = 1 << 18

#: one recoverable plan per fault class (the workload completes)
RECOVERABLE_PLANS = {
    "drop": FaultPlan(seed=3, events=(
        {"kind": "drop", "probability": 0.3},)),
    "corrupt": FaultPlan(seed=3, events=(
        {"kind": "corrupt", "probability": 0.3},)),
    "nic_flap": FaultPlan(seed=3, events=(
        {"kind": "nic_flap", "node": 1, "at": 0.0, "duration": 0.002},)),
    "straggler": FaultPlan(seed=3, events=(
        {"kind": "straggler", "resource": "nic", "factor": 3.0},)),
}


def transfer_workload(app):
    """A small device->device clMPI stream on a 2-rank app."""
    data = np.arange(NB, dtype=np.uint8)

    def main(ctx):
        q = ctx.queue()
        buf = ctx.ocl.create_buffer(NB)
        for i in range(4):
            if ctx.rank == 0:
                buf.bytes_view(0, NB)[:] = data
                yield from clmpi.enqueue_send_buffer(
                    q, buf, False, 0, NB, 1, i, ctx.comm)
            else:
                yield from clmpi.enqueue_recv_buffer(
                    q, buf, False, 0, NB, 0, i, ctx.comm)
        yield from q.finish()
        if ctx.rank == 1:
            return bool(np.array_equal(buf.bytes_view(0, NB), data))
        return True

    return app.run(main)


class TestRecoverableClassesAreClean:
    @pytest.mark.parametrize("fault_class", sorted(RECOVERABLE_PLANS))
    def test_tolerated_fault_leaves_clean_report(self, cichlid_preset,
                                                 fault_class):
        plan = RECOVERABLE_PLANS[fault_class]
        app = ClusterApp(cichlid_preset, 2, force_mode="pipelined",
                         force_block=1 << 15, faults=plan)
        with Sanitizer(app) as san:
            results = transfer_workload(app)
        assert all(results), results
        san.assert_clean()
        if fault_class != "straggler":  # derating injects no events
            assert san.report.stats["faults"] > 0, \
                f"{fault_class} plan never fired; weak test"

    def test_autosanitize_whole_script(self, cichlid_preset):
        with autosanitize() as session:
            app = ClusterApp(cichlid_preset, 2, force_mode="pinned",
                             faults=RECOVERABLE_PLANS["drop"])
            results = transfer_workload(app)
        assert all(results)
        assert session.ok, session.report.render()


class TestInjectedFailuresAreWarnings:
    def test_gpu_fail_reported_as_injected_fault(self, cichlid_preset):
        from repro.ocl import Kernel

        plan = FaultPlan(events=({"kind": "gpu_fail", "at": 0.0},))
        app = ClusterApp(cichlid_preset, 1, faults=plan)
        ctx0 = app.contexts[0]

        def main(ctx):
            q = ctx.queue()
            ev = yield from q.enqueue_nd_range_kernel(
                Kernel("k", cost=lambda gpu: 1e-3), ())
            yield from q.finish()
            return ev

        with Sanitizer(app) as san:
            app.run(main)
        kinds = {f.kind for f in san.report.findings}
        assert kinds == {"injected-fault"}
        assert all(f.severity == "warning" for f in san.report.findings)
        # crucially: the failed command must not read as deadlock/leak
        assert not any("deadlock" in k or "leak" in k for k in kinds)
        assert ctx0 is app.contexts[0]

    def test_exhausted_transfer_reported_as_injected_fault(
            self, cichlid_preset):
        plan = FaultPlan(seed=5, events=(
            {"kind": "drop", "probability": 1.0},))
        app = ClusterApp(cichlid_preset, 2, force_mode="mapped",
                         faults=plan)
        data = np.zeros(1024, dtype=np.uint8)

        def main(ctx):
            q = ctx.queue()
            buf = ctx.ocl.create_buffer(1024)
            if ctx.rank == 0:
                buf.bytes_view(0, 1024)[:] = data
                yield from clmpi.enqueue_send_buffer(
                    q, buf, False, 0, 1024, 1, 0, ctx.comm)
            else:
                yield from clmpi.enqueue_recv_buffer(
                    q, buf, False, 0, 1024, 0, 0, ctx.comm)
            yield from q.finish()

        with Sanitizer(app) as san:
            app.run(main)
        kinds = [f.kind for f in san.report.findings]
        assert kinds and set(kinds) == {"injected-fault"}
        assert not any(f.severity == "error" for f in san.report.findings)

    def test_real_bugs_still_error(self, env):
        """A non-injected event failure keeps its error severity."""
        from repro.analysis.recorder import Recorder
        from repro.ocl.event import UserEvent

        rec = env.attach(Recorder(env))
        uev = UserEvent(env)
        uev.set_failed(RuntimeError("application bug"))
        env.detach(rec)
        assert [f.kind for f in rec.direct_findings] == ["event-failed"]
        assert rec.direct_findings[0].severity == "error"

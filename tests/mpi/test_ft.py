"""ULFM-style fault tolerance: detection, revoke, shrink, agree.

The recovery contract under test (see ``docs/faults.md``):

* a fail-stopped peer surfaces as :class:`MpiRankFailed` (naming the
  rank and node) *quickly* — the reliable-send layer stops
  retransmitting the moment the injector reports the peer dead;
* ``Comm.revoke()`` poisons every endpoint so no rank blocks forever
  on a communicator that can never again be whole;
* ``Comm.shrink()`` hands the survivors a smaller, fully working
  communicator; ``Comm.agree()`` gives them an identical view of who
  died;
* collectives stay *live* under transient loss (retransmission) and
  fail *bounded* under crashes (no stranded third-party ranks).
"""

import numpy as np
import pytest

from repro.errors import MpiError, MpiRankFailed, MpiRevoked
from repro.faults import FaultPlan
from repro.mpi.world import MpiWorld

CRASH1 = FaultPlan(seed=3, events=(
    {"kind": "node_crash", "node": 1, "at": 0.0},))


def payload(nbytes, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


class TestFailureDetection:
    def test_send_to_dead_peer_raises_rank_failed(self, cichlid_preset):
        world = MpiWorld(cichlid_preset, 2, faults=CRASH1, metrics=True)

        def main(comm):
            if comm.rank == 0:
                try:
                    yield from comm.send(payload(64), 1, tag=0)
                except MpiRankFailed as exc:
                    return exc
            else:
                yield comm.env.timeout(0)

        exc = world.run(main)[0]
        assert isinstance(exc, MpiRankFailed)
        assert exc.rank == 1 and exc.node == 1
        assert "fail-stopped" in str(exc)
        assert world.detector is not None
        assert world.detector.failed_nodes == {1}
        assert world.metrics.snapshot()["counters"]["ft.detections"] == 1

    def test_fast_fail_beats_retry_exhaustion(self, cichlid_preset):
        # a dead peer must NOT cost the full exponential retry schedule
        world = MpiWorld(cichlid_preset, 2, faults=CRASH1)

        def main(comm):
            if comm.rank == 0:
                with pytest.raises(MpiRankFailed):
                    yield from comm.send(payload(64), 1, tag=0)
            else:
                yield comm.env.timeout(0)

        world.run(main)
        cfg = world.config
        exhaustion = sum(cfg.ack_timeout * cfg.retry_backoff ** i
                         for i in range(cfg.max_retries))
        assert world.env.now < exhaustion / 10

    def test_no_detector_without_faults(self, cichlid_preset):
        assert MpiWorld(cichlid_preset, 2).detector is None


class TestRevoke:
    def test_revoke_wakes_pending_recv(self, world2):
        def main(comm):
            if comm.rank == 0:
                # never sends: rank 1's recv can only end via revoke
                yield comm.env.timeout(1e-4)
                comm.revoke(reason="test")
                assert comm.revoked
            else:
                buf = np.empty(64, dtype=np.uint8)
                with pytest.raises(MpiRevoked):
                    yield from comm.recv(buf, 0, tag=0)

        world2.run(main)

    def test_operations_on_revoked_comm_raise(self, world2):
        def main(comm):
            comm.revoke()
            comm.revoke()  # idempotent
            with pytest.raises(MpiRevoked):
                yield from comm.send(payload(8), 1 - comm.rank, tag=0)
            with pytest.raises(MpiRevoked):
                yield from comm.barrier()

        world2.run(main)


class TestShrinkAgree:
    @staticmethod
    def _recovering_main(comm):
        """Barrier under a crash; survivors shrink + agree + barrier."""
        try:
            yield from comm.barrier()
            return {"survivor": True, "failed": (), "world": comm.size}
        except MpiError:
            comm.revoke(injected=True)
        try:
            shrunk = yield from comm.shrink()
        except MpiRankFailed:
            return {"survivor": False}
        failed = yield from comm.agree()
        yield from shrunk.barrier()  # the shrunken comm must be *live*
        return {"survivor": True, "failed": failed, "world": shrunk.size,
                "rank": shrunk.rank}

    def test_survivors_get_live_shrunken_comm(self, cichlid_preset):
        plan = FaultPlan(seed=1, events=(
            {"kind": "node_crash", "node": 2, "at": 0.0},))
        world = MpiWorld(cichlid_preset, 4, faults=plan, metrics=True)
        out = world.run(self._recovering_main)
        survivors = [o for o in out if o and o.get("survivor")]
        assert len(survivors) == 3
        assert out[2] == {"survivor": False}  # the dead rank itself
        # ULFM agreement: identical fault view and compacted ranks
        assert {tuple(s["failed"]) for s in survivors} == {(2,)}
        assert {s["world"] for s in survivors} == {3}
        assert sorted(s["rank"] for s in survivors) == [0, 1, 2]
        counters = world.metrics.snapshot()["counters"]
        assert counters["ft.shrinks"] == 1
        assert counters["ft.revokes"] == 1
        assert world.comm(0).failed_ranks() == [2]

    def test_shrink_without_failures_is_identity_sized(self, world2):
        def main(comm):
            shrunk = yield from comm.shrink()
            return shrunk.size

        assert world2.run(main) == [2, 2]


class TestCollectivesUnderFaults:
    def test_allreduce_completes_under_drop(self, cichlid_preset):
        # satellite regression: a dropped fragment inside a collective
        # must be retransmitted, not hang the tree
        plan = FaultPlan(seed=7, events=(
            {"kind": "drop", "probability": 0.2},))
        world = MpiWorld(cichlid_preset, 4, faults=plan)

        def main(comm):
            buf = np.array([float(comm.rank + 1)])
            out = np.empty(1)
            yield from comm.allreduce(buf, out)
            return float(out[0])

        assert world.run(main) == [10.0] * 4
        assert world.faults.summary()["by_kind"].get("drop", 0) > 0

    def test_crash_mid_collective_bounds_every_rank(self, cichlid_preset):
        # no third-party rank may be stranded when a peer fail-stops:
        # the failure propagates by revoking the communicator
        plan = FaultPlan(seed=2, events=(
            {"kind": "node_crash", "node": 3, "at": 0.0},))
        world = MpiWorld(cichlid_preset, 4, faults=plan)

        def main(comm):
            try:
                yield from comm.barrier()
                return "ok"
            except MpiError as exc:
                return type(exc).__name__

        out = world.run(main)
        assert all(o in ("MpiRankFailed", "MpiRevoked") for o in out), out

    def test_plain_collective_errors_do_not_revoke(self, world2):
        def main(comm):
            buf, out = np.array([1.0]), np.empty(1)
            with pytest.raises(MpiError):
                yield from comm.allreduce(buf, out, op="bogus")
            assert not comm.revoked
            yield from comm.barrier()  # comm still fully usable

        world2.run(main)

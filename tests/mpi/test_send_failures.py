"""Failure paths of the per-message send and receive chains.

Each test drives one way a message can go wrong and checks where the
error surfaces: out of ``world.run`` (a program bug such as truncation),
at the waiting rank (revoke, dead peer), or nowhere at all when nobody
waits on the request (pre-defused failures must not escape
``Environment.run``).
"""

import numpy as np
import pytest

from repro.errors import MpiError, MpiRankFailed, MpiRevoked
from repro.faults import FaultPlan
from repro.mpi import MpiWorld

LARGE = 256 * 1024  # rendezvous on Cichlid (threshold 64 KiB)


def _ports_free(world):
    for nic in world.cluster.fabric.nics:
        for port in (nic.tx, nic.rx):
            assert (port.count, port.queue_len) == (0, 0), port.name


class TestTruncation:
    def test_rendezvous_truncation_raises_and_frees_the_ports(
            self, cichlid_preset):
        world = MpiWorld(cichlid_preset, 2)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(LARGE, np.uint8), 1)
            else:
                yield from comm.recv(np.empty(LARGE // 2, np.uint8), 0)

        with pytest.raises(MpiError, match="truncated"):
            world.run(main)
        _ports_free(world)
        world.env.run()  # nothing else is left failing on the calendar


class TestRevokedRendezvous:
    @staticmethod
    def _main(wait):
        def main(comm):
            if comm.rank == 0:
                req = yield from comm.isend(np.zeros(LARGE, np.uint8), 1)
                if wait:
                    with pytest.raises(MpiRevoked):
                        yield from req.wait()
                return req
            yield comm.env.timeout(1e-4)  # the sender parks on CTS
            comm.revoke(reason="test")
        return main

    def test_revoke_wakes_a_parked_sender(self, world2):
        req, _ = world2.run(self._main(wait=True))
        assert isinstance(req.completion.value, MpiRevoked)
        _ports_free(world2)

    def test_unwaited_revoked_send_does_not_escape_run(self, world2):
        req, _ = world2.run(self._main(wait=False))
        completion = req.completion
        assert completion.processed and not completion.ok
        assert isinstance(completion.value, MpiRevoked)
        assert not req.consumed


class TestDeadPeer:
    # every frame drops until node 1 fail-stops: the sender retransmits
    # until the injector reports the peer dead, then gives up at once
    PLAN = FaultPlan(seed=1, events=(
        {"kind": "drop", "probability": 1.0},
        {"kind": "node_crash", "node": 1, "at": 5e-4},
    ))

    @pytest.mark.parametrize("nbytes", [64, LARGE])
    def test_retries_against_a_dead_peer_name_it(self, cichlid_preset,
                                                 nbytes):
        world = MpiWorld(cichlid_preset, 2, faults=self.PLAN)

        def main(comm):
            if comm.rank == 0:
                with pytest.raises(MpiRankFailed) as ei:
                    yield from comm.send(np.zeros(nbytes, np.uint8), 1)
                return ei.value
            req = yield from comm.irecv(np.empty(nbytes, np.uint8), 0)
            with pytest.raises(MpiRankFailed):
                yield from req.wait()

        exc, _ = world.run(main)
        assert (exc.rank, exc.node) == (1, 1)
        assert "rank 1 (node 1) has fail-stopped" in str(exc)
        attempts = int(str(exc).split("gave up after ")[1].split()[0])
        assert attempts > 1  # retransmitted before the peer died
        assert world.faults.counts["drop"] == attempts - 1
        assert world.detector.failed_nodes == {1}
        _ports_free(world)

    def test_unwaited_send_to_a_dead_peer_does_not_escape_run(
            self, cichlid_preset):
        world = MpiWorld(cichlid_preset, 2, faults=self.PLAN)

        def main(comm):
            if comm.rank == 0:
                req = yield from comm.isend(np.zeros(64, np.uint8), 1)
                return req
            yield comm.env.timeout(0)

        req, _ = world.run(main)
        assert isinstance(req.completion.value, MpiRankFailed)
        assert world.env.now > 5e-4  # the chain ran to its give-up

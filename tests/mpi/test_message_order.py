"""Heap-order fingerprint of the MPI message path.

Every simulated message is a chain of calendar entries: a bootstrap,
the eager staging delay or the rendezvous handshake, the NIC port
grants, the wire time, acks and backoffs under fault injection, and the
completions.  Ties at one timestamp resolve by ``(priority, sequence)``
and the schedule-space verifier enumerates those ties by label, so a
change to *how* a message is driven must leave the fired heap entries
exactly as they were: same times, same priorities, same sequence
numbers, same tie labels.

This test fires one small program per scenario on both presets, records
``(time, priority, seq, tie label)`` of every fired entry, and compares
the digest with one pinned from the generator-process implementation
the callback chains replaced.  The scenarios between them cover eager,
rendezvous, unexpected eager (the buffered copy), ``ANY_SOURCE``,
same-node loopback, a rate-limited send, contended NIC ports, object
messages, a revoke waking a parked rendezvous sender, a lossy link
forcing retransmits, a NIC flap, and a give-up against a fail-stopped
peer — each fully detached, and again with a monitor and a metrics
registry attached (monitors switch the per-message names the tie labels
carry).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import MpiRankFailed, MpiRevoked
from repro.faults import FaultPlan
from repro.mpi import MpiWorld
from repro.mpi.status import ANY_SOURCE
from repro.sim import Environment
from repro.sim.probe import Probe
from repro.systems import cichlid, ricc

SMALL = 1024          # eager on both presets (threshold 64 KiB)
LARGE = 256 * 1024    # rendezvous on both presets

LOSSY = FaultPlan(seed=5, events=(
    {"kind": "drop", "probability": 0.3},
    {"kind": "nic_flap", "node": 1, "at": 4e-4, "duration": 2e-4},
    {"kind": "straggler", "node": 0, "resource": "nic", "factor": 1.5},
))
CRASH = FaultPlan(seed=3, events=(
    {"kind": "node_crash", "node": 1, "at": 0.0},))


class _NullMonitor(Probe):
    """Consumes no hook: attaching it only switches the MPI layer to its
    descriptive per-message names."""

    names = True


def _data(n, seed):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def clean(comm):
    """Eager, rendezvous, unexpected eager, ANY_SOURCE, loopback,
    rate limits on both ends, contended ports, object messages."""
    me = comm.rank
    if me == 0:
        yield from comm.send(_data(SMALL, 1), 1, tag=1)
        yield from comm.send(_data(LARGE, 2), 1, tag=2)
        early = yield from comm.isend(_data(SMALL, 3), 1, tag=3)
        # loopback: same node, eager and rendezvous
        out_s = np.empty(SMALL, np.uint8)
        out_l = np.empty(LARGE, np.uint8)
        loop = [(yield from comm.isend(_data(SMALL, 4), 0, tag=4)),
                (yield from comm.irecv(out_s, 0, tag=4)),
                (yield from comm.irecv(out_l, 0, tag=5)),
                (yield from comm.isend(_data(LARGE, 5), 0, tag=5))]
        # two rendezvous messages contend for this node's tx port
        a = yield from comm.isend(_data(LARGE, 6), 2, tag=6,
                                  rate_limit=0.5e9)
        b = yield from comm.isend(_data(LARGE, 7), 1, tag=8)
        for req in [early, *loop, a, b]:
            yield from req.wait()
        yield from comm.send_obj({"k": 1}, 1, tag=9)
        yield from comm.send(_data(SMALL, 8), 1, tag=7)
        return int(out_s.sum()) + int(out_l.sum())
    if me == 1:
        got = np.empty(LARGE, np.uint8)
        yield from comm.recv(got[:SMALL], 0, tag=1)
        yield from comm.recv(got, 0, tag=2)
        yield comm.env.timeout(1e-3)  # tag 3 arrives unexpected
        yield from comm.recv(got[:SMALL], 0, tag=3)
        yield from comm.recv(got, 0, tag=8)
        obj, _ = yield from comm.recv_obj(0, tag=9)
        sources = []
        for _ in range(2):
            st = yield from comm.recv(got[:SMALL], ANY_SOURCE, tag=7)
            sources.append(st.source)
        return obj["k"], sources
    got = np.empty(LARGE, np.uint8)
    req = yield from comm.irecv_bytes(got, LARGE, 0, 6, rate_limit=0.25e9)
    yield from req.wait()
    yield from comm.send(_data(SMALL, 9), 1, tag=7)
    return int(got[:8].sum())


def revoke(comm):
    """A rendezvous sender parked on clear-to-send when the receiver's
    side revokes the communicator."""
    if comm.rank == 0:
        req = yield from comm.isend(_data(LARGE, 1), 1, tag=1)
        with pytest.raises(MpiRevoked):
            yield from req.wait()
        return "revoked"
    yield comm.env.timeout(2e-4)
    comm.revoke(reason="fingerprint")
    return "revoker"


def lossy(comm):
    """Both protocols both ways over a lossy, flapping, derated link."""
    peer = 1 - comm.rank
    got = np.empty(LARGE, np.uint8)
    for i in range(4):
        n = SMALL if i % 2 == 0 else LARGE
        if comm.rank == 0:
            yield from comm.send(_data(n, i), peer, tag=i)
            yield from comm.recv(got[:n], peer, tag=100 + i)
        else:
            yield from comm.recv(got[:n], peer, tag=i)
            yield from comm.send(_data(n, i), peer, tag=100 + i)
    return int(got[:8].sum())


def crash(comm):
    """Give-up against a fail-stopped peer, eager and rendezvous."""
    if comm.rank == 0:
        failed = []
        for n in (SMALL, LARGE):
            try:
                yield from comm.send(_data(n, 0), 1, tag=n)
            except MpiRankFailed as exc:
                failed.append(exc.rank)
        return failed
    # the rendezvous give-up reaches the matched receive as well
    req = yield from comm.irecv(np.empty(LARGE, np.uint8), 0, tag=LARGE)
    try:
        yield from req.wait()
    except MpiRankFailed as exc:
        return exc.rank


SCENARIOS = {
    "clean": (clean, 3, None),
    "revoke": (revoke, 2, None),
    "lossy": (lossy, 2, LOSSY),
    "crash": (crash, 2, CRASH),
}


def fire(preset, scenario: str, attached: bool):
    """Run one scenario entry by entry; return ``(entries, results,
    world)`` with one ``(time, priority, seq, tie label)`` per fired
    calendar entry.  ``attached`` adds a monitor and a metrics
    registry."""
    main, ranks, plan = SCENARIOS[scenario]
    world = MpiWorld(preset, ranks, faults=plan, metrics=attached)
    env = world.env
    if attached:
        env.attach(_NullMonitor())
    procs = world.launch(main)
    heap, entries = env._heap, []
    while heap:
        when, prio, seq, event = heap[0]
        entries.append((repr(when), prio, seq,
                        Environment._tie_label(event)))
        env.step()
    assert not any(p.is_alive for p in procs), scenario
    return entries, [p.value for p in procs], world


def fingerprint(preset) -> tuple[str, int]:
    """Digest and entry count over every scenario, detached and
    attached."""
    h, count = hashlib.sha256(), 0
    for scenario in SCENARIOS:
        for attached in (False, True):
            entries, _, _ = fire(preset, scenario, attached)
            count += len(entries)
            h.update(json.dumps([scenario, attached, entries]).encode())
    return h.hexdigest(), count


#: pinned from the generator-process message path (one ``mpi.send`` and
#: one ``mpi.recv`` process per message); any reordering of a push in
#: the message path changes these
PINNED = {
    "cichlid": ("85ad421e09f90d158c9747d83f98375c9c660f90ed58ad6fd3c2e703f758ea07",
                566),
    "ricc": ("b9f5f418165a88922b7cb11ea07ca9c92c49f35f1741d3bc57727a572996c9e9",
             568),
}

PRESETS = {"cichlid": cichlid, "ricc": ricc}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_heap_order_fingerprint_is_pinned(name):
    digest, count = fingerprint(PRESETS[name]())
    assert (digest, count) == PINNED[name]


def test_scenarios_cover_the_paths_they_claim(cichlid_preset):
    entries, res, _ = fire(cichlid_preset, "clean", attached=False)
    assert res[1] == (1, [2, 0]) or res[1] == (1, [0, 2])
    assert res[0] == int(_data(SMALL, 4).sum()) + int(_data(LARGE, 5).sum())
    assert {e[3] for e in entries} >= {"mpi.send", "mpi.recv",
                                       "rank0.main", "rank1.main"}
    entries, _, world = fire(cichlid_preset, "clean", attached=True)
    counters = world.metrics.snapshot()["counters"]
    assert counters["mpi.eager"] >= 4 and counters["mpi.rndv"] >= 4
    assert "mpi.send r0->r1 t2" in {e[3] for e in entries}
    assert "mpi.recv r1<-r0 t2" in {e[3] for e in entries}

    _, res, _ = fire(cichlid_preset, "revoke", attached=False)
    assert res == ["revoked", "revoker"]

    _, _, world = fire(cichlid_preset, "lossy", attached=True)
    counters = world.metrics.snapshot()["counters"]
    assert counters["mpi.retransmits"] > 0 and counters["mpi.acks"] > 0
    kinds = world.faults.summary()["by_kind"]
    assert kinds.get("drop", 0) > 0 and kinds.get("down", 0) > 0

    _, res, _ = fire(cichlid_preset, "crash", attached=False)
    assert res == [[1, 1], 1]

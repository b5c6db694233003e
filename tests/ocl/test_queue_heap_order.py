"""Heap-order fingerprints of the command-queue paths.

A command queue decides which calendar entries a command costs: the
dispatcher's bootstrap, one entry when it takes each command, its
wait-list condition, and whatever the command body waits on.  The
schedule-space verifier enumerates same-time ties by their labels, so
any rewrite of how a queue dispatches must leave the fired entries
exactly as they were: same times, same priorities, same sequence
numbers, same tie labels.

Each scenario runs on one Cichlid node, records ``(time, priority, seq,
tie label)`` of every fired entry plus a log of what the program saw
(statuses, error codes, profiling times), and compares the digest and
entry count with pinned values.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.mpi.world import MpiWorld
from repro.ocl import Context, Device, Kernel
from repro.sim import Environment
from repro.systems import cichlid


class _FreeHost:
    """A node's host whose API calls cost nothing and never yield, so a
    process can enqueue in the very step that created the queue."""

    def __init__(self, host):
        self._host = host

    def api_call(self):
        return
        yield  # pragma: no cover - makes this a generator

    def __getattr__(self, name):
        return getattr(self._host, name)


def _kernel(name, duration, body=None):
    return Kernel(name, body=body, cost=lambda gpu, *a: duration)


def _outcome(evt):
    """What a program can observe of one command event."""
    code = getattr(evt.error, "code", None) if evt.error else None
    return [evt.label, evt.status.name, evt.execution_status, code,
            {s.name: repr(t) for s, t in sorted(evt.profile.items())}]


def _fire(env) -> list:
    """Drain ``env`` step by step, returning each fired entry."""
    entries, heap = [], env._heap
    while heap:
        when, prio, seq, event = heap[0]
        entries.append((repr(when), prio, seq,
                        Environment._tie_label(event)))
        env.step()
    return entries


def _node(free_host=False):
    world = MpiWorld(cichlid(), 1)
    device = Device(world.cluster[0])
    host = _FreeHost(device.node.host) if free_host else None
    return world.env, Context(device, host=host)


def wait_list_failure(env, ctx, log):
    """A failed user event and a failed kernel poison the wait lists of
    later commands (``CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST``);
    the queue keeps going with the command after them."""
    q = ctx.create_queue()
    bad = Kernel("bad", body=lambda: 1 / 0, flops=1.0)

    def main():
        uev = ctx.create_user_event("gate")
        e1 = yield from q.enqueue_nd_range_kernel(_kernel("a", 1e-3), ())
        e2 = yield from q.enqueue_marker(wait_for=(uev,))
        e3 = yield from q.enqueue_nd_range_kernel(bad, ())
        e4 = yield from q.enqueue_nd_range_kernel(_kernel("b", 2e-3), (),
                                                  wait_for=(e3,))
        e5 = yield from q.enqueue_nd_range_kernel(_kernel("c", 1e-3), ())
        yield env.timeout(5e-4)
        uev.set_failed(RuntimeError("gate broke"))
        yield from q.finish()
        log.extend(_outcome(e) for e in (e1, e2, e3, e4, e5))

    env.process(main(), name="host")


def execute_raises(env, ctx, log):
    """A command body that raises fails its event and the queue runs the
    next command; a dependent on another queue sees the failure."""
    q, other = ctx.create_queue(), ctx.create_queue()
    buf = ctx.create_buffer(64)

    def boom():
        raise ValueError("kernel body")

    def main():
        e1 = yield from q.enqueue_nd_range_kernel(
            _kernel("boom", 1e-3, body=boom), ())
        e2 = yield from q.enqueue_write_buffer(buf, False, 0, 64,
                                               np.ones(64, np.uint8))
        e3 = yield from other.enqueue_marker(wait_for=(e1,))
        try:
            yield from e1.wait()
        except ValueError as exc:
            log.append(str(exc))
        yield from q.finish()
        yield from other.finish()
        log.extend(_outcome(e) for e in (e1, e2, e3))

    env.process(main(), name="host")


def blocking_read_write(env, ctx, log):
    """Blocking writes and reads return once their copy completed,
    behind a kernel enqueued before them."""
    q = ctx.create_queue()
    buf = ctx.create_buffer(1 << 16)
    src = np.arange(1 << 16, dtype=np.uint8)
    dst = np.zeros(1 << 16, dtype=np.uint8)

    def main():
        e0 = yield from q.enqueue_nd_range_kernel(_kernel("k", 1e-3), ())
        e1 = yield from q.enqueue_write_buffer(buf, True, 0, 1 << 16, src)
        log.append(repr(env.now))
        e2 = yield from q.enqueue_read_buffer(buf, True, 0, 1 << 16, dst,
                                              pinned=False)
        log.append(repr(env.now))
        log.append(bool((dst == src).all()))
        log.extend(_outcome(e) for e in (e0, e1, e2))

    env.process(main(), name="host")


def marker_and_barrier(env, ctx, log):
    """Markers and barriers on an in-order and an out-of-order queue."""
    q = ctx.create_queue()
    ooo = ctx.create_queue(in_order=False, name="ooo")

    def main():
        k1 = yield from q.enqueue_nd_range_kernel(_kernel("k1", 2e-3), ())
        m1 = yield from q.enqueue_marker()
        b1 = yield from q.enqueue_barrier()
        k2 = yield from ooo.enqueue_nd_range_kernel(_kernel("k2", 1e-3), ())
        k3 = yield from ooo.enqueue_nd_range_kernel(_kernel("k3", 3e-3), ())
        b2 = yield from ooo.enqueue_barrier()
        m2 = yield from ooo.enqueue_marker(wait_for=(m1,))
        k4 = yield from ooo.enqueue_nd_range_kernel(_kernel("k4", 1e-3), ())
        yield from b2.wait()
        log.append(repr(env.now))
        yield from q.finish()
        yield from ooo.finish()
        log.extend(_outcome(e) for e in (k1, m1, b1, k2, k3, b2, m2, k4))

    env.process(main(), name="host")


def enqueued_before_bootstrap(env, ctx, log):
    """Commands that reach an in-order queue before its dispatcher has
    started: a queue created in a process step that then enqueues at no
    cost, and a queue that gets its first command while idle."""
    events = []

    def main():
        q = ctx.create_queue(name="early")
        for i in range(3):
            events.append((yield from q.enqueue_nd_range_kernel(
                _kernel(f"e{i}", 1e-3 * (i + 1)), ())))
        idle = ctx.create_queue(name="idle")
        yield env.timeout(1e-2)
        events.append((yield from idle.enqueue_marker()))
        events.append((yield from idle.enqueue_nd_range_kernel(
            _kernel("late", 1e-3), ())))
        yield from q.finish()
        yield from idle.finish()
        log.extend(_outcome(e) for e in events)

    env.process(main(), name="host")


def finish_on_drained_queue(env, ctx, log):
    """``finish`` on a queue that never held a command and on one that
    has drained costs one API call, not a wait."""
    q = ctx.create_queue()

    def main():
        yield from q.finish()
        log.append(repr(env.now))
        e = yield from q.enqueue_nd_range_kernel(_kernel("k", 1e-3), ())
        yield from e.wait()
        log.append(repr(env.now))
        yield from q.finish()
        log.append(repr(env.now))
        yield from q.finish()
        log.append(repr(env.now))
        log.append(_outcome(e))

    env.process(main(), name="host")


SCENARIOS = {
    "wait_list_failure": (wait_list_failure, False),
    "execute_raises": (execute_raises, False),
    "blocking_read_write": (blocking_read_write, False),
    "marker_and_barrier": (marker_and_barrier, False),
    "enqueued_before_bootstrap": (enqueued_before_bootstrap, True),
    "finish_on_drained_queue": (finish_on_drained_queue, False),
}


def fingerprint(name: str) -> tuple[str, int]:
    scenario, free_host = SCENARIOS[name]
    env, ctx = _node(free_host)
    log: list = []
    scenario(env, ctx, log)
    entries = _fire(env)
    assert log, f"{name} did not run to its end"
    digest = hashlib.sha256(
        json.dumps([entries, log]).encode()).hexdigest()
    return digest, len(entries)


#: pinned from the in-order dispatcher as a generator process parked on
#: a FIFO mailbox
PINNED = {
    "wait_list_failure": (
        "3b2ea3c0a7e93e02ccbaab66090e00282db2056113b61a41c750c2e832f30734", 32),
    "execute_raises": (
        "d1fd0b4c47fb6e9b7727f5cfcd68a56f983ddae22973e987a1b811f9aaed461a", 20),
    "blocking_read_write": (
        "8b8d2ef77c058893c81a2a12f576518c1ea48c3114d4bbf9cf39e7ac25f464c2", 19),
    "marker_and_barrier": (
        "c9e74de5ab5a74fe2db280171906d3154a6f0106af5a860fc16f304225f58d0b", 45),
    "enqueued_before_bootstrap": (
        "69b6b308cca26bc7493212be68fb8259752473f51e97b9de32a774076b3e8cd0", 25),
    "finish_on_drained_queue": (
        "758876fc61a4f800ab407aa66cdd17d9abfdaa9f140d7abea6faea11f8a93319", 10),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_queue_heap_order_is_pinned(name):
    assert fingerprint(name) == PINNED[name]


def _observed(scenario, free_host=False):
    env, ctx = _node(free_host)
    log: list = []
    scenario(env, ctx, log)
    return _fire(env), log


def test_scenarios_reach_the_paths_they_claim():
    _, log = _observed(wait_list_failure)
    assert [entry[3] for entry in log] == [
        None, "CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST", None,
        "CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST", None]
    assert [entry[1] for entry in log] == ["COMPLETE"] * 5

    _, log = _observed(execute_raises)
    assert log[0] == "kernel body"
    assert [entry[2] < 0 for entry in log[1:]] == [True, False, True]

    entries, log = _observed(enqueued_before_bootstrap, free_host=True)
    # the three commands were queued at t=0 before the early queue's
    # HIGH bootstrap entry fired, and the first started at once
    first = next(e for e in entries if e[3] == "early.dispatcher")
    assert first[:2] == (repr(0.0), 0)
    assert [e[4]["QUEUED"] for e in log[:3]] == [repr(0.0)] * 3
    assert log[0][4]["RUNNING"] == repr(0.0)

    _, log = _observed(marker_and_barrier)
    assert [entry[1] for entry in log[1:]] == ["COMPLETE"] * 8

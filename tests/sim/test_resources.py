"""Unit tests of Resource."""

import pytest

from repro.sim import Resource
from repro.sim.core import SimulationError


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_when_free(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            grant = yield from res.acquire()
            assert res.count == 1
            res.release(grant)
            assert res.count == 0
            return "ok"

        p = env.process(proc(env))
        env.run()
        assert p.value == "ok"

    def test_serializes_to_capacity(self, env):
        res = Resource(env, capacity=1)
        spans = []

        def user(env, i):
            grant = yield from res.acquire()
            start = env.now
            yield env.timeout(1.0)
            res.release(grant)
            spans.append((i, start, env.now))

        for i in range(3):
            env.process(user(env, i))
        env.run()
        # strictly back-to-back, FIFO order
        assert spans == [(0, 0.0, 1.0), (1, 1.0, 2.0), (2, 2.0, 3.0)]

    def test_capacity_two_overlaps(self, env):
        res = Resource(env, capacity=2)
        done = []

        def user(env, i):
            grant = yield from res.acquire()
            yield env.timeout(1.0)
            res.release(grant)
            done.append((i, env.now))

        for i in range(4):
            env.process(user(env, i))
        env.run()
        assert done == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]

    def test_queue_len(self, env):
        res = Resource(env, capacity=1)
        res.request()
        res.request()
        res.request()
        assert res.count == 1
        assert res.queue_len == 2

    def test_release_unheld_grant_rejected(self, env):
        res = Resource(env, capacity=1)
        a = res.request()
        res.release(a)
        with pytest.raises(SimulationError):
            res.release(a)

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        a = res.request()
        b = res.request()  # queued
        res.release(b)     # cancels the queued request
        assert res.queue_len == 0
        assert res.count == 1
        res.release(a)
        assert res.count == 0

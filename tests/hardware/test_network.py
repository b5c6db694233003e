"""Unit tests of the NIC/fabric model."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.network import Fabric, FabricSpec, NicSpec


def nic(**kw):
    d = dict(name="testnic", bandwidth=1e9, latency=10e-6,
             per_message_overhead=1e-6)
    d.update(kw)
    return NicSpec(**d)


def fabric(env, nodes=4, **kw):
    d = dict(nic=nic(), switch_latency=1e-6, loopback_bandwidth=4e9)
    d.update(kw)
    return Fabric(env, FabricSpec(**d), nodes)


class TestNicSpec:
    def test_wire_time(self):
        assert nic().wire_time(1_000_000) == pytest.approx(10e-6 + 1e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            nic(bandwidth=0)
        with pytest.raises(ConfigurationError):
            nic(latency=-1)
        with pytest.raises(ValueError):
            nic().wire_time(-5)


class TestFabric:
    def test_needs_a_node(self, env):
        with pytest.raises(ConfigurationError):
            fabric(env, nodes=0)

    def test_unloaded_time(self, env):
        f = fabric(env)
        assert f.unloaded_time(1_000_000, 0, 1) == pytest.approx(
            10e-6 + 1e-3 + 1e-6)

    def test_loopback_cheap(self, env):
        f = fabric(env)
        assert f.unloaded_time(4_000_000, 2, 2) == pytest.approx(1e-3)

    def test_rate_limit_caps_bandwidth(self, env):
        f = fabric(env)
        slow = f.unloaded_time(1_000_000, 0, 1, rate_limit=0.5e9)
        fast = f.unloaded_time(1_000_000, 0, 1)
        assert slow == pytest.approx(10e-6 + 2e-3 + 1e-6)
        assert slow > fast

    def test_rate_limit_above_nic_ignored(self, env):
        f = fabric(env)
        assert f.unloaded_time(1_000_000, 0, 1, rate_limit=10e9) == \
            f.unloaded_time(1_000_000, 0, 1)

    def test_send_moves_clock(self, env):
        f = fabric(env)

        def proc(env):
            return (yield f.send(0, 1, 1_000_000))

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(10e-6 + 1e-3 + 1e-6)

    def test_sender_tx_serializes(self, env):
        """Two messages from the same node serialize on its tx port."""
        f = fabric(env)

        def proc(env, dst):
            yield f.send(0, dst, 1_000_000)

        env.process(proc(env, 1))
        env.process(proc(env, 2))
        env.run()
        assert env.now == pytest.approx(2 * (10e-6 + 1e-3 + 1e-6))

    def test_receiver_rx_serializes(self, env):
        """Two messages into the same node serialize on its rx port."""
        f = fabric(env)

        def proc(env, src):
            yield f.send(src, 3, 1_000_000)

        env.process(proc(env, 0))
        env.process(proc(env, 1))
        env.run()
        assert env.now == pytest.approx(2 * (10e-6 + 1e-3 + 1e-6))

    def test_disjoint_pairs_fully_parallel(self, env):
        f = fabric(env)

        def proc(env, src, dst):
            yield f.send(src, dst, 1_000_000)

        env.process(proc(env, 0, 1))
        env.process(proc(env, 2, 3))
        env.run()
        assert env.now == pytest.approx(10e-6 + 1e-3 + 1e-6)

    def test_control_message_latency_only(self, env):
        f = fabric(env)

        def proc(env):
            t0 = env.now
            yield f.control_message(0, 1)
            return env.now - t0

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(11e-6)

    @pytest.mark.parametrize("src,dst", [
        (-1, 1), (4, 1), (0, -1), (0, 4), (7, 7),
    ])
    def test_send_rejects_out_of_range_node(self, env, src, dst):
        f = fabric(env)  # nodes 0..3
        with pytest.raises(ConfigurationError, match="out of range"):
            f.send(src, dst, 64)

    @pytest.mark.parametrize("bad", [1.5, "1", None, (1,)])
    def test_send_rejects_non_integer_node(self, env, bad):
        f = fabric(env)
        with pytest.raises(ConfigurationError, match="must be an integer"):
            f.send(bad, 1, 64)

    def test_send_accepts_integer_likes(self, env):
        """Anything ``operator.index`` accepts (e.g. numpy ints) works."""
        import numpy as np

        f = fabric(env)

        def proc(env):
            yield f.send(np.int64(0), np.int32(1), 1_000_000)

        env.process(proc(env))
        env.run()
        assert env.now > 0

    def test_control_message_validates_too(self, env):
        f = fabric(env)
        with pytest.raises(ConfigurationError, match="dst node id"):
            f.control_message(0, 99)
        with pytest.raises(ConfigurationError, match="src node id"):
            f.control_message(-2, 1)

    def test_full_duplex(self, env):
        """Opposite directions between two nodes overlap (tx vs rx)."""
        f = fabric(env)

        def a(env):
            yield f.send(0, 1, 1_000_000)

        def b(env):
            yield f.send(1, 0, 1_000_000)

        env.process(a(env))
        env.process(b(env))
        env.run()
        assert env.now == pytest.approx(10e-6 + 1e-3 + 1e-6)

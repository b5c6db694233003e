"""Unit tests of the NIC/fabric model."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.network import Fabric, FabricSpec, NicSpec
from repro.sim import Environment


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
        """A frame holds a NIC for latency + size/bandwidth; the wire
        rule on FabricSpec adds only the switch hop on top of that."""
        n = nic()
        assert FabricSpec(n, switch_latency=0.0).wire_time(
            1_000_000, n.bandwidth) == pytest.approx(10e-6 + 1e-3)
        assert FabricSpec(n).wire_time(1_000_000, n.bandwidth) == \
            pytest.approx(10e-6 + 1e-3 + 1e-6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            nic(bandwidth=0)
        with pytest.raises(ConfigurationError):
            nic(latency=-1)


def _lone_send(f, src, dst, nbytes, rate_limit=None):
    """Elapsed virtual time of one uncontended :meth:`Fabric.send`."""
    env = f.env

    def proc(env):
        return (yield f.send(src, dst, nbytes, rate_limit=rate_limit))

    p = env.process(proc(env))
    env.run()
    return p.value


class TestFabric:
    def test_needs_a_node(self, env):
        with pytest.raises(ConfigurationError):
            fabric(env, nodes=0)

    def test_unloaded_time(self):
        """An uncontended send takes exactly what the FabricSpec rule
        says (the statement the mesoscale engine replays): cross-node,
        loopback and under a rate cap.  A negative size is refused.
        Each send starts at t=0 on a fresh clock, so the elapsed time is
        the rule's value bit for bit."""
        spec = fabric(Environment()).spec
        cross = _lone_send(fabric(Environment()), 0, 1, 1_000_000)
        assert cross == spec.wire_time(1_000_000, spec.nic.bandwidth)
        assert cross == pytest.approx(10e-6 + 1e-3 + 1e-6)
        loop = _lone_send(fabric(Environment()), 2, 2, 4_000_000)
        assert loop == spec.loopback_time(4_000_000)
        assert loop == pytest.approx(1e-3)
        capped = _lone_send(fabric(Environment()), 0, 1, 1_000_000,
                            rate_limit=0.5e9)
        assert capped == spec.wire_time(1_000_000, 0.5e9)
        assert capped == pytest.approx(10e-6 + 2e-3 + 1e-6)
        with pytest.raises(ValueError):
            _lone_send(fabric(Environment()), 0, 1, -5)

    def test_loopback_cheap(self, env):
        f = fabric(env)
        assert _lone_send(f, 2, 2, 4_000_000) < \
            _lone_send(fabric(env), 1, 2, 4_000_000)

    def test_rate_limit_caps_bandwidth(self, env):
        slow = _lone_send(fabric(env), 0, 1, 1_000_000, rate_limit=0.5e9)
        fast = _lone_send(fabric(env), 0, 1, 1_000_000)
        assert slow == pytest.approx(10e-6 + 2e-3 + 1e-6)
        assert slow > fast

    def test_rate_limit_above_nic_ignored(self, env):
        assert _lone_send(fabric(env), 0, 1, 1_000_000, rate_limit=10e9) \
            == _lone_send(fabric(env), 0, 1, 1_000_000)

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

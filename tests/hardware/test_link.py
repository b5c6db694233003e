"""Unit tests of the generic link model."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.link import Link, LinkSpec
from repro.sim import Tracer


class TestLinkSpec:
    def test_time_formula(self):
        spec = LinkSpec(latency=1e-3, bandwidth=1e6)
        assert spec.time(1000) == pytest.approx(1e-3 + 1e-3)

    def test_zero_bytes_costs_latency(self):
        spec = LinkSpec(latency=5e-6, bandwidth=1e9)
        assert spec.time(0) == 5e-6

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(1e-6, 1e9).time(-1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(-1e-6, 1e9)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(1e-6, 0.0)


class TestLink:
    def test_transfer_duration(self, env):
        link = Link(env, LinkSpec(1e-3, 1e6))

        def proc(env):
            return (yield from link.transfer(1000))

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(2e-3)

    def test_single_channel_serializes(self, env):
        link = Link(env, LinkSpec(0.0, 1e6))

        def proc(env):
            yield from link.transfer(1000)  # 1 ms each

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert env.now == pytest.approx(2e-3)

    def test_two_channels_parallel(self, env):
        link = Link(env, LinkSpec(0.0, 1e6), channels=2)

        def proc(env):
            yield from link.transfer(1000)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert env.now == pytest.approx(1e-3)

    def test_tracing(self, traced_env):
        link = Link(traced_env, LinkSpec(0.0, 1e6), lane="wire")

        def proc(env):
            yield from link.transfer(500, label="msg", category="net")

        traced_env.process(proc(traced_env))
        traced_env.run()
        recs = traced_env.observer(Tracer).on_lane("wire")
        assert len(recs) == 1
        assert recs[0].category == "net"
        assert recs[0].meta["nbytes"] == 500

    def test_owner_priced_link_has_only_occupy(self, env):
        """A link named without a spec is priced by its owner:
        :meth:`Link.occupy` works, :meth:`Link.transfer` is refused."""
        link = Link(env, "dma", lane="node0.dma")
        assert link.spec is None and link.name == "dma"
        with pytest.raises(ConfigurationError, match="owner prices"):
            link.transfer(1000)

        def proc(env):
            return (yield from link.occupy(2e-3, 1000))

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(2e-3)

    def test_busy_flag(self, env):
        link = Link(env, LinkSpec(0.0, 1e6))
        assert not link.busy

        def proc(env):
            yield from link.transfer(1000)

        env.process(proc(env))
        env.run(until=0.0005)
        assert link.busy
        env.run()
        assert not link.busy

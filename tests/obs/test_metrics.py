"""Unit tests of the metrics registry and its simulator instrumentation."""

from repro.obs import MetricsRegistry, merge_snapshots
from repro.sim import Environment


class TestCounters:
    def test_inc_default_and_value(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a")
        m.inc("b", 5)
        assert m.counters == {"a": 2, "b": 5}

    def test_snapshot_sorted(self):
        m = MetricsRegistry()
        m.inc("z")
        m.inc("a")
        assert list(m.snapshot()["counters"]) == ["a", "z"]


class TestGauges:
    def test_gauge_tracks_high_water(self):
        m = MetricsRegistry()
        m.gauge("q", 3)
        m.gauge("q", 7)
        m.gauge("q", 2)
        assert m.gauges["q"] == 2
        assert m.gauges["q.max"] == 7

    def test_gauge_negative_values(self):
        m = MetricsRegistry()
        m.gauge("g", -5)
        assert m.gauges["g.max"] == -5


class TestHistograms:
    def test_power_of_two_buckets(self):
        m = MetricsRegistry()
        m.observe("sz", 1)        # -> 1
        m.observe("sz", 96 * 1024)  # -> 65536
        m.observe("sz", 65536)      # -> 65536
        m.observe("sz", 0)          # -> 0
        assert m.histograms["sz"] == {1: 1, 65536: 2, 0: 1}

    def test_snapshot_buckets_are_strings(self):
        m = MetricsRegistry()
        m.observe("sz", 1024)
        assert m.snapshot()["histograms"]["sz"] == {"1024": 1}


class TestAttachment:
    def test_attach_detach(self, env):
        m = MetricsRegistry().attach(env)
        assert env.probe is m
        env.detach(m)
        assert env.probe is None

    def test_default_is_detached(self):
        assert Environment().probe is None


class TestMergeSnapshots:
    def test_counters_sum_gauges_max(self):
        a = MetricsRegistry()
        a.inc("n", 2)
        a.gauge("g", 5)
        b = MetricsRegistry()
        b.inc("n", 3)
        b.inc("only_b")
        b.gauge("g", 4)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["counters"] == {"n": 5, "only_b": 1}
        assert merged["gauges"]["g"] == 5

    def test_histogram_buckets_sum(self):
        a = MetricsRegistry()
        a.observe("h", 100)
        b = MetricsRegistry()
        b.observe("h", 100)
        b.observe("h", 5)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["histograms"]["h"] == {"4": 1, "64": 2}

    def test_none_operands(self):
        m = MetricsRegistry()
        m.inc("x")
        assert merge_snapshots(None, m.snapshot())["counters"] == {"x": 1}
        assert merge_snapshots(None, None) == {
            "counters": {}, "gauges": {}, "histograms": {}}


class TestSimInstrumentation:
    def test_event_accounting(self, env):
        m = MetricsRegistry().attach(env)

        def proc():
            yield env.timeout(1.0)
            yield env.timeout(1.0)

        env.process(proc())
        env.run()
        assert m.counters["sim.processes"] == 1
        # The two timeouts are scheduled inside run(); the process-start
        # event was scheduled before it, so fired exceeds scheduled by 1
        # once the calendar drains.
        assert m.counters["sim.events_scheduled"] == 2
        assert m.counters["sim.events_fired"] == 3

    def test_until_exit_counts_only_fired(self, env):
        m = MetricsRegistry().attach(env)

        def proc():
            yield env.timeout(1.0)
            env.timeout(10.0)  # scheduled but never fires before until
            env.timeout(11.0)
            yield env.timeout(12.0)

        env.process(proc())
        env.run(until=5.0)
        assert m.counters["sim.events_fired"] < \
            m.counters["sim.events_scheduled"]

    def test_world_metrics_flag(self, cichlid_preset):
        from repro.mpi.world import MpiWorld

        world = MpiWorld(cichlid_preset, num_nodes=2, metrics=True)
        assert world.metrics is world.env.probe is not None

        import numpy as np

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.arange(16.0), 1, tag=0)
            else:
                yield from comm.recv(np.zeros(16), 0, 0)

        world.run(main)
        counters = world.metrics.counters
        assert counters["mpi.messages"] >= 1
        assert counters["net.messages"] >= 1
        assert world.metrics.histograms["mpi.msg_bytes"]

    def test_detached_run_records_nothing(self, cichlid_preset):
        from repro.mpi.world import MpiWorld

        world = MpiWorld(cichlid_preset, num_nodes=2)
        assert world.metrics is None

        def main(comm):
            yield from comm.barrier()

        world.run(main)  # must not raise despite metrics=None guards

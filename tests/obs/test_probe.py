"""The observer slot: attach/detach, and observers that compose.

Each consumer of the probe hooks (tracer, metrics registry, sanitizer
recorder) must produce the same output whether it is attached alone or
beside the others behind the fan-out.
"""

import json

import pytest

from repro.analysis import Recorder, Sanitizer
from repro.apps.himeno import IMPLEMENTATIONS, HimenoConfig
from repro.apps.pingpong import _pingpong_main
from repro.launcher import ClusterApp
from repro.obs import MetricsRegistry
from repro.sim import Environment, Tracer
from repro.sim.probe import Probe, Tee
from repro.systems import cichlid


class TestSlot:
    def test_one_observer_sits_in_the_slot_itself(self, env):
        tracer = env.attach(Tracer())
        assert env.probe is tracer
        assert env.observers() == (tracer,)
        env.detach(tracer)
        assert env.probe is None

    def test_detaching_one_leaves_the_others_attached(self, env):
        a, b, c = Tracer(), MetricsRegistry(), Probe()
        for o in (a, b, c):
            env.attach(o)
        assert isinstance(env.probe, Tee)
        env.detach(b)
        assert env.observers() == (a, c)
        assert env.observer(Tracer) is a
        assert env.observer(MetricsRegistry) is None
        env.detach(a)
        assert env.probe is c
        env.detach(c)
        assert env.probe is None and env.observers() == ()

    def test_only_a_tracer_allocates_flows_only_a_recorder_names(self, env):
        env.attach(MetricsRegistry())
        assert env.probe.new_flow() == 0
        tracer = env.attach(Tracer())
        assert env.probe.new_flow() == 1 == tracer._next_flow
        assert not env.probe.names
        env.attach(Recorder(env))
        assert env.probe.names

    def test_tee_forwards_every_hook(self):
        calls = []

        class Spy(Probe):
            def __getattribute__(self, name):
                if name.startswith("on_"):
                    return lambda *a, **k: calls.append((id(self), name))
                return object.__getattribute__(self, name)

        a, b = Spy(), Spy()
        tee = Tee((a, b))
        hooks = sorted(n for n in vars(Probe) if n.startswith("on_"))
        for name in hooks:
            getattr(tee, name)(*[None] * 10)
        assert calls == [(id(o), n) for n in hooks for o in (a, b)]


# -- composition: each consumer's output is independent of its company -----
SETUPS = {
    "tracer": (True, False, False),
    "metrics": (False, True, False),
    "sanitizer": (False, False, True),
    "all": (True, True, True),
}


def _bandwidth_app(trace, metrics):
    app = ClusterApp(cichlid(), 2, functional=False,
                     force_mode="pipelined", force_block=1 << 20,
                     trace=trace, metrics=metrics)
    return app, lambda: app.run(_pingpong_main, 4 << 20, 2)


def _himeno_app(trace, metrics):
    app = ClusterApp(cichlid(), 4, functional=True, trace=trace,
                     metrics=metrics)
    cfg = HimenoConfig(size="XS", iterations=2)
    return app, lambda: app.run(IMPLEMENTATIONS["clmpi"], cfg, False)


def _outputs(build, setup):
    trace, metrics, sanitize = SETUPS[setup]
    app, run = build(trace, metrics)
    if sanitize:
        with Sanitizer(app) as san:
            results = run()
        report = san.report
        stats = {k: v for k, v in report.stats.items() if k != "metrics"}
        sanitizer = (report.render(), json.dumps(stats, sort_keys=True))
    else:
        results, sanitizer = run(), None
    return {
        "results": repr(results),
        "now": app.env.now,
        "trace": (json.dumps(app.tracer.to_chrome_trace())
                  if trace else None),
        "metrics": (json.dumps(app.metrics.snapshot(), sort_keys=True)
                    if metrics else None),
        "sanitizer": sanitizer,
    }


@pytest.mark.parametrize("build", [_bandwidth_app, _himeno_app],
                         ids=["fig8-pipelined", "himeno-4"])
def test_each_consumer_output_is_the_same_alone_and_together(build):
    out = {setup: _outputs(build, setup) for setup in SETUPS}
    together = out["all"]
    for setup, key in (("tracer", "trace"), ("metrics", "metrics"),
                       ("sanitizer", "sanitizer")):
        alone = out[setup]
        assert alone[key] is not None
        assert alone[key] == together[key], setup
        assert alone["results"] == together["results"]
        assert alone["now"] == together["now"]


def test_sanitizer_report_carries_the_attached_registry():
    app, run = _bandwidth_app(trace=False, metrics=True)
    with Sanitizer(app) as san:
        run()
    assert san.report.stats["metrics"] == app.metrics.snapshot()


def test_fresh_environment_is_detached():
    env = Environment()
    assert env.probe is None and env.observer(Tracer) is None

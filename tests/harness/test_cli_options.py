"""The harness CLI's option table: every experiment subcommand accepts
exactly the options it implements, and each accepted option's value
reaches the experiment.  Any other option is refused by argparse (exit
2) — no option is accepted and then ignored."""

import argparse
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.clmpi.autotune as autotune
from repro.faults import FaultPlan
from repro.harness import runner
from repro.harness.report import Table
from repro.sim.trace import Tracer

SWEEP = {"-j", "--no-cache"}
TABLE = {"--json"}
POINT = {"--faults", "--fault-seed", "--report", "--metrics", "--engine",
         "--reps", "--telemetry"}

#: experiment -> the options it implements (its first option string)
DECLARED = {
    "table1": TABLE,
    "fig8": SWEEP | TABLE | POINT | {"--system", "--repeats", "--ranks"},
    "fig9": SWEEP | TABLE | POINT | {"--system", "--nodes", "--size",
                                     "--dims", "--iterations",
                                     "--functional"},
    "fig10": SWEEP | TABLE | {"--nodes", "--steps", "--functional"},
    "fig4": {"--system", "--trace-out"},
    "tune": SWEEP | TABLE | {"--system"},
    "all": SWEEP,
}
OPTIONS = sorted(set().union(*DECLARED.values()))

#: option -> (the tokens after it, check(kwargs of the experiment's
#: call, the option's value))
VALUES = {
    "-j": (["3"], lambda kw, v: kw["jobs"] == 3),
    "--no-cache": ([], lambda kw, v: kw["cache"] is None),
    "--json": (["t.json"],
               lambda kw, v: json.loads(Path(v).read_text())["rows"] == []),
    "--faults": (["plan.json"], lambda kw, v:
                 kw["faults"]["events"][0]["probability"] == 0.25),
    "--fault-seed": (["9", "--faults", "plan.json"],
                     lambda kw, v: kw["faults"]["seed"] == 9),
    "--report": (["r.json"], lambda kw, v: kw["report"] == v),
    "--metrics": ([], lambda kw, v: kw["show_metrics"] is True),
    "--engine": (["vectorized"], lambda kw, v: kw["engine"] == v),
    "--reps": (["3"], lambda kw, v: kw["measure"] == {"max_reps": 3}),
    "--telemetry": (["s.jsonl"],
                    lambda kw, v: kw["telemetry"].log.path == Path(v)),
    "--system": (None, lambda kw, v: kw["system"] == v),
    "--repeats": (["2"], lambda kw, v: kw["repeats"] == 2),
    "--ranks": (["4"], lambda kw, v: kw["ranks"] == 4),
    "--nodes": (["1,2"], lambda kw, v: kw["nodes"] == [1, 2]),
    "--size": (["S"], lambda kw, v: kw["size"] == v),
    "--dims": (["4,4,4"], lambda kw, v: kw["dims"] == (4, 4, 4)),
    "--iterations": (["3"], lambda kw, v: kw["iterations"] == 3),
    "--functional": ([], lambda kw, v: kw["functional"] is True),
    "--steps": (["3"], lambda kw, v: kw["steps"] == 3),
    "--trace-out": (["t.trace.json"], lambda kw, v:
                    json.loads(Path(v).read_text()) == {"traceEvents": []}),
}

#: the experiment -> runner call(s) an option's value must reach
CALLS = {"table1": {"run_table1"}, "fig8": {"run_fig8"},
         "fig9": {"run_fig9"}, "fig10": {"run_fig10"},
         "fig4": {"run_fig4"}, "tune": {"tune_policy"},
         "all": {"run_fig8", "run_fig9", "run_fig10"}}
#: a --system value that is not the experiment's default
SYSTEM = {"tune": "cichlid"}


def _tokens(experiment, option):
    tokens, _ = VALUES[option]
    return [SYSTEM.get(experiment, "ricc")] if tokens is None else tokens


def _accepted() -> dict:
    """Walk build_parser(): experiment -> the options it accepts."""
    sub = next(a for a in runner.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {a.option_strings[0] for a in sub.choices[name]._actions
                   if a.option_strings and a.dest != "help"}
            for name in DECLARED}


def test_parser_accepts_exactly_the_declared_table():
    accepted = _accepted()
    assert accepted == DECLARED
    assert sum(len(opts) for opts in accepted.values()) == 44
    assert set(VALUES) == set(OPTIONS)


@pytest.mark.parametrize("experiment,option", [
    (e, o) for e in DECLARED for o in OPTIONS if o not in DECLARED[e]])
def test_undeclared_option_is_refused(experiment, option, capsys):
    with pytest.raises(SystemExit) as exc:
        runner.build_parser().parse_args(
            [experiment, option, *_tokens(experiment, option)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.fixture
def calls(monkeypatch, tmp_path):
    """Record every experiment call instead of running it."""
    monkeypatch.chdir(tmp_path)
    Path("plan.json").write_text(FaultPlan.lossy(0.25, seed=4).to_json())
    recorded: dict = {}

    def recorder(name, result):
        def run(*args, **kwargs):
            recorded.setdefault(name, []).append(kwargs)
            return result
        return run

    table = Table("t", ["c"])
    for name in ("run_table1", "run_fig8", "run_fig9", "run_fig10"):
        monkeypatch.setattr(runner, name, recorder(name, table))
    panel = SimpleNamespace(tracer=Tracer())
    monkeypatch.setattr(runner, "run_fig4",
                        recorder("run_fig4", [panel] * 3))
    tuned = SimpleNamespace(system="x", winners={}, policy=SimpleNamespace(
        small_mode="pinned", pipeline_threshold=1 << 20))
    record_tune = recorder("tune_policy", tuned)
    monkeypatch.setattr(
        autotune, "tune_policy",
        lambda preset, **kw: record_tune(system=preset.name.lower(), **kw))
    return recorded


@pytest.mark.parametrize("experiment,option", [
    (e, o) for e in DECLARED for o in sorted(DECLARED[e])])
def test_declared_option_reaches_the_experiment(experiment, option, calls,
                                               capsys):
    tokens = _tokens(experiment, option)
    assert runner.main([experiment, option, *tokens]) == 0
    _, check = VALUES[option]
    value = tokens[0] if tokens else None
    assert set(calls) >= CALLS[experiment]
    for name in CALLS[experiment]:
        for kw in calls[name]:
            assert check(kw, value), (name, kw)

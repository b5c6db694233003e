"""The sanitizer front end: install a recorder, run, analyze.

Three entry points:

* :class:`Sanitizer` — a context manager bound to one environment (or
  anything carrying one: a :class:`~repro.launcher.ClusterApp`, an
  ``MpiWorld``)::

      app = ClusterApp(cichlid(), 2)
      with Sanitizer(app) as san:
          app.run(main)
      assert san.report.ok, san.report.render()

* :func:`autosanitize` — patches :class:`~repro.sim.Environment` so
  *every* environment created inside the ``with`` block is recorded;
  used to sanitize whole scripts that build their own worlds.

* ``python -m repro.analysis run script.py`` — the CLI wrapper around
  :func:`autosanitize` (see :mod:`repro.analysis.__main__`).

A deadlock aborts ``run()`` with a :class:`~repro.errors.ReproError`;
the Sanitizer still produces its report on the way out (the ``with``
block does not swallow the exception), so tests can assert on both.
"""

from __future__ import annotations

import contextlib
from typing import Optional

from repro.analysis.deadlock import detect_deadlocks
from repro.analysis.leaks import detect_leaks
from repro.analysis.races import detect_races
from repro.analysis.recorder import Recorder
from repro.analysis.report import Report
from repro.errors import ReproError
from repro.sim import Environment

__all__ = ["Sanitizer", "autosanitize", "analyze"]


#: severity rank for the canonical finding order
_SEVERITY_RANK = {"error": 0, "warning": 1}


def _finding_key(finding) -> tuple:
    return (_SEVERITY_RANK.get(finding.severity, 2), finding.kind,
            tuple(finding.order), finding.location, finding.message)


def analyze(recorder: Recorder, deadlocks: bool = True, races: bool = True,
            leaks: bool = True) -> Report:
    """Run the configured detectors over a finished recording.

    Findings are sorted by (severity, kind, (sim-time, entity id),
    location, message) so reports render byte-stable across runs and
    cache/diff cleanly.
    """
    report = Report(stats=recorder.stats())
    report.findings.extend(recorder.direct_findings)
    deadlock_findings: list = []
    if deadlocks:
        deadlock_findings = detect_deadlocks(recorder)
        report.findings.extend(deadlock_findings)
    if races:
        report.findings.extend(detect_races(recorder, report.stats))
    if leaks:
        report.findings.extend(
            detect_leaks(recorder, deadlocked=bool(deadlock_findings)))
    report.findings.sort(key=_finding_key)
    return report


def analyze_all(recorders, **detectors) -> tuple[Report, list[Report]]:
    """:func:`analyze` each recording; return the merged report
    (findings concatenated, integer stats summed, ``environments``
    counted) and the per-recording reports."""
    reports = [analyze(rec, **detectors) for rec in recorders]
    merged = Report()
    for rep in reports:
        merged.findings.extend(rep.findings)
        for key, value in rep.stats.items():
            if isinstance(value, int):
                merged.stats[key] = merged.stats.get(key, 0) + value
    merged.stats["environments"] = len(reports)
    return merged, reports


def _env_of(target) -> Environment:
    if isinstance(target, Environment):
        return target
    env = getattr(target, "env", None)
    if isinstance(env, Environment):
        return env
    raise ReproError(
        f"Sanitizer needs an Environment (or an object with .env); "
        f"got {target!r}")


class Sanitizer:
    """Record one environment's run and analyze it on exit."""

    def __init__(self, target, deadlocks: bool = True, races: bool = True,
                 leaks: bool = True):
        self.env = _env_of(target)
        self._opts = dict(deadlocks=deadlocks, races=races, leaks=leaks)
        self.recorder: Optional[Recorder] = None
        self.report: Optional[Report] = None

    def __enter__(self) -> "Sanitizer":
        if self.env.observer(Recorder) is not None:
            raise ReproError("environment already has a monitor (sanitizer "
                             "recorder) attached")
        self.recorder = self.env.attach(Recorder(self.env))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.env.detach(self.recorder)
        self.report = analyze(self.recorder, **self._opts)
        return False  # never swallow the run's exception

    # -- conveniences --------------------------------------------------
    @property
    def findings(self) -> list:
        return [] if self.report is None else self.report.findings

    def assert_clean(self) -> None:
        """Raise :class:`ReproError` with the rendered report if any
        finding survived."""
        if self.report is None:
            raise ReproError("Sanitizer has not exited yet: no report")
        if not self.report.ok:
            raise ReproError("sanitizer found hazards:\n"
                             + self.report.render())


class _AutoSession:
    """Handle yielded by :func:`autosanitize`."""

    def __init__(self, opts: dict):
        self._opts = opts
        self.recorders: list[Recorder] = []
        self.reports: list[Report] = []
        self.report = Report()

    def _finalize(self) -> None:
        self.report, self.reports = analyze_all(self.recorders, **self._opts)

    @property
    def ok(self) -> bool:
        return self.report.ok


@contextlib.contextmanager
def recording(setup=None):
    """Attach a fresh :class:`Recorder` to every :class:`Environment`
    created inside the block (after ``setup(env)``, if given).

    Yields the list the recorders are appended to; on exit each is
    detached from its environment.
    """
    recorders: list[Recorder] = []
    original = Environment.__init__

    def patched(env, *args, **kwargs):
        original(env, *args, **kwargs)
        if setup is not None:
            setup(env)
        recorders.append(env.attach(Recorder(env)))

    Environment.__init__ = patched
    try:
        yield recorders
    finally:
        Environment.__init__ = original
        for rec in recorders:
            rec.env.detach(rec)


@contextlib.contextmanager
def autosanitize(deadlocks: bool = True, races: bool = True,
                 leaks: bool = True):
    """Record every :class:`Environment` created inside the block.

    Yields a session whose ``report`` (available after the block) merges
    the findings of all environments.
    """
    session = _AutoSession(dict(deadlocks=deadlocks, races=races,
                                leaks=leaks))
    try:
        with recording() as session.recorders:
            yield session
    finally:
        session._finalize()

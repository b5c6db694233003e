"""Schedule-space verifier: stateless model checking for the DES stack.

``verify()`` runs a program repeatedly, each time replaying a recorded
*choice prefix* (:mod:`repro.analysis.schedule`) and defaulting past it,
and runs the sanitizer's detectors on every explored schedule.  The
explored choice points are

* **MPI match order** — which candidate envelope satisfies a receive
  when several senders are matchable at one virtual instant (the
  wildcard-receive races the paper's bridge thread is exposed to), and
* **event ties** (opt-in, ``explore_ties=True``) — which
  same-``(time, priority)`` simulator event fires first.

Exploration is a prefix-tree search in breadth-first waves (so runs are
independent, cacheable, and parallelizable through
:func:`repro.harness.parallel.sweep` with byte-identical results at any
``-j``).  Two reductions keep the tree tractable:

* **Dynamic partial-order reduction** (``mode="dpor"``): match-order
  alternatives are always dependent (they decide happens-before edges)
  and are explored fully, but a tie alternative is pruned sleep-set
  style when the two racing processes belong to ranks whose operations
  cannot be match-dependent in the executed run — i.e. unless *both*
  ranks touched a wildcard receive (posted one, or sent to a rank that
  posted one), swapping their same-instant events commutes.
* **Delay bounding**: a schedule's weight is its number of non-default
  choices; schedules heavier than ``bound`` are cut off.  This is the
  fallback that keeps large programs explorable — iteratively raising
  the bound approaches exhaustive coverage.

A schedule *fails* when a non-injected exception escapes the program or
any detector reports an error-severity finding; failures serialize as
content-addressed :class:`~repro.analysis.schedule.Schedule` artifacts
that :func:`replay` reproduces byte-identically.
"""

from __future__ import annotations

import re
import runpy
import sys
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.analysis import graph as G
from repro.analysis.recorder import Recorder
from repro.analysis.report import ERROR
from repro.analysis.sanitizer import analyze_all, recording
from repro.analysis.schedule import (Choice, RecordingPolicy, Schedule,
                                     ScheduleDivergence)
from repro.errors import ReproError
from repro.harness.parallel import is_error_record, sweep
from repro.sim import Environment

__all__ = ["verify", "replay", "VerifyResult", "verify_point",
           "DEFAULT_BOUND", "DEFAULT_MAX_SCHEDULES"]

#: default delay bound (max non-default choices per schedule)
DEFAULT_BOUND = 3
#: default cap on explored schedules (exhaustion guard for big programs)
DEFAULT_MAX_SCHEDULES = 256

Program = Union[Callable[[], object], str, Path]


# ----------------------------------------------------------------------
# single-schedule execution
# ----------------------------------------------------------------------
def _execute(program: Callable[[], object], prefix: Sequence[Choice],
             explore_ties: bool, detectors: dict) -> dict:
    """Run ``program`` once under a recording policy; return a
    JSON-able outcome."""
    from repro.faults.injector import injected

    policy = RecordingPolicy(prefix, explore_ties=explore_ties)

    def setup(env: Environment) -> None:
        env.schedule_policy = policy

    error: Optional[BaseException] = None
    diverged = False
    with recording(setup) as recorders:
        try:
            program()
        except ScheduleDivergence:
            diverged = True
        except SystemExit as exc:
            if exc.code:
                error = exc
        except Exception as exc:
            error = exc
    for recorder in recorders:
        recorder.env.schedule_policy = None

    if not diverged and not policy.followed_prefix:
        diverged = True

    report, _ = analyze_all(recorders, **detectors)

    return {
        "trace": [c.to_dict() for c in policy.trace],
        "diverged": diverged,
        "error": None if error is None else str(error),
        "error_type": None if error is None else type(error).__name__,
        "error_injected": error is not None and injected(error),
        "findings": [{"kind": f.kind, "severity": f.severity,
                      "message": f.message, "location": f.location}
                     for f in report.findings],
        "report": report.render(),
        "racy_ranks": sorted(_racy_ranks(recorders)),
    }


def _racy_ranks(recorders: Sequence[Recorder]) -> set[int]:
    """Ranks whose operations can be match-order dependent this run:
    ranks that posted a wildcard receive, plus ranks that sent to one
    of those."""
    wild: set[int] = set()
    for recorder in recorders:
        for node in recorder.graph.nodes:
            if node.kind != G.MPI_RECV:
                continue
            posted = node.extra.get("posted")
            if posted is not None and (posted.source < 0 or posted.tag < 0):
                rank = node.extra.get("rank")
                if rank is not None:
                    wild.add(rank)
    racy = set(wild)
    for recorder in recorders:
        for node in recorder.graph.nodes:
            if node.kind == G.MPI_SEND and node.extra.get("peer") in wild:
                rank = node.extra.get("rank")
                if rank is not None:
                    racy.add(rank)
    return racy


def _script_program(script: str) -> Callable[[], object]:
    def program() -> None:
        old_argv, sys.argv = sys.argv, [script]
        try:
            runpy.run_path(script, run_name="__main__")
        finally:
            sys.argv = old_argv
    return program


def verify_point(spec: dict) -> dict:
    """Sweep worker: execute one schedule prefix of one script.

    ``spec`` carries ``script`` (path), ``script_sha`` (content hash —
    part of the spec so the result cache invalidates when the script
    changes), ``prefix`` (choice dicts), ``ties`` and ``detectors``.
    """
    prefix = tuple(Choice.from_dict(c) for c in spec["prefix"])
    return _execute(_script_program(spec["script"]), prefix,
                    bool(spec["ties"]), dict(spec["detectors"]))


# ----------------------------------------------------------------------
# DPOR tie pruning
# ----------------------------------------------------------------------
_TIE_RANK = re.compile(r"^rank(\d+)\.")


def _tie_independent(label_a: str, label_b: str, racy) -> bool:
    """Can the two tied events commute (swap without changing any
    detector-visible outcome)?

    Conservative: only claims independence when both labels resolve to
    rank processes and the pair cannot both be on the match-dependent
    side of a wildcard race.  Unknown labels (bare simulator events,
    engine internals) stay dependent and get explored.
    """
    match_a = _TIE_RANK.match(label_a)
    match_b = _TIE_RANK.match(label_b)
    if match_a is None or match_b is None:
        return False
    rank_a, rank_b = int(match_a.group(1)), int(match_b.group(1))
    if rank_a == rank_b:
        return True  # program order on one rank already serializes them
    return not (rank_a in racy and rank_b in racy)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class VerifyResult:
    """Outcome of one :func:`verify` exploration."""

    ok: bool = True
    mode: str = "dpor"
    bound: int = DEFAULT_BOUND
    max_schedules: int = DEFAULT_MAX_SCHEDULES
    ties: bool = False
    #: schedules actually executed
    explored: int = 0
    #: alternatives pruned by DPOR independence
    pruned_independent: int = 0
    #: alternatives pruned by the delay bound
    pruned_bound: int = 0
    #: runs that diverged from their prefix (nondeterministic program)
    divergent: int = 0
    #: failing schedules: [{digest, schedule, error, findings, report}]
    counterexamples: list = field(default_factory=list)
    #: True when the frontier drained before hitting ``max_schedules``
    exhausted: bool = True

    @property
    def reduction_factor(self) -> float:
        """How much smaller than naive enumeration the explored set was
        thanks to DPOR (1.0 = no reduction)."""
        if self.explored == 0:
            return 1.0
        return (self.explored + self.pruned_independent) / self.explored

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "mode": self.mode,
            "bound": self.bound,
            "max_schedules": self.max_schedules,
            "ties": self.ties,
            "explored": self.explored,
            "pruned_independent": self.pruned_independent,
            "pruned_bound": self.pruned_bound,
            "divergent": self.divergent,
            "exhausted": self.exhausted,
            "reduction_factor": round(self.reduction_factor, 4),
            "counterexamples": self.counterexamples,
        }

    def render(self) -> str:
        verdict = "ok" if self.ok else \
            f"{len(self.counterexamples)} counterexample(s)"
        lines = [
            f"verify: {verdict} ({self.mode}, bound={self.bound}"
            f"{', ties' if self.ties else ''}): explored "
            f"{self.explored} schedule(s), pruned "
            f"{self.pruned_independent} independent + "
            f"{self.pruned_bound} over-bound, reduction "
            f"{self.reduction_factor:.2f}x"
            f"{'' if self.exhausted else ' [frontier truncated]'}"
        ]
        if self.divergent:
            lines.append(f"  {self.divergent} run(s) diverged from their "
                         "schedule (program is not schedule-deterministic)")
        for cex in self.counterexamples:
            what = cex["error"] or "; ".join(
                f["message"] for f in cex["findings"]
                if f["severity"] == ERROR) or "findings"
            lines.append(f"  counterexample {cex['digest']}: {what}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the explorer
# ----------------------------------------------------------------------
def _is_failure(outcome: dict) -> bool:
    if outcome["error"] is not None and not outcome["error_injected"]:
        return True
    return any(f["severity"] == ERROR for f in outcome["findings"])


def verify(program: Program, *, mode: str = "dpor",
           bound: int = DEFAULT_BOUND,
           max_schedules: int = DEFAULT_MAX_SCHEDULES,
           explore_ties: bool = False, stop_on_first: bool = False,
           deadlocks: bool = True, races: bool = True, leaks: bool = True,
           jobs: int = 1, cache=None,
           out_dir: Optional[Path] = None) -> VerifyResult:
    """Explore the schedule space of ``program``.

    ``program`` is a zero-argument callable or a script path; script
    targets can run in parallel (``jobs > 1``) and through the result
    cache.  ``mode`` is ``"dpor"`` (default) or ``"naive"`` (explore
    every alternative — the baseline DPOR is measured against).
    """
    if mode not in ("dpor", "naive"):
        raise ReproError(f"unknown verify mode {mode!r}")
    detectors = dict(deadlocks=deadlocks, races=races, leaks=leaks)

    script: Optional[str] = None
    script_sha = ""
    if isinstance(program, (str, Path)):
        script = str(program)
        script_sha = sha256(Path(script).read_bytes()).hexdigest()
    elif jobs > 1:
        raise ReproError("verify(jobs>1) needs a script path target "
                         "(callables cannot cross process boundaries)")

    def run_wave(prefixes: list[tuple]) -> list[dict]:
        if script is None:
            return [_execute(program, prefix, explore_ties, detectors)
                    for prefix in prefixes]
        specs = [{"script": script, "script_sha": script_sha,
                  "prefix": [c.to_dict() for c in prefix],
                  "ties": explore_ties, "detectors": detectors}
                 for prefix in prefixes]
        outcomes = sweep(verify_point, specs, jobs=jobs, cache=cache,
                         kind="verify")
        for outcome in outcomes:
            if is_error_record(outcome):
                raise ReproError(
                    f"verifier worker crashed: {outcome['error']}")
        return outcomes

    result = VerifyResult(mode=mode, bound=bound,
                          max_schedules=max_schedules, ties=explore_ties)
    frontier: list[tuple] = [()]
    while frontier and result.explored < max_schedules:
        room = max_schedules - result.explored
        wave, frontier = frontier[:room], frontier[room:]
        outcomes = run_wave(wave)
        for prefix, outcome in zip(wave, outcomes):
            result.explored += 1
            if outcome["diverged"]:
                result.divergent += 1
                continue
            trace = tuple(Choice.from_dict(c) for c in outcome["trace"])
            if _is_failure(outcome):
                schedule = Schedule(choices=trace, ties=explore_ties)
                cex = {
                    "digest": schedule.digest,
                    "schedule": schedule.to_dict(),
                    "error": outcome["error"],
                    "findings": [f for f in outcome["findings"]
                                 if f["severity"] == ERROR],
                    "report": outcome["report"],
                }
                result.counterexamples.append(cex)
                result.ok = False
                if out_dir is not None:
                    schedule.save(out_dir)
                if stop_on_first:
                    result.exhausted = False
                    return result
                continue  # failing schedules are not expanded
            racy = set(outcome["racy_ranks"])
            for i in range(len(prefix), len(trace)):
                chosen = trace[i]
                for alt in range(len(chosen.options)):
                    if alt == chosen.index:
                        continue
                    if (mode == "dpor" and chosen.kind == "tie"
                            and _tie_independent(
                                chosen.options[chosen.index],
                                chosen.options[alt], racy)):
                        result.pruned_independent += 1
                        continue
                    weight = sum(1 for c in trace[:i] if c.index != 0) + 1
                    if weight > bound:
                        result.pruned_bound += 1
                        continue
                    frontier.append(trace[:i] + (Choice(
                        point=chosen.point, index=alt, kind=chosen.kind,
                        options=chosen.options),))
    if frontier:
        result.exhausted = False
    return result


def replay(program: Program, schedule: Schedule, *, deadlocks: bool = True,
           races: bool = True, leaks: bool = True) -> dict:
    """Re-execute ``program`` under a serialized schedule.

    Returns the raw outcome dict (trace, error, findings, report);
    replaying the same schedule twice yields byte-identical outcomes
    for a schedule-deterministic program.
    """
    if isinstance(program, (str, Path)):
        program = _script_program(str(program))
    return _execute(program, schedule.choices, schedule.ties,
                    dict(deadlocks=deadlocks, races=races, leaks=leaks))

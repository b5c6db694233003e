"""Chaos campaigns: random fault plans, invariants, plan shrinking.

A *campaign* samples N seeded random :class:`~repro.faults.FaultPlan`s,
runs a workload under each, and checks the robustness invariants the
stack promises to keep even while being tortured:

* **no deadlock** — the sanitizer's error-severity findings (stranded
  receives, lost wake-ups) are violations; injected failures that
  surface cleanly are not;
* **survivors agree** — in fault-tolerant workloads every surviving
  rank must report the identical failed-rank set and a shrunken world
  of exactly ``size - len(failed)`` (ULFM's agreement guarantee);
* **totals conserved** — the fault tallies flowing through the metrics
  registry and the injector's own counters are two independent
  pipelines that must agree in every :class:`~repro.obs.RunReport`.

A failing plan is then *shrunk*: :func:`shrink_plan` delta-debugs the
event tuple down to a 1-minimal subset that still reproduces a
violation, and the minimized plan + its RunReport are written as
cache-addressable JSON artifacts (``--campaign-out``).  Everything —
sampling, the workloads, ddmin — is deterministic for a fixed seed,
and every case rides through the result cache like any sweep point.

CLI: ``python -m repro.faults chaos --campaign N --seed S --minimize``.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.faults.injector import injected
from repro.faults.plan import FaultPlan

__all__ = ["WORKLOADS", "sample_plan", "chaos_case", "campaign_specs",
           "run_campaign", "shrink_plan", "verify_case"]

#: chaos workloads: name -> (nodes, fault-time horizon, ft-recovery?)
WORKLOADS: dict[str, dict] = {
    # 2-rank clMPI pingpong on the ULFM fault-tolerant rank coroutine:
    # exercises revoke/shrink/agree recovery under arbitrary faults.
    "pingpong": {"nodes": 2, "horizon": 1e-3, "ft": True},
    # 4-rank Himeno (XXS, 2 iterations) on the plain clMPI halo code:
    # chaos hunts for stranded ranks the recovery machinery would hide.
    "himeno": {"nodes": 4, "horizon": 3e-3, "ft": False},
}

#: sampled event kinds and their weights (crashes rare but present)
_KIND_WEIGHTS = (("drop", 30), ("corrupt", 15), ("nic_flap", 20),
                 ("straggler", 15), ("gpu_fail", 10), ("node_crash", 10))


def sample_plan(rng: random.Random, num_nodes: int, horizon: float,
                max_events: int = 6) -> FaultPlan:
    """One random (but valid) fault plan drawn from ``rng``.

    All times land inside ``[0, horizon)`` — the workload's natural
    makespan — so sampled faults actually intersect live traffic.
    """
    kinds = [k for k, _ in _KIND_WEIGHTS]
    weights = [w for _, w in _KIND_WEIGHTS]
    events: list[dict] = []
    for _ in range(rng.randint(1, max_events)):
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        node = rng.randrange(num_nodes)
        at = round(rng.uniform(0.0, horizon), 9)
        if kind == "node_crash":
            events.append({"kind": kind, "node": node, "at": at})
        elif kind == "nic_flap":
            events.append({"kind": kind, "node": node, "at": at,
                           "duration": round(rng.uniform(
                               0.0, horizon / 4), 9)})
        elif kind in ("drop", "corrupt"):
            events.append({"kind": kind,
                           "probability": round(rng.uniform(0.0, 0.3), 9)})
        elif kind == "straggler":
            events.append({"kind": kind, "node": node,
                           "resource": rng.choice(
                               ("cpu", "gpu", "pcie", "nic")),
                           "factor": round(rng.uniform(1.0, 4.0), 9),
                           "from": at})
        else:  # gpu_fail
            if rng.random() < 0.5:
                events.append({"kind": kind, "node": node, "at": at})
            else:
                events.append({"kind": kind, "probability":
                               round(rng.uniform(0.0, 0.05), 9)})
    return FaultPlan(seed=rng.randrange(1 << 16), events=tuple(events))


# ---------------------------------------------------------------------------
# running one case
# ---------------------------------------------------------------------------
def _short_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:200]}"


def _evaluate(app, report_obj, error, outcomes, ft: bool) -> dict:
    """Apply the campaign invariants to one finished (or dead) run."""
    from repro.obs import build_report

    violations: list[str] = []
    findings = []
    if report_obj is not None:
        findings = [{"kind": f.kind, "severity": f.severity,
                     "message": f.message}
                    for f in report_obj.findings]
        for kind in sorted({f.kind for f in report_obj.findings
                            if f.severity == "error"}):
            violations.append(f"sanitizer:{kind}")
    if error is not None and not injected(error):
        violations.append(f"error:{type(error).__name__}")
    survivors: list[dict] = []
    if ft and error is None and outcomes:
        survivors = [o for o in outcomes
                     if isinstance(o, dict) and o.get("survivor")]
        failed_sets = {tuple(sorted(o.get("failed_ranks", ())))
                       for o in survivors}
        if len(failed_sets) > 1:
            violations.append("survivor-disagreement")
        for o in survivors:
            if o.get("world") != app.size - len(o.get("failed_ranks", ())):
                violations.append("world-size-mismatch")
                break
        crashed = {e["node"]
                   for e in app.faults.plan.of_kind("node_crash")} \
            if app.faults is not None else set()
        if not survivors and len(crashed) < app.size:
            violations.append("no-survivors")
    run_report = build_report(
        "chaos", {}, app.env,
        faults=(app.faults.summary()["by_kind"]
                if app.faults is not None else None)).to_dict()
    if app.faults is not None:
        counted = {k: v for k, v in
                   run_report["metrics"]["counters"].items()
                   if k.startswith("faults.")}
        expect = {f"faults.{k}": v
                  for k, v in app.faults.counts.items()}
        if counted != expect:
            violations.append("fault-tally-divergence")
    return {
        "ok": not violations,
        "violations": sorted(set(violations)),
        "error": None if error is None else _short_error(error),
        "error_injected": bool(error is not None and injected(error)),
        "survivors": [{"rank": o["rank"], "world": o["world"],
                       "failed_ranks": sorted(o.get("failed_ranks", ()))}
                      for o in survivors],
        "findings": findings,
        "makespan": app.env.now,
        "faults": (app.faults.summary() if app.faults is not None
                   else {"total": 0, "by_kind": {}}),
        "report": run_report,
    }


def chaos_case(spec: dict) -> dict:
    """Sweep worker: run one ``{"workload": W, "plan": P}`` chaos case.

    Module-level, dict-in/dict-out, picklable — the standard
    :mod:`repro.harness.parallel` worker contract, so campaigns fan out
    over worker processes and cache exactly like figure sweeps.
    """
    from repro.analysis.sanitizer import Sanitizer
    from repro.launcher import ClusterApp
    from repro.systems import cichlid

    workload = spec["workload"]
    try:
        wl = WORKLOADS[workload]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos workload {workload!r}; choose from "
            f"{sorted(WORKLOADS)}") from None
    plan = FaultPlan.from_dict(spec["plan"])
    app = ClusterApp(cichlid(), wl["nodes"], functional=False,
                     faults=plan, metrics=True)
    error: Optional[BaseException] = None
    outcomes: Any = None
    with Sanitizer(app) as san:
        try:
            if workload == "pingpong":
                from repro.apps.pingpong import _pingpong_ft_main
                outcomes = app.run(_pingpong_ft_main, 1 << 16, 3)
            else:
                from repro.apps.himeno import HimenoConfig
                from repro.apps.himeno.driver import IMPLEMENTATIONS
                cfg = HimenoConfig(size="XXS", iterations=2)
                outcomes = app.run(IMPLEMENTATIONS["clmpi"], cfg, False)
        except BaseException as exc:  # invariants judge *any* escape
            error = exc
    out = _evaluate(app, san.report, error, outcomes, wl["ft"])
    out["workload"] = workload
    out["plan"] = plan.to_dict()
    return out


# ---------------------------------------------------------------------------
# schedule-space verification of a case (PR 6 composition)
# ---------------------------------------------------------------------------
def verify_case(workload: str, plan: FaultPlan, bound: int = 1,
                max_schedules: int = 8) -> dict:
    """Model-check one (workload, fault plan) pair across matching
    orders (:mod:`repro.analysis.verify`).

    The verifier instruments every environment itself, so the workload
    runs bare (no explicit Sanitizer).  A counterexample here means the
    invariant violation depends on *which* send satisfied a wildcard
    receive — a strictly stronger claim than one chaos run can make.
    Injected faults surfacing cleanly are not failures, exactly as in
    :func:`chaos_case`.
    """
    from repro.analysis.verify import verify
    from repro.launcher import ClusterApp
    from repro.systems import cichlid

    wl = WORKLOADS[workload]
    plan_dict = plan.to_dict()

    def program() -> None:
        app = ClusterApp(cichlid(), wl["nodes"], functional=False,
                         faults=FaultPlan.from_dict(plan_dict),
                         metrics=True)
        if workload == "pingpong":
            from repro.apps.pingpong import _pingpong_ft_main
            app.run(_pingpong_ft_main, 1 << 16, 3)
        else:
            from repro.apps.himeno import HimenoConfig
            from repro.apps.himeno.driver import IMPLEMENTATIONS
            cfg = HimenoConfig(size="XXS", iterations=2)
            app.run(IMPLEMENTATIONS["clmpi"], cfg, False)

    result = verify(program, bound=bound, max_schedules=max_schedules)
    return {
        "ok": result.ok,
        "explored": result.explored,
        "exhausted": result.exhausted,
        "reduction": round(result.reduction_factor, 4),
        "counterexamples": [c["digest"] for c in result.counterexamples],
    }


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------
def campaign_specs(workload: str, campaign: int, seed: int) -> list[dict]:
    """The campaign's case specs (deterministic for a fixed seed)."""
    if workload not in WORKLOADS:
        raise ConfigurationError(
            f"unknown chaos workload {workload!r}; choose from "
            f"{sorted(WORKLOADS)}")
    wl = WORKLOADS[workload]
    specs = []
    for i in range(campaign):
        rng = random.Random(seed * 1_000_003 + i + 1)
        plan = sample_plan(rng, wl["nodes"], wl["horizon"])
        specs.append({"workload": workload, "plan": plan.to_dict()})
    return specs


def _cached_case(workload: str, plan: FaultPlan, cache) -> dict:
    """Run (or fetch) one case through the same cache address the
    campaign sweep uses, so ddmin probes share entries with campaigns."""
    spec = {"workload": workload, "plan": plan.to_dict()}
    if cache is not None:
        hit = cache.get("chaos", spec)
        if hit is not None:
            return hit
    out = chaos_case(spec)
    if cache is not None:
        cache.put("chaos", spec, out)
    return out


def shrink_plan(plan: FaultPlan,
                failing: Callable[[FaultPlan], bool]) -> FaultPlan:
    """Delta-debug ``plan.events`` to a 1-minimal failing subset (ddmin).

    ``failing(candidate)`` must return True when the candidate plan
    still reproduces the violation.  Deterministic: the search order
    depends only on the event tuple, and every candidate keeps the
    original seed so the injector's RNG stream stays comparable.
    """
    def make(events) -> FaultPlan:
        return FaultPlan(seed=plan.seed, events=tuple(events))

    events = list(plan.events)
    if not events or not failing(make(events)):
        return make(events)
    granularity = 2
    while len(events) >= 2:
        size = (len(events) + granularity - 1) // granularity
        chunks = [events[i:i + size] for i in range(0, len(events), size)]
        reduced = False
        for chunk in chunks:
            if failing(make(chunk)):
                events, granularity, reduced = chunk, 2, True
                break
        if not reduced:
            for i in range(len(chunks)):
                rest = [e for j, c in enumerate(chunks) if j != i
                        for e in c]
                if rest and failing(make(rest)):
                    events = rest
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
    return make(events)


def _artifact_key(plan: FaultPlan) -> str:
    """Content address of a minimized plan (stable file naming)."""
    return hashlib.sha256(plan.to_json().encode()).hexdigest()[:12]


def run_campaign(workload: str, campaign: int = 10, seed: int = 0,
                 minimize: bool = False, jobs: Optional[int] = 1,
                 cache=None, out_dir=None, verify_matching: int = 0,
                 verify_bound: int = 1, sweep_fn=None) -> dict:
    """Run one chaos campaign; returns the JSON-able summary.

    ``minimize`` delta-debugs every failing case's plan to a minimal
    reproducing fault set (probes run serially in the parent, through
    the same cache).  ``out_dir`` persists each minimized plan and its
    RunReport as a content-addressed JSON artifact, plus a campaign
    summary file.  ``verify_matching`` model-checks the first N cases
    across wildcard matching orders (delay bound ``verify_bound``) and
    tallies ``order_violations`` — cases whose invariant only breaks
    under some non-default matching order.

    ``sweep_fn`` swaps out how the case grid executes: it receives
    ``(worker, specs, jobs=..., cache=..., kind="chaos")`` and must
    return results in spec order, exactly like
    :func:`repro.harness.parallel.sweep` (the default).  The sweep
    service's client uses this to run campaigns as daemon jobs —
    artifact writing stays local, so ``--campaign-out`` files are
    byte-identical however the cases were computed.
    """
    from pathlib import Path

    from repro.harness.parallel import is_error_record, sweep

    if sweep_fn is None:
        sweep_fn = sweep
    specs = campaign_specs(workload, campaign, seed)
    raw = sweep_fn(chaos_case, specs, jobs=jobs, cache=cache,
                   kind="chaos")
    cases: list[dict] = []
    for i, (spec, out) in enumerate(zip(specs, raw)):
        if is_error_record(out):
            out = {"ok": False,
                   "violations":
                       [f"worker-crash:{out['sweep_error']['type']}"],
                   "error": out["sweep_error"]["message"][:200],
                   "workload": workload, "plan": spec["plan"]}
        out = dict(out)
        out["case"] = i
        cases.append(out)
    failures = [c for c in cases if not c["ok"]]

    minimized: list[dict] = []
    if minimize:
        for fail in failures:
            plan = FaultPlan.from_dict(fail["plan"])
            original = set(fail["violations"])

            def failing(candidate: FaultPlan,
                        _orig=original) -> bool:
                probe = _cached_case(workload, candidate, cache)
                return bool(set(probe["violations"]) & _orig)

            small = shrink_plan(plan, failing)
            probe = _cached_case(workload, small, cache)
            minimized.append({
                "workload": workload,
                "case": fail["case"],
                "key": _artifact_key(small),
                "violations": fail["violations"],
                "original_events": len(plan.events),
                "minimized_events": len(small.events),
                "plan": small.to_dict(),
                "outcome": probe,
            })

    order_violations = 0
    if verify_matching > 0:
        for case in cases[:verify_matching]:
            plan = FaultPlan.from_dict(case["plan"])
            case["verify"] = verify_case(workload, plan,
                                         bound=verify_bound)
            if not case["verify"]["ok"]:
                # order-dependent iff the default schedule (the chaos
                # run itself) was clean but some matching order fails
                if case["ok"]:
                    order_violations += 1

    summary = {
        "workload": workload,
        "campaign": campaign,
        "seed": seed,
        "ok": len(cases) - len(failures),
        "failures": len(failures),
        "cases": cases,
        "minimized": minimized,
        "order_violations": order_violations,
    }
    if out_dir is not None:
        root = Path(out_dir)
        root.mkdir(parents=True, exist_ok=True)
        for art in minimized:
            path = root / (f"chaos-{workload}-case{art['case']:03d}"
                           f"-{art['key']}.json")
            path.write_text(json.dumps(art, sort_keys=True, indent=2))
            art["artifact"] = str(path)
        summary_path = root / f"campaign-{workload}-seed{seed}.json"
        summary_path.write_text(
            json.dumps(summary, sort_keys=True, indent=2))
        summary["summary_file"] = str(summary_path)
    return summary

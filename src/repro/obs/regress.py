"""CI-aware regression gating between two RunReports.

``python -m repro.obs regress BASELINE.json CURRENT.json`` answers one
question with an exit code: *did performance regress?*  Both sides are
RunReports (:class:`~repro.obs.report.RunReport`, schema v1/v2).  When
both carry non-empty schema-v2 ``stats`` the comparison is statistical,
per Hunold & Carpen-Amarie: overlapping confidence intervals ⇒ *no
change* (the difference is within measurement noise); disjoint
intervals ⇒ a directional verdict (regression when current is slower).
Without stats the single-shot ``makespan_s`` values are compared
against a relative threshold (default 5 %).

Anything else is refused, including the ``BENCH_*.json`` records at the
repository root: those are frozen history, and ``perfbench/run.py``
measures performance now.

Exit codes mirror ``python -m repro.obs diff``: 0 = no regression,
1 = regression detected, 2 = invalid/unreadable input.  ``--json``
emits the full finding list for dashboards.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.obs.report import validate_report

__all__ = ["compare_artifacts", "load_artifact", "RegressError",
           "DEFAULT_THRESHOLD"]

#: relative slowdown tolerated when no CI information is available
DEFAULT_THRESHOLD = 0.05


class RegressError(ValueError):
    """An artifact could not be read or recognized (CLI exit code 2)."""


def load_artifact(path: str | Path) -> dict:
    """Read one RunReport.

    A dict with ``schema_version`` + ``makespan_s`` is a RunReport (and
    is schema-validated).  Anything else raises :class:`RegressError`.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise RegressError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise RegressError(f"{path}: expected a JSON object, "
                           f"got {type(data).__name__}")
    if "benchmarks" in data:
        raise RegressError(
            f"{path}: a BENCH record; regress reads RunReports only "
            "(perfbench/run.py measures performance)")
    if "schema_version" in data and "makespan_s" in data:
        try:
            validate_report(data)
        except ValueError as exc:
            raise RegressError(f"{path}: {exc}") from exc
        return data
    raise RegressError(
        f"{path}: not a RunReport (schema_version + makespan_s)")


def _interval_from_stats(stats: dict) -> Optional[tuple[float, float, float]]:
    """``(mean, lo, hi)`` from a schema-v2 stats record, or ``None``."""
    if not stats:
        return None
    try:
        return (float(stats["mean_s"]), float(stats["ci_low"]),
                float(stats["ci_high"]))
    except (KeyError, TypeError, ValueError):
        return None


def _judge(name: str, base: tuple[float, float, float],
           cur: tuple[float, float, float],
           threshold: float) -> dict:
    """One finding comparing two ``(mean, lo, hi)`` intervals.

    Degenerate intervals (single-shot: lo == mean == hi on both sides)
    use the relative threshold; otherwise the CI-overlap rule decides.
    Verdicts: ``no-change`` / ``regression`` / ``improvement``.
    """
    b_mean, b_lo, b_hi = base
    c_mean, c_lo, c_hi = cur
    delta = ((c_mean - b_mean) / b_mean) if b_mean else 0.0
    finding = {"metric": name, "baseline_mean_s": b_mean,
               "current_mean_s": c_mean, "delta_rel": delta}
    degenerate = (b_lo == b_hi == b_mean) and (c_lo == c_hi == c_mean)
    if degenerate:
        finding["method"] = "threshold"
        if delta > threshold:
            finding["verdict"] = "regression"
        elif delta < -threshold:
            finding["verdict"] = "improvement"
        else:
            finding["verdict"] = "no-change"
        return finding
    finding["method"] = "ci-overlap"
    finding["baseline_ci"] = [b_lo, b_hi]
    finding["current_ci"] = [c_lo, c_hi]
    if c_lo > b_hi:
        finding["verdict"] = "regression"
    elif c_hi < b_lo:
        finding["verdict"] = "improvement"
    else:
        finding["verdict"] = "no-change"
    return finding


def compare_artifacts(baseline_path: str | Path,
                      current_path: str | Path,
                      threshold: float = DEFAULT_THRESHOLD) -> dict:
    """The full regression verdict between two RunReports.

    Returns ``{"kind", "findings": [...], "regressions": n,
    "improvements": n, "verdict": "ok" | "regression"}``.  Raises
    :class:`RegressError` when either side is unreadable or not a
    RunReport.
    """
    base = load_artifact(baseline_path)
    cur = load_artifact(current_path)
    b_iv = _interval_from_stats(base.get("stats", {}))
    c_iv = _interval_from_stats(cur.get("stats", {}))
    if b_iv is None or c_iv is None:
        b_mk = float(base["makespan_s"])
        c_mk = float(cur["makespan_s"])
        b_iv = (b_mk, b_mk, b_mk)
        c_iv = (c_mk, c_mk, c_mk)
    finding = _judge("makespan_s", b_iv, c_iv, threshold)
    regressions = int(finding["verdict"] == "regression")
    return {
        "kind": "report",
        "baseline": str(baseline_path),
        "current": str(current_path),
        "threshold": threshold,
        "findings": [finding],
        "regressions": regressions,
        "improvements": int(finding["verdict"] == "improvement"),
        "verdict": "regression" if regressions else "ok",
    }


def format_verdict(result: dict) -> str:
    """Human-readable rendering of :func:`compare_artifacts` output."""
    lines = [f"{result['baseline']} -> {result['current']} "
             f"({result['kind']} artifacts)"]
    for f in result["findings"]:
        mark = {"regression": "!!", "improvement": "ok",
                "no-change": "=="}[f["verdict"]]
        detail = (f"{f['baseline_mean_s']:.6g}s -> "
                  f"{f['current_mean_s']:.6g}s "
                  f"({f['delta_rel'] * 100:+.1f}%)")
        if f["method"] == "ci-overlap":
            b_lo, b_hi = f["baseline_ci"]
            c_lo, c_hi = f["current_ci"]
            detail += (f"  CI [{b_lo:.6g}, {b_hi:.6g}] vs "
                       f"[{c_lo:.6g}, {c_hi:.6g}]")
        lines.append(f"  {mark} {f['verdict']:>11}: "
                     f"{f['metric']}  {detail}")
    lines.append(f"verdict: {result['verdict']} "
                 f"({result['regressions']} regression(s), "
                 f"{result['improvements']} improvement(s))")
    return "\n".join(lines)


def mean_ci_label(stats: dict) -> Optional[str]:
    """``"1.234e-03 ± 5.6e-05 s (n=5)"`` from a stats record, for the
    figure-table footers; ``None`` when the record is empty/invalid."""
    iv = _interval_from_stats(stats)
    if iv is None:
        return None
    mean, lo, hi = iv
    half = (hi - lo) / 2.0
    n = stats.get("repetitions", 0)
    return f"{mean:.6g} ± {half:.3g} s (n={n})"

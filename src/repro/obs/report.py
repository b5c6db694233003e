"""Per-run reports: a JSON-schema'd bundle of everything we measured.

A :class:`RunReport` is the machine-readable artifact a harness run (or
one cached sweep point) leaves behind: metrics snapshot, per-lane
utilization, overlap fractions, critical-path attribution, and fault
tallies.  Reports are deterministic — no wall-clock timestamps, no host
paths — so same-seed runs serialize byte-identically whether they ran
serially, under ``-j N``, or came out of the warm cache, and
``python -m repro.obs diff`` can triage regressions between any two.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.obs.critical import critical_path
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.sim.trace import Tracer

__all__ = ["RunReport", "REPORT_SCHEMA", "SUPPORTED_SCHEMA_VERSIONS",
           "STATS_KEYS", "build_report", "validate_report",
           "diff_reports"]

SCHEMA_VERSION = 2

#: Schema versions :func:`validate_report` accepts.  Version 1 reports
#: (pre-dating the measurement-statistics fields) remain readable so
#: ``python -m repro.obs diff`` can compare old artifacts against new.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

#: Keys a non-empty ``stats`` record must carry (see
#: :func:`repro.harness.stats.summarize_samples`).
STATS_KEYS = ("repetitions", "mean_s", "ci_low", "ci_high",
              "rel_variance", "confidence")

#: Minimal JSON-schema-style description of a serialized RunReport.
#: Validated by :func:`validate_report` (hand-rolled walker — the
#: container has no ``jsonschema`` package and we may not install one).
REPORT_SCHEMA: dict = {
    "type": "object",
    "required": ["schema_version", "kind", "spec", "makespan_s",
                 "metrics", "lanes", "overlap", "critical_path",
                 "faults"],
    "properties": {
        "schema_version": {"type": "integer"},
        "kind": {"type": "string"},
        "spec": {"type": "object"},
        "makespan_s": {"type": "number"},
        "metrics": {
            "type": "object",
            "required": ["counters", "gauges", "histograms"],
            "properties": {
                "counters": {"type": "object"},
                "gauges": {"type": "object"},
                "histograms": {"type": "object"},
            },
        },
        "lanes": {"type": "object"},
        "overlap": {"type": "object"},
        "critical_path": {
            "type": "object",
            "required": ["by_category", "fractions", "dominant",
                         "total_s"],
            "properties": {
                "by_category": {"type": "object"},
                "fractions": {"type": "object"},
                "dominant": {"type": "string"},
                "total_s": {"type": "number"},
            },
        },
        "faults": {"type": "object"},
        "stats": {"type": "object"},
    },
}

#: Category pairs whose concurrency the paper cares about (Fig 4):
#: communication/computation overlap and staging/wire pipelining.
_OVERLAP_PAIRS = (("compute", "net"), ("compute", "d2h"),
                  ("compute", "h2d"), ("d2h", "net"), ("net", "h2d"))


@dataclass
class RunReport:
    """One run's measurement artifact (see module docstring)."""

    kind: str
    spec: dict = field(default_factory=dict)
    makespan_s: float = 0.0
    metrics: dict = field(default_factory=lambda: {
        "counters": {}, "gauges": {}, "histograms": {}})
    lanes: dict = field(default_factory=dict)
    overlap: dict = field(default_factory=dict)
    critical_path: dict = field(default_factory=lambda: {
        "by_category": {}, "fractions": {}, "dominant": "",
        "total_s": 0.0})
    faults: dict = field(default_factory=dict)
    #: measurement statistics over repeated runs of the same point
    #: (``repetitions`` / ``mean_s`` / ``ci_low`` / ``ci_high`` /
    #: ``rel_variance`` / ``confidence`` — see
    #: :func:`repro.harness.stats.summarize_samples`); empty for
    #: single-shot runs, which pay nothing for the machinery
    stats: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """Canonical serialization (sorted keys, no whitespace) so
        equal reports are byte-equal."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Backward-compatible reader: version-1 reports (no ``stats``)
        load with an empty stats record and keep their declared schema
        version, so re-serializing a v1 artifact never silently upgrades
        it."""
        validate_report(data)
        fields = {k: data[k] for k in
                  ("kind", "spec", "makespan_s", "metrics", "lanes",
                   "overlap", "critical_path", "faults",
                   "schema_version")}
        fields["stats"] = data.get("stats", {})
        return cls(**fields)

    @classmethod
    def load(cls, path) -> "RunReport":
        """Read and *validate* a report file.

        Corrupt artifacts fail loudly here — with the offending path in
        the message — instead of deep inside :func:`diff_reports` or a
        regression gate.  Raises ``ValueError`` for both unparseable
        JSON and schema violations.
        """
        try:
            with open(path) as fh:
                data = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    def merge(self, other: "RunReport") -> "RunReport":
        """Aggregate two reports (e.g. the points of one figure sweep):
        metrics and critical-path categories sum, makespan takes the
        max, lanes/overlap/stats are dropped (they only make sense per
        run — a merged CI over heterogeneous points would be
        meaningless)."""
        by_cat = dict(self.critical_path.get("by_category", {}))
        for c, v in other.critical_path.get("by_category", {}).items():
            by_cat[c] = by_cat.get(c, 0.0) + v
        total = (self.critical_path.get("total_s", 0.0)
                 + other.critical_path.get("total_s", 0.0))
        dominant = max(sorted(by_cat),
                       key=lambda c: by_cat[c]) if by_cat else ""
        faults = dict(self.faults)
        for k, v in other.faults.items():
            faults[k] = faults.get(k, 0) + v
        return RunReport(
            kind=self.kind, spec={},
            makespan_s=max(self.makespan_s, other.makespan_s),
            metrics=merge_snapshots(self.metrics, other.metrics),
            lanes={}, overlap={},
            critical_path={
                "by_category": {c: by_cat[c] for c in sorted(by_cat)},
                "fractions": ({c: by_cat[c] / total
                               for c in sorted(by_cat)} if total > 0
                              else {}),
                "dominant": dominant,
                "total_s": total,
            },
            faults=faults)


def build_report(kind: str, spec: dict, env,
                 faults: Optional[dict] = None) -> RunReport:
    """Assemble a report from an environment after its run finished.

    Reads the attached :class:`~repro.sim.Tracer` (lane utilization,
    overlap, critical path — all empty if tracing was off) and
    :class:`MetricsRegistry` (snapshot — empty if detached).  ``faults``
    is a tally dict such as ``FaultInjector.summary()["by_kind"]``; it
    defaults to the attached injector's tally.
    """
    if faults is None and env.faults is not None:
        faults = env.faults.summary()["by_kind"]
    tracer = env.observer(Tracer)
    registry = env.observer(MetricsRegistry)
    makespan = float(env.now)
    lanes: dict = {}
    overlap: dict = {}
    cp_summary: dict = {"by_category": {}, "fractions": {},
                        "dominant": "", "total_s": 0.0}
    if tracer is not None and tracer.records:
        lo, hi = tracer.span()
        wall = hi - lo
        for lane in tracer.lanes():
            busy = tracer.busy_time(lane)
            lanes[lane] = {
                "busy_s": busy,
                "utilization": busy / wall if wall > 0 else 0.0,
            }
        for a, b in _OVERLAP_PAIRS:
            t = tracer.overlap_time(a, b)
            if t > 0:
                overlap[f"{a}+{b}"] = t
        cp_summary = critical_path(tracer).summary()
    snapshot = (registry.snapshot() if registry is not None
                else MetricsRegistry().snapshot())
    return RunReport(kind=kind, spec=dict(spec), makespan_s=makespan,
                     metrics=snapshot, lanes=lanes, overlap=overlap,
                     critical_path=cp_summary, faults=dict(faults or {}))


def _check(value, schema, path) -> list[str]:
    errors = []
    expected = schema.get("type")
    checkers = {
        "object": lambda v: isinstance(v, dict),
        "string": lambda v: isinstance(v, str),
        "integer": lambda v: isinstance(v, int)
        and not isinstance(v, bool),
        "number": lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool),
    }
    if expected and not checkers[expected](value):
        return [f"{path}: expected {expected}, "
                f"got {type(value).__name__}"]
    if expected == "object":
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                errors.extend(_check(value[key], sub, f"{path}.{key}"))
    return errors


def validate_report(data: dict) -> None:
    """Raise ``ValueError`` listing every schema violation (if any).

    Accepts every version in :data:`SUPPORTED_SCHEMA_VERSIONS`: the
    ``stats`` record is required from version 2 on, and when non-empty
    must carry the full :data:`STATS_KEYS` set with numeric values.
    """
    errors = _check(data, REPORT_SCHEMA, "report")
    version = data.get("schema_version") if isinstance(data, dict) else None
    if not errors and version not in SUPPORTED_SCHEMA_VERSIONS:
        errors.append(
            f"report.schema_version: expected one of "
            f"{SUPPORTED_SCHEMA_VERSIONS}, got {version!r}")
    if not errors and isinstance(version, int) and version >= 2:
        if "stats" not in data:
            errors.append("report: missing required key 'stats'")
        else:
            stats = data["stats"]
            if stats:  # empty = single-shot run, nothing to check
                for key in STATS_KEYS:
                    if key not in stats:
                        errors.append(
                            f"report.stats: missing required key {key!r}")
                    elif not isinstance(stats[key], (int, float)) \
                            or isinstance(stats[key], bool):
                        errors.append(
                            f"report.stats.{key}: expected number, "
                            f"got {type(stats[key]).__name__}")
    if errors:
        raise ValueError("invalid RunReport: " + "; ".join(errors))


def _flatten(data, prefix="") -> dict:
    flat = {}
    for key in sorted(data) if isinstance(data, dict) else ():
        path = f"{prefix}.{key}" if prefix else str(key)
        value = data[key]
        if isinstance(value, dict):
            flat.update(_flatten(value, path))
        else:
            flat[path] = value
    return flat


def diff_reports(a: dict, b: dict) -> list[str]:
    """Human-readable field-by-field differences between two reports."""
    fa, fb = _flatten(a), _flatten(b)
    lines = []
    for key in sorted(set(fa) | set(fb)):
        va, vb = fa.get(key), fb.get(key)
        if va == vb:
            continue
        if va is None:
            lines.append(f"+ {key}: {vb!r}")
        elif vb is None:
            lines.append(f"- {key}: {va!r}")
        else:
            note = ""
            if (isinstance(va, (int, float)) and isinstance(vb, (int, float))
                    and not isinstance(va, bool) and va):
                note = f"  ({(vb - va) / va * 100:+.1f}%)"
            lines.append(f"~ {key}: {va!r} -> {vb!r}{note}")
    return lines

"""repro.obs — observability: metrics, flow tracing, critical path,
and per-run reports.

Three pieces on top of the simulator's existing tracer:

* :class:`MetricsRegistry` — counters/gauges/histograms, a consumer
  of the probe hooks attached with ``env.attach`` (zero cost when
  detached).
* :func:`critical_path` — backward walk over flow-linked trace records
  with per-category attribution; explains *why* a run took this long.
* :class:`RunReport` — deterministic JSON artifact bundling the above,
  produced by the harness for figure runs and sweep points; compare two
  with ``python -m repro.obs diff a.json b.json``.

Two service-facing pieces (PR 9):

* :mod:`repro.obs.telemetry` — job-lifecycle spans, the daemon's
  Prometheus ``/metrics`` exposition, and Perfetto export of a sweep's
  timeline (``python -m repro.obs timeline``).
* :mod:`repro.obs.regress` — CI-aware regression gating between two
  RunReports or BENCH trajectories
  (``python -m repro.obs regress baseline.json current.json``).

See ``docs/observability.md``.
"""

from repro.obs.critical import CriticalPath, critical_path
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.regress import RegressError, compare_artifacts
from repro.obs.report import (REPORT_SCHEMA, STATS_KEYS,
                              SUPPORTED_SCHEMA_VERSIONS, RunReport,
                              build_report, diff_reports,
                              validate_report)
from repro.obs.telemetry import (PROM_CONTENT_TYPE, SpanLog, Telemetry,
                                 render_prometheus, span_structure,
                                 spans_to_chrome_trace)

__all__ = [
    "MetricsRegistry", "merge_snapshots",
    "CriticalPath", "critical_path",
    "RunReport", "REPORT_SCHEMA", "SUPPORTED_SCHEMA_VERSIONS",
    "STATS_KEYS", "build_report", "validate_report",
    "diff_reports",
    "SpanLog", "Telemetry", "PROM_CONTENT_TYPE", "render_prometheus",
    "span_structure", "spans_to_chrome_trace",
    "RegressError", "compare_artifacts",
]

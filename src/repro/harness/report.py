"""Plain-text table rendering for harness output."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.harness.parallel import is_error_record

__all__ = ["Table", "format_table", "merge_point_reports",
           "print_failed_points", "stats_footers"]


@dataclass
class Table:
    """A titled table of rows, plus optional footer lines.

    Footers carry per-figure annotations that are not cells — the
    measured ``mean ± ci`` statistics lines, above all.  A table with no
    footers serializes exactly as before (no ``footers`` key), so
    pre-existing byte-identity artifacts stay valid.
    """

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    footers: list[str] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.title}: expected {len(self.columns)} values, "
                f"got {len(values)}")
        self.rows.append(list(values))

    def add_footer(self, line: str) -> None:
        self.footers.append(str(line))

    def render(self) -> str:
        text = format_table(self.title, self.columns, self.rows)
        if self.footers:
            text += "\n" + "\n".join(self.footers)
        return text

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace).

        This is the byte-exact artefact the determinism suite compares
        across serial, parallel, and cached harness runs.
        """
        import json

        payload = {"title": self.title, "columns": self.columns,
                   "rows": self.rows}
        if self.footers:
            payload["footers"] = self.footers
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering (for EXPERIMENTS.md)."""
        head = "| " + " | ".join(self.columns) + " |"
        sep = "|" + "|".join("---" for _ in self.columns) + "|"
        body = "\n".join(
            "| " + " | ".join(_fmt(v) for v in row) + " |"
            for row in self.rows)
        text = f"**{self.title}**\n\n{head}\n{sep}\n{body}\n"
        if self.footers:
            text += "\n" + "\n".join(f"*{f}*" for f in self.footers) + "\n"
        return text


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN: block size exceeds message size, etc.
            return "-"
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def merge_point_reports(rows: Iterable[dict], kind: str,
                        path: Optional[str] = None,
                        show_metrics: bool = False,
                        verbose: bool = True):
    """Fold per-point ``RunReport`` dicts of a sweep into one report.

    Every observability-enabled sweep point carries its own report in
    ``row["report"]`` (so the artifact rides through the result cache
    unchanged); this aggregates them in grid order — metrics and
    critical-path categories sum, makespan takes the max.  Returns the
    merged :class:`~repro.obs.RunReport`, or None when no point carried
    one.  ``path`` additionally writes it; ``show_metrics`` prints the
    merged metrics snapshot.
    """
    from repro.obs import RunReport

    points = [RunReport.from_dict(r["report"]) for r in rows
              if isinstance(r, dict) and r.get("report")]
    if not points:
        if verbose and (path or show_metrics):
            print("no RunReports collected (all points failed?)")
        return None
    merged = points[0]
    for point in points[1:]:
        merged = merged.merge(point)
    merged.kind = kind
    if path:
        merged.save(path)
        if verbose:
            print(f"RunReport ({len(points)} points) written to {path}")
    if show_metrics:
        import json

        print(json.dumps(merged.metrics, indent=2, sort_keys=True))
    return merged


def print_failed_points(results: list, label_of) -> None:
    """Warn that a figure is partial: count its failed sweep points and
    list each one, named by ``label_of(spec)``, with its error."""
    errors = [r["sweep_error"] for r in results if is_error_record(r)]
    if not errors:
        return
    print(f"WARNING: partial figure — {len(errors)} of "
          f"{len(results)} points failed:")
    for err in errors:
        print(f"  {label_of(err['spec'])}: {err['type']}: "
              f"{err['message']}")


def stats_footers(rows: Iterable[Any],
                  label_of) -> list[str]:
    """``mean ± ci`` footer lines for every measured row of a sweep.

    A row is *measured* when it carries a schema-v2 ``stats`` record
    (adaptive repetitions ran — see :mod:`repro.harness.stats`);
    single-shot rows contribute nothing, so unmeasured figures are
    byte-identical to their pre-stats selves.  ``label_of(row)`` names
    the point (e.g. ``"pinned @ 4 MiB"``).
    """
    from repro.obs.regress import mean_ci_label

    lines: list[str] = []
    for row in rows:
        if not isinstance(row, dict):
            continue
        stats = row.get("stats")
        if not isinstance(stats, dict) or not stats:
            continue
        label = mean_ci_label(stats)
        if label is None:
            continue
        confidence = int(round(stats.get("confidence", 0.95) * 100))
        lines.append(f"measured {label_of(row)}: {label}, "
                     f"{confidence}% CI")
    return lines


def format_table(title: str, columns: Iterable[str],
                 rows: Iterable[Iterable[Any]]) -> str:
    """Fixed-width text table."""
    columns = list(columns)
    srows = [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in srows)) if srows
              else len(col) for i, col in enumerate(columns)]
    line = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "-" * len(line)
    out = [title, rule, line, rule]
    for row in srows:
        out.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    out.append(rule)
    return "\n".join(out)

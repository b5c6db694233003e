"""CLI: ``python -m repro.obs {diff,regress,timeline} ...``.

* ``diff a.json b.json`` — field-by-field diff of two RunReports.
* ``regress baseline.json current.json`` — CI-aware regression gate
  between two RunReports (see :mod:`repro.obs.regress`).
* ``timeline telemetry.jsonl -o trace.json`` — export a service span
  log to the Chrome-tracing/Perfetto format.

Exit codes (shared by ``diff`` and ``regress``, suitable for CI):

* ``0`` — identical / no regression
* ``1`` — reports differ / a regression was detected
* ``2`` — invalid input (unreadable file, schema violation, or an
  artifact that is not a RunReport)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.obs.regress import (DEFAULT_THRESHOLD, RegressError,
                               compare_artifacts, format_verdict)
from repro.obs.report import diff_reports, validate_report
from repro.obs.telemetry import read_spans, save_chrome_trace


def _cmd_diff(args) -> int:
    reports = []
    for path in (args.a, args.b):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        if not args.no_validate:
            try:
                validate_report(data)
            except ValueError as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                return 2
        reports.append(data)
    lines = diff_reports(reports[0], reports[1])
    if not lines:
        print("reports are identical")
        return 0
    print(f"{len(lines)} differing fields ({args.a} -> {args.b}):")
    for line in lines:
        print(f"  {line}")
    return 1


def _cmd_regress(args) -> int:
    try:
        result = compare_artifacts(args.baseline, args.current,
                                   threshold=args.threshold)
    except RegressError as exc:
        if args.json:
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        print(format_verdict(result))
    return 1 if result["verdict"] == "regression" else 0


def _cmd_timeline(args) -> int:
    spans = read_spans(args.log)
    if not spans:
        print(f"error: no spans in {args.log}", file=sys.stderr)
        return 2
    save_chrome_trace(spans, args.out)
    print(f"wrote {len(spans)} spans to {args.out} "
          "(load in Perfetto / chrome://tracing)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability utilities for RunReport and "
                    "telemetry artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser(
        "diff", help="field-by-field diff of two RunReports "
                     "(exit 0 identical / 1 differs / 2 invalid)")
    d.add_argument("a", help="baseline report JSON")
    d.add_argument("b", help="candidate report JSON")
    d.add_argument("--no-validate", action="store_true",
                   help="skip RunReport schema validation (diff "
                        "arbitrary JSON objects)")
    d.set_defaults(func=_cmd_diff)

    r = sub.add_parser(
        "regress",
        help="CI-aware regression gate between two RunReports "
             "(exit 0 ok / 1 regression / 2 invalid)")
    r.add_argument("baseline", help="baseline RunReport JSON")
    r.add_argument("current", help="current RunReport JSON")
    r.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="relative slowdown tolerated when no CIs are "
                        "available (default %(default)s)")
    r.add_argument("--json", action="store_true",
                   help="emit the full finding list as JSON")
    r.set_defaults(func=_cmd_regress)

    t = sub.add_parser(
        "timeline",
        help="export a service telemetry log to Chrome-tracing JSON")
    t.add_argument("log", help="telemetry JSONL span log")
    t.add_argument("-o", "--out", default="telemetry_trace.json",
                   help="output trace path (default %(default)s)")
    t.set_defaults(func=_cmd_timeline)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

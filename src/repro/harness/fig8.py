"""Fig 8 — point-to-point sustained bandwidth, per transfer engine.

Regenerates the pinned / mapped / pipelined(N) curves of Fig 8(a)
(Cichlid/GbE) and Fig 8(b) (RICC/IB DDR).  The grid fans out over the
parallel sweep runner and the result cache; serial, parallel, and
warm-cache runs produce byte-identical tables.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.pingpong import bandwidth_point, bandwidth_specs
from repro.harness.cache import ResultCache
from repro.harness.parallel import is_error_record, measured_sweep
from repro.harness.report import (Table, merge_point_reports,
                                  print_failed_points, stats_footers)
from repro.systems import get_system

__all__ = ["run_fig8"]

MiB = 1 << 20


def run_fig8(system: str = "cichlid",
             sizes: Optional[list[int]] = None,
             pipeline_blocks: Optional[list[int]] = None,
             repeats: int = 4, verbose: bool = True,
             jobs: Optional[int] = 1,
             cache: Optional[ResultCache] = None,
             faults: Optional[dict] = None,
             report: Optional[str] = None,
             show_metrics: bool = False,
             ranks: int = 2,
             engine: str = "coroutine",
             measure: Optional[dict] = None,
             telemetry=None) -> Table:
    """Regenerate Fig 8(a) or 8(b); one row per message size, one column
    per transfer implementation (MB/s).

    With ``faults`` (a fault-plan dict, see :mod:`repro.faults`), every
    point runs under injection; the tally is printed below the table.
    Points whose worker crashed are skipped (blank cells) and listed —
    a partial figure beats no figure.  ``report`` writes the sweep's
    merged :class:`~repro.obs.RunReport` to that path (every point then
    runs with tracer + metrics attached and carries its own report
    through the cache); ``show_metrics`` prints the merged metrics
    snapshot.

    ``ranks``/``engine`` select the mesoscale shape: ``ranks=2048,
    engine='vectorized'`` sweeps 1024 concurrent pairs in seconds with
    byte-identical rows (engine and rank count are part of each point's
    cache address); ``engine='auto'`` replays the points the mesoscale
    engine models and runs the rest (faults, ``report``) on the
    coroutine engine.

    ``measure`` (a :class:`~repro.harness.stats.MeasurePolicy` dict,
    e.g. ``{"max_reps": 5}``) runs every point with adaptive
    repetitions; the table then grows ``mean ± ci`` footer lines and
    the JSON/report artifacts carry the ``stats`` records.
    ``telemetry`` (a :class:`repro.obs.telemetry.Telemetry`) receives
    service-format lifecycle spans for every point.
    """
    preset = get_system(system)
    obs = report is not None or show_metrics
    blocks = pipeline_blocks or [1 * MiB, 4 * MiB, 16 * MiB]
    specs = bandwidth_specs(preset.name, sizes=sizes,
                            pipeline_blocks=blocks, repeats=repeats,
                            faults=faults, obs=obs, ranks=ranks,
                            engine=engine)
    results = measured_sweep(bandwidth_point, specs, measure=measure,
                             jobs=jobs, cache=cache, kind="bandwidth",
                             telemetry=telemetry)
    recovered = [r for r in results
                 if not is_error_record(r) and r.get("recovery")]
    fault_totals: dict[str, int] = {}
    curves: dict[str, dict[int, float]] = {}
    all_sizes: list[int] = []
    for r in results:
        if is_error_record(r):
            continue
        for knd, n in ((r.get("faults") or {}).get("by_kind") or {}).items():
            fault_totals[knd] = fault_totals.get(knd, 0) + n
        mode, block = r["mode"], r["block"]
        name = mode if block is None else \
            f"pipelined({block // MiB}M)" if block >= MiB else \
            f"pipelined({block // 1024}K)"
        bandwidth = r["nbytes"] * r["repeats"] / r["seconds"]
        curves.setdefault(name, {})[r["nbytes"]] = bandwidth / 1e6
        if r["nbytes"] not in all_sizes:
            all_sizes.append(r["nbytes"])
    sub = "a" if preset.name.lower() == "cichlid" else "b"
    names = list(curves)
    table = Table(f"Fig 8({sub}): sustained bandwidth on {preset.name} (MB/s)",
                  ["message size", *names])
    for nbytes in sorted(all_sizes):
        table.add(_size_label(nbytes),
                  *[round(curves[n].get(nbytes, float("nan")), 1)
                    for n in names])
    for line in stats_footers(
            results, lambda r: f"{r['mode'] or 'auto'} @ "
                               f"{_size_label(r['nbytes'])}"):
        table.add_footer(line)
    if verbose:
        print(table.render())
        if fault_totals:
            tally = ", ".join(f"{k}: {n}"
                              for k, n in sorted(fault_totals.items()))
            print(f"injected faults across the sweep — {tally}")
        if recovered:
            # these points lost ranks mid-run and finished anyway via
            # ULFM shrink; their bandwidth is the survivors' view
            shown = [f"{r['mode'] or 'auto'} @ {_size_label(r['nbytes'])}"
                     f" (lost rank(s) {r['recovery']['failed_ranks']})"
                     for r in recovered[:8]]
            if len(recovered) > 8:
                shown.append(f"... ({len(recovered) - 8} more)")
            print(f"{len(recovered)} point(s) recovered via "
                  "Comm.shrink() after rank failure: " + ", ".join(shown))
        print_failed_points(
            results, lambda s: f"{s['mode'] or 'auto'} @ {s['nbytes']}B")
    if obs:
        merged = merge_point_reports(
            results, kind="bandwidth", path=report,
            show_metrics=show_metrics, verbose=verbose)
        table.report = merged  # type: ignore[attr-defined]
    return table


def _size_label(nbytes: int) -> str:
    if nbytes >= MiB:
        return f"{nbytes // MiB} MiB"
    return f"{nbytes // 1024} KiB"

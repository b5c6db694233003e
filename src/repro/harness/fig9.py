"""Fig 9 — Himeno benchmark sustained performance.

Regenerates the serial / hand-optimized / clMPI comparison of Fig 9(a)
(Cichlid, 1-4 nodes, with the serial implementation's computation-to-
communication ratio annotation) and Fig 9(b) (RICC).
"""

from __future__ import annotations

from typing import Optional

from repro.harness.cache import ResultCache
from repro.harness.parallel import is_error_record, measured_sweep
from repro.harness.report import (Table, merge_point_reports,
                                  print_failed_points, stats_footers)
from repro.systems import get_system

__all__ = ["run_fig9"]

DEFAULT_NODES = {"cichlid": [1, 2, 4], "ricc": [1, 2, 4, 8, 16, 32]}

IMPLS = ("serial", "hand-optimized", "clmpi")


def himeno_point(spec: dict) -> dict:
    """Sweep worker: one (system, nodes, implementation) Himeno run.

    Dict-in/dict-out and module-level so the point can cross a worker
    process and the result cache (see :mod:`repro.harness.parallel`).
    """
    from repro.apps.himeno import HimenoConfig, run_himeno

    obs = spec.get("obs", False)
    dims = spec.get("dims")
    cfg = HimenoConfig(size=spec["size"],
                       dims=tuple(dims) if dims else None,
                       iterations=spec["iterations"])
    # mesoscale points run the testbed past its physical size
    system = get_system(spec["system"], min_nodes=spec["nodes"])
    res = run_himeno(system, spec["nodes"],
                     spec["impl"], cfg,
                     functional=spec.get("functional", False),
                     faults=spec.get("faults"),
                     trace=obs, metrics=obs,
                     engine=spec.get("engine", "coroutine"))
    # ``seconds`` makes the row measurable: adaptive-repetition jobs
    # (service --reps, fig9 --reps) sample it for their stats records
    row = {"gflops": res.gflops, "comp_comm_ratio": res.comp_comm_ratio,
           "seconds": res.time}
    if obs:
        from repro.obs import build_report

        rspec = {k: spec[k] for k in ("system", "nodes", "impl", "size",
                                      "iterations")}
        row["report"] = build_report("himeno", rspec, res.env).to_dict()
    return row


def run_fig9(system: str = "cichlid",
             nodes: Optional[list[int]] = None,
             size: str = "M", iterations: int = 4,
             functional: bool = False, verbose: bool = True,
             jobs: Optional[int] = 1,
             cache: Optional[ResultCache] = None,
             faults: Optional[dict] = None,
             report: Optional[str] = None,
             show_metrics: bool = False,
             dims: Optional[tuple[int, int, int]] = None,
             engine: str = "coroutine",
             measure: Optional[dict] = None,
             telemetry=None) -> Table:
    """Regenerate Fig 9(a) or (b): sustained GFLOP/s per implementation.

    ``functional=False`` (default) runs timing-only at the paper's M size;
    the virtual clock is identical either way.  Points whose worker
    crashed render as ``ERROR`` cells instead of aborting the figure.
    ``report`` writes the sweep's merged :class:`~repro.obs.RunReport`
    to that path; ``show_metrics`` prints the merged metrics snapshot
    (either flag attaches tracer + metrics to every point).

    ``engine='vectorized'`` replays every point on the mesoscale engine
    (byte-identical rows), so the hand-optimized points it has no model
    for fail as ``ERROR`` cells; ``engine='auto'`` runs those on the
    coroutine engine.  ``dims`` overrides the grid so node counts past
    M-size's decomposition limit stay valid (mesoscale sweeps need
    ``mi >= 2*nodes + 2``).

    ``measure``/``telemetry`` behave as in
    :func:`repro.harness.fig8.run_fig8`: adaptive repetitions add
    ``mean ± ci`` footers, and a Telemetry instance collects
    service-format lifecycle spans.
    """
    preset = get_system(system)
    obs = report is not None or show_metrics
    nodes = nodes or DEFAULT_NODES.get(system.lower(), [1, 2, 4])
    specs = [{"system": preset.name, "nodes": n, "impl": impl,
              "size": size, "iterations": iterations,
              "functional": functional}
             for n in nodes for impl in IMPLS]
    if faults is not None:
        for spec in specs:
            spec["faults"] = faults
    if obs:
        for spec in specs:
            spec["obs"] = True
    # absent keys keep pre-mesoscale cache addresses (and rows must stay
    # engine-independent: the byte-identity gate diffs them)
    if dims is not None:
        for spec in specs:
            spec["dims"] = list(dims)
    if engine != "coroutine":
        for spec in specs:
            spec["engine"] = engine
    results = measured_sweep(himeno_point, specs, measure=measure,
                             jobs=jobs, cache=cache, kind="himeno",
                             telemetry=telemetry)
    sub = "a" if preset.name.lower() == "cichlid" else "b"
    table = Table(
        f"Fig 9({sub}): Himeno {size}-size sustained GFLOP/s on {preset.name}",
        ["nodes", "serial", "hand-optimized", "clMPI",
         "serial comp/comm", "clMPI vs hand-opt"])
    for i, n in enumerate(nodes):
        res = dict(zip(IMPLS, results[i * len(IMPLS):(i + 1) * len(IMPLS)]))

        def cell(impl, field="gflops"):
            return ("ERROR" if is_error_record(res[impl])
                    else round(res[impl][field], 2))

        if (is_error_record(res["clmpi"])
                or is_error_record(res["hand-optimized"])):
            gain = "n/a"
        else:
            rel = (res["clmpi"]["gflops"]
                   / res["hand-optimized"]["gflops"] - 1)
            gain = f"{rel * 100:+.1f}%"
        table.add(n, cell("serial"), cell("hand-optimized"), cell("clmpi"),
                  cell("serial", "comp_comm_ratio"), gain)
    # himeno rows don't echo their spec, so footer labels come from the
    # spec list (results stay aligned with specs by the sweep contract)
    for r, s in zip(results, specs):
        for line in stats_footers(
                [r], lambda _: f"{s['impl']} @ {s['nodes']} node(s)"):
            table.add_footer(line)
    if verbose:
        print(table.render())
        print_failed_points(
            results, lambda s: f"{s['impl']} @ {s['nodes']} nodes")
    if obs:
        merged = merge_point_reports(
            results, kind="himeno", path=report,
            show_metrics=show_metrics, verbose=verbose)
        table.report = merged  # type: ignore[attr-defined]
    return table

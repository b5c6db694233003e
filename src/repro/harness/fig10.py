"""Fig 10 — nanopowder growth simulation, baseline vs clMPI on RICC."""

from __future__ import annotations

from typing import Optional

from repro.harness.cache import ResultCache
from repro.harness.parallel import is_error_record, sweep
from repro.harness.report import Table, print_failed_points
from repro.systems import get_system

__all__ = ["run_fig10"]

#: the node counts of §V.D ("the number of nodes must be a divisor of 40")
DEFAULT_NODES = [1, 2, 4, 5, 8, 10, 20, 40]

IMPLS = ("baseline", "clmpi")


def nanopowder_point(spec: dict) -> dict:
    """Sweep worker: one (nodes, implementation) nanopowder run.

    Dict-in/dict-out and module-level so the point can cross a worker
    process and the result cache (see :mod:`repro.harness.parallel`).
    """
    from repro.apps.nanopowder import NanoConfig, run_nanopowder

    cfg = (NanoConfig.paper_scale(steps=spec["steps"])
           if spec["scale"] == "paper"
           else NanoConfig.test_scale(steps=spec["steps"]))
    res = run_nanopowder(get_system(spec["system"]), spec["nodes"],
                         spec["impl"], cfg,
                         functional=spec.get("functional", False))
    return {"steps_per_second": res.steps_per_second}


def run_fig10(system: str = "ricc",
              nodes: Optional[list[int]] = None,
              steps: int = 2, functional: bool = False,
              verbose: bool = True,
              jobs: Optional[int] = 1,
              cache: Optional[ResultCache] = None) -> Table:
    """Regenerate Fig 10: simulation throughput per implementation."""
    preset = get_system(system)
    nodes = nodes or DEFAULT_NODES
    scale = "test" if functional else "paper"
    specs = [{"system": preset.name, "nodes": n, "impl": impl,
              "steps": steps, "scale": scale, "functional": functional}
             for n in nodes for impl in IMPLS]
    results = sweep(nanopowder_point, specs, jobs=jobs, cache=cache,
                    kind="nanopowder")
    table = Table(
        f"Fig 10: nanopowder throughput on {preset.name} (steps/s)",
        ["nodes", "baseline", "clMPI", "clMPI gain", "clMPI speedup vs 1"])
    base1 = None
    for i, n in enumerate(nodes):
        rb, rc = results[i * 2], results[i * 2 + 1]
        if is_error_record(rb) or is_error_record(rc):
            table.add(n,
                      "ERROR" if is_error_record(rb)
                      else round(rb["steps_per_second"], 3),
                      "ERROR" if is_error_record(rc)
                      else round(rc["steps_per_second"], 3),
                      "n/a", "n/a")
            continue
        sb = rb["steps_per_second"]
        sc = rc["steps_per_second"]
        if base1 is None:
            base1 = sc
        table.add(n, round(sb, 3), round(sc, 3),
                  f"{(sc / sb - 1) * 100:+.1f}%",
                  round(sc / base1, 2))
    if verbose:
        print(table.render())
        print_failed_points(
            results, lambda s: f"{s['impl']} @ {s['nodes']} nodes")
    return table

"""Himeno experiment driver: run one (system, nodes, implementation)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.apps.himeno.clmpi_impl import clmpi_main
from repro.apps.himeno.config import HimenoConfig
from repro.apps.himeno.gpu_aware_impl import gpu_aware_main
from repro.apps.himeno.hand_optimized import hand_optimized_main
from repro.apps.himeno.serial import serial_main
from repro.apps.himeno.vectorized import (
    VECTORIZED_IMPLEMENTATIONS,
    vectorized_rows,
)
from repro.errors import ConfigurationError
from repro.launcher import ClusterApp
from repro.obs.metrics import MetricsRegistry
from repro.sim import Tracer, try_vectorized
from repro.systems.presets import SystemPreset

__all__ = ["IMPLEMENTATIONS", "HimenoResult", "run_himeno"]

IMPLEMENTATIONS: dict[str, Callable] = {
    "serial": serial_main,
    "hand-optimized": hand_optimized_main,
    "gpu-aware-mpi": gpu_aware_main,
    "clmpi": clmpi_main,
}


@dataclass
class HimenoResult:
    """Outcome of one Himeno run."""

    system: str
    implementation: str
    nodes: int
    config: HimenoConfig
    #: virtual wall time of the timed region (s)
    time: float
    #: sustained performance by the official FLOP count
    gflops: float
    #: final-iteration global residual
    gosa: float
    gosa_per_iter: list[float]
    #: per-rank GPU busy time (s)
    kernel_times: list[float]
    #: collected local slabs (functional runs with collect=True)
    p_locals: list[Optional[np.ndarray]] = field(default_factory=list)

    @property
    def comp_comm_ratio(self) -> float:
        """Computation/communication-time ratio (paper's Fig 9a metric).

        Meaningful for the serial implementation, where everything that
        is not GPU compute is exposed communication/serialization.
        """
        comp = float(np.mean(self.kernel_times))
        comm = self.time - comp
        return comp / comm if comm > 0 else float("inf")


def run_himeno(system: SystemPreset, nodes: int, implementation: str,
               config: Optional[HimenoConfig] = None,
               functional: bool = True, collect: bool = False,
               force_mode: Optional[str] = None,
               force_block: Optional[int] = None,
               trace: bool = False, faults=None,
               metrics: bool = False,
               engine: str = "coroutine") -> HimenoResult:
    """Run the Himeno benchmark once and return its result.

    Parameters mirror the paper's setup: ``implementation`` is one of
    ``'serial'``, ``'hand-optimized'``, ``'clmpi'``; ``functional=False``
    runs timing-only (identical virtual clock, no NumPy work) for
    paper-scale sweeps.  ``metrics=True`` attaches a
    :class:`~repro.obs.MetricsRegistry` (exposed as ``result.metrics``).

    ``engine='vectorized'`` replays the run on the mesoscale engine
    (timing-only; byte-identical results, milliseconds at 1k+ ranks),
    or raises :class:`~repro.sim.EngineError` naming the feature it
    does not model (functional runs, tracing, faults, metrics, the
    hand-optimized / gpu-aware implementations, pipelined planes,
    odd-rank mapped layouts).  ``engine='auto'`` runs those points on
    the coroutine engine instead, with the same result.
    """
    try:
        main = IMPLEMENTATIONS[implementation]
    except KeyError:
        raise ConfigurationError(
            f"unknown implementation {implementation!r}; choose from "
            f"{sorted(IMPLEMENTATIONS)}") from None
    config = config or HimenoConfig()
    replayed = try_vectorized(
        engine,
        lambda: vectorized_rows(system, nodes, implementation, config,
                                force_mode=force_mode,
                                force_block=force_block),
        functional=functional,
        unsupported={"trace": trace, "faults": faults is not None,
                     "metrics": metrics,
                     f"implementation={implementation!r}":
                         implementation not in VECTORIZED_IMPLEMENTATIONS,
                     "force_mode='pipelined'": force_mode == "pipelined"})
    if replayed is not None:
        results, env = replayed
        return _finish(system, nodes, implementation, config, results, env)
    app = ClusterApp(system, nodes, functional=functional,
                     force_mode=force_mode, force_block=force_block,
                     trace=trace, faults=faults, metrics=metrics)
    results = app.run(main, config, collect)
    return _finish(system, nodes, implementation, config, results, app.env)


def _finish(system: SystemPreset, nodes: int, implementation: str,
            config: HimenoConfig, results: list[dict], env) -> HimenoResult:
    """Shape per-rank result rows into a :class:`HimenoResult`."""
    time = max(r["time"] for r in results)
    gosa_series = results[0]["gosa_per_iter"]
    res = HimenoResult(
        system=system.name,
        implementation=implementation,
        nodes=nodes,
        config=config,
        time=time,
        gflops=config.total_flops / time / 1e9,
        gosa=results[0]["gosa"],
        gosa_per_iter=gosa_series,
        kernel_times=[r["kernel_time"] for r in results],
        p_locals=[r["p_local"] for r in results],
    )
    res.tracer = env.observer(Tracer)  # type: ignore[attr-defined]
    res.metrics = env.observer(MetricsRegistry)  # type: ignore[attr-defined]
    res.env = env  # type: ignore[attr-defined]
    return res

"""Nanopowder experiment driver (Fig 10)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.apps.nanopowder.baseline import baseline_main
from repro.apps.nanopowder.clmpi_impl import clmpi_main
from repro.apps.nanopowder.model import NanoConfig
from repro.errors import ConfigurationError
from repro.launcher import ClusterApp
from repro.systems.presets import SystemPreset

__all__ = ["IMPLEMENTATIONS", "NanopowderResult", "run_nanopowder"]

IMPLEMENTATIONS: dict[str, Callable] = {
    "baseline": baseline_main,
    "clmpi": clmpi_main,
}


@dataclass
class NanopowderResult:
    """Outcome of one nanopowder run."""

    system: str
    implementation: str
    nodes: int
    config: NanoConfig
    #: total virtual time of the timed region (s)
    time: float
    #: per-step virtual durations at rank 0
    step_times: list[float]
    #: total particulate mass after each step (functional runs)
    masses: list[float]
    n_final: Optional[np.ndarray] = None

    @property
    def steps_per_second(self) -> float:
        """Sustained simulation throughput (the Fig 10 'performance')."""
        return self.config.steps / self.time


def run_nanopowder(system: SystemPreset, nodes: int, implementation: str,
                   config: Optional[NanoConfig] = None,
                   functional: bool = True, collect: bool = False,
                   trace: bool = False) -> NanopowderResult:
    """Run the nanopowder simulation once and return its result."""
    try:
        main = IMPLEMENTATIONS[implementation]
    except KeyError:
        raise ConfigurationError(
            f"unknown implementation {implementation!r}; choose from "
            f"{sorted(IMPLEMENTATIONS)}") from None
    config = config or NanoConfig.paper_scale()
    app = ClusterApp(system, nodes, functional=functional, trace=trace)
    results = app.run(main, config, collect)
    r0 = results[0]
    res = NanopowderResult(
        system=system.name,
        implementation=implementation,
        nodes=nodes,
        config=config,
        time=max(r["time"] for r in results),
        step_times=r0["step_times"],
        masses=r0["masses"],
        n_final=r0["n_final"],
    )
    res.tracer = app.tracer  # type: ignore[attr-defined]
    return res

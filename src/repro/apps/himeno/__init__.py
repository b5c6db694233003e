"""The Himeno benchmark (§V.C / Fig 9).

A 3-D pressure-Poisson Jacobi solver with 1-D domain decomposition, each
local domain halved into an upper portion *A* and lower portion *B*
(Fig 3) so halo exchange can overlap computation: while one half
computes, the other half's halo is exchanged (Fig 2 / Fig 6).
:meth:`Partition.phases` states that schedule once — which portion each
rank computes first and with whom each phase exchanges — and every
implementation runs the same loop body over its two phases.

Four implementations, the paper's three plus one comparator:

* :func:`serial_main` — identical structure, every operation blocking.
* :func:`hand_optimized_main` — the host-managed two-queue overlap of
  [13] with pinned transfers.
* :func:`gpu_aware_main` — the hand-optimized overlap with GPU-aware
  MPI exchanges (§II): better engines, but the host still blocks.
* :func:`clmpi_main` — the Fig 6 rewrite: clMPI commands + events, host
  only calls ``clFinish`` at the end of each iteration.

All four produce **bit-identical** pressure fields (tested against the
pure-NumPy dataflow emulator in :mod:`repro.apps.himeno.reference`).
"""

from repro.apps.himeno.clmpi_impl import clmpi_main
from repro.apps.himeno.config import SIZES, HimenoConfig
from repro.apps.himeno.decomp import Partition
from repro.apps.himeno.driver import IMPLEMENTATIONS, HimenoResult, run_himeno
from repro.apps.himeno.gpu_aware_impl import gpu_aware_main
from repro.apps.himeno.hand_optimized import hand_optimized_main
from repro.apps.himeno.reference import (
    distributed_reference,
    init_pressure,
    jacobi_rows,
    run_reference,
)
from repro.apps.himeno.serial import serial_main
from repro.apps.himeno.twod import (
    Partition2D,
    clmpi_2d_main,
    reference_2d,
    run_himeno_2d,
)

__all__ = [
    "HimenoConfig",
    "SIZES",
    "init_pressure",
    "jacobi_rows",
    "run_reference",
    "distributed_reference",
    "Partition",
    "serial_main",
    "hand_optimized_main",
    "clmpi_main",
    "gpu_aware_main",
    "HimenoResult",
    "run_himeno",
    "IMPLEMENTATIONS",
    "Partition2D",
    "clmpi_2d_main",
    "run_himeno_2d",
    "reference_2d",
]

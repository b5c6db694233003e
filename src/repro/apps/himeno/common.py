"""Shared setup and helpers for the four Himeno implementations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

import numpy as np

from repro.apps.himeno.config import HimenoConfig
from repro.apps.himeno.decomp import Partition, Phase
from repro.apps.himeno.kernels import GOSA_BYTES, make_jacobi_kernel
from repro.apps.himeno.reference import init_pressure
from repro.launcher import RankContext
from repro.ocl.buffer import Buffer
from repro.ocl.kernel import Kernel

__all__ = ["HimenoState", "setup_rank", "read_gosa", "finalize",
           "wait_list"]


@dataclass
class HimenoState:
    """Per-rank state of one Himeno run."""

    cfg: HimenoConfig
    part: Partition
    rank: int
    #: the rank's two phases in execution order (:meth:`Partition.phases`)
    phases: tuple[Phase, Phase]
    plane: int                   # bytes per i-plane
    p_buf: Buffer
    gosa_buf: Buffer
    kernel: Kernel
    #: accumulated simulated GPU kernel time (for the comp/comm ratio)
    kernel_time: float = 0.0
    #: cumulative gosa read back so far
    gosa_seen: float = 0.0
    gosa_host: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.float64))
    #: (send, recv) host staging planes of the halo exchanges, made on
    #: first use — see :meth:`staging`
    _staging: Optional[tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False)

    def row_offset(self, row: int) -> int:
        """Byte offset of local i-plane ``row`` inside ``p_buf``."""
        return row * self.plane

    def staging(self) -> tuple[np.ndarray, np.ndarray]:
        """This rank's ``(send, recv)`` float32 host planes for a halo
        exchange, allocated once and reused by every exchange.

        Reuse is safe because every exchange blocks on its device→host
        read of ``send``, and the in-order transfer queue runs that read
        only after the previous exchange's ghost write has consumed
        ``recv``; the exchange's sendrecv completes before it returns.
        """
        if self._staging is None:
            shape = (self.part.mj, self.part.mk)
            self._staging = (np.empty(shape, dtype=np.float32),
                             np.empty(shape, dtype=np.float32))
        return self._staging

    def track(self, kernel_event) -> None:
        """Record a kernel event for the compute-time tally."""
        self.kernel_time += kernel_event.duration()


def setup_rank(ctx: RankContext,
               cfg: HimenoConfig) -> Generator[Any, Any, HimenoState]:
    """Allocate and initialize this rank's slab; collective barrier at end."""
    mi, mj, mk = cfg.grid
    part = Partition(ctx.size, mi, mj, mk)
    rank = ctx.rank
    shape = part.local_shape(rank)
    p_buf = ctx.ocl.create_buffer(int(np.prod(shape)) * 4,
                                  name=f"p.r{rank}")
    gosa_buf = ctx.ocl.create_buffer(GOSA_BYTES, name=f"gosa.r{rank}")
    if ctx.ocl.functional:
        p_buf.view("f4", shape)[:] = init_pressure(
            shape[0], mj, mk, i_offset=part.row_start(rank), mi_global=mi)
    kernel = make_jacobi_kernel(shape, cfg.omega)
    state = HimenoState(cfg=cfg, part=part, rank=rank,
                        phases=part.phases(rank),
                        plane=part.plane_bytes(),
                        p_buf=p_buf, gosa_buf=gosa_buf, kernel=kernel)
    yield from ctx.comm.barrier()
    return state


def wait_list(*events) -> tuple:
    """The events that exist, as a wait list (None marks a phase that
    had no exchange or a first iteration with no predecessor)."""
    return tuple(e for e in events if e is not None)


def read_gosa(ctx: RankContext, st: HimenoState,
              queue) -> Generator[Any, Any, float]:
    """End-of-iteration gosa: blocking tiny read + allreduce.

    Returns this iteration's *global* residual (all implementations do
    this identically, as the real benchmark does).
    """
    yield from queue.enqueue_read_buffer(st.gosa_buf, True, 0, GOSA_BYTES,
                                         st.gosa_host)
    local = np.array([st.gosa_host[0] - st.gosa_seen], dtype=np.float64)
    st.gosa_seen = float(st.gosa_host[0])
    out = np.zeros(1, dtype=np.float64)
    yield from ctx.comm.allreduce(local, out, "sum")
    return float(out[0])


def finalize(ctx: RankContext, st: HimenoState, t0: float, t1: float,
             gosas: list[float], collect: bool) -> dict:
    """Package one rank's results."""
    result = {
        "rank": st.rank,
        "time": t1 - t0,
        "kernel_time": st.kernel_time,
        "gosa_per_iter": gosas,
        "gosa": gosas[-1] if gosas else float("nan"),
        "p_local": None,
    }
    if collect and ctx.ocl.functional:
        shape = st.part.local_shape(st.rank)
        result["p_local"] = st.p_buf.view("f4", shape).copy()
    return result

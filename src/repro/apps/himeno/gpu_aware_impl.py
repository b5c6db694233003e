"""A *GPU-aware MPI* Himeno implementation (§II comparator).

Identical overlap structure to the hand-optimized version, but the halo
exchanges use the GPU-aware MPI interface
(:mod:`repro.clmpi.gpu_aware`): device buffers go straight into MPI-style
calls and the optimized transfer engines are used automatically — yet the
host thread still serializes kernel completion against each exchange and
is tied up for the exchange's duration, because a GPU-aware MPI has no
event integration.  Sits between hand-optimized and clMPI in Fig 9(a)'s
4-node regime, isolating "better engines" from "no host blocking".
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.apps.himeno.common import (
    finalize,
    read_gosa,
    setup_rank,
    wait_list,
)
from repro.apps.himeno.config import HimenoConfig
from repro.apps.himeno.decomp import Phase
from repro.clmpi import gpu_aware
from repro.launcher import RankContext
from repro.ocl.event import CLEvent

__all__ = ["gpu_aware_main"]


def gpu_aware_main(ctx: RankContext, cfg: HimenoConfig,
                   collect: bool = False) -> Generator[Any, Any, dict]:
    """Rank coroutine of the GPU-aware-MPI implementation."""
    st = yield from setup_rank(ctx, cfg)
    q0 = ctx.queue(name=f"r{ctx.rank}.compute")
    first, second = st.phases
    rt = ctx.runtime
    t0 = ctx.env.now
    gosas = []
    kernel_events = []
    e_second_prev: Optional[CLEvent] = None

    def exchange(ph: Phase, after) -> Generator[Any, Any, None]:
        yield from gpu_aware.sendrecv_device(
            rt, st.p_buf, st.row_offset(ph.own_row), ph.partner,
            ph.send_tag, st.p_buf, st.row_offset(ph.ghost_row),
            ph.partner, ph.recv_tag, st.plane, ctx.comm, after=after)

    for _ in range(cfg.iterations):
        e1 = yield from q0.enqueue_nd_range_kernel(
            st.kernel, (st.p_buf, st.gosa_buf, first.lo, first.hi),
            label=first.label)
        if first.partner is not None:
            # host blocks through the exchange; the first kernel overlaps
            yield from exchange(first, wait_list(e_second_prev))
        e2 = yield from q0.enqueue_nd_range_kernel(
            st.kernel, (st.p_buf, st.gosa_buf, second.lo, second.hi),
            label=second.label)
        if second.partner is not None:
            yield from exchange(second, (e1,))
        e_second_prev = e2
        kernel_events += [e1, e2]
        yield from q0.finish()
        gosas.append((yield from read_gosa(ctx, st, q0)))
    for evt in kernel_events:
        st.track(evt)
    yield from ctx.comm.barrier()
    return finalize(ctx, st, t0, ctx.env.now, gosas, collect)

"""The *clMPI* Himeno implementation (§IV, Fig 6).

Halo exchanges become ``clEnqueueSendBuffer`` / ``clEnqueueRecvBuffer``
commands whose dependencies with the Jacobi kernels are expressed purely
through event objects.  The host thread enqueues the whole iteration
without blocking and only waits in ``clFinish`` at the iteration end —
Fig 4(c): the runtime releases each communication command the moment its
prerequisites complete, with no host involvement.

The transfer engine (pinned / mapped / pipelined) is whatever the
runtime's selector picks for the system — the application code does not
know or care, which is the paper's portability argument.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro import clmpi
from repro.apps.himeno.common import (
    HimenoState,
    finalize,
    read_gosa,
    setup_rank,
    wait_list,
)
from repro.apps.himeno.config import HimenoConfig
from repro.apps.himeno.decomp import Phase
from repro.launcher import RankContext
from repro.ocl.event import CLEvent

__all__ = ["clmpi_main"]


def _exchange_clmpi(ctx, st: HimenoState, qs, qr, ph: Phase,
                    after: tuple[CLEvent, ...]
                    ) -> Generator[Any, Any, tuple[CLEvent, CLEvent]]:
    """Enqueue a halo exchange as one send + one recv command.

    Non-blocking: the host returns immediately with the two events.
    """
    e_send = yield from clmpi.enqueue_send_buffer(
        qs, st.p_buf, False, st.row_offset(ph.own_row), st.plane,
        dest=ph.partner, tag=ph.send_tag, comm=ctx.comm, wait_for=after)
    e_recv = yield from clmpi.enqueue_recv_buffer(
        qr, st.p_buf, False, st.row_offset(ph.ghost_row), st.plane,
        source=ph.partner, tag=ph.recv_tag, comm=ctx.comm, wait_for=after)
    return e_send, e_recv


def clmpi_main(ctx: RankContext, cfg: HimenoConfig,
               collect: bool = False) -> Generator[Any, Any, dict]:
    """Rank coroutine of the clMPI implementation (Fig 6)."""
    st = yield from setup_rank(ctx, cfg)
    q0 = ctx.queue(name=f"r{ctx.rank}.compute")
    qs = ctx.queue(name=f"r{ctx.rank}.send")
    qr = ctx.queue(name=f"r{ctx.rank}.recv")
    first, second = st.phases
    t0 = ctx.env.now
    gosas = []
    kernel_events = []
    e_second_prev: Optional[CLEvent] = None
    ex_second_prev: tuple[CLEvent, ...] = ()

    for _ in range(cfg.iterations):
        # phase 1: compute first portion ∥ exchange the other's halo
        e1 = yield from q0.enqueue_nd_range_kernel(
            st.kernel, (st.p_buf, st.gosa_buf, first.lo, first.hi),
            wait_for=ex_second_prev, label=first.label)
        ex1: tuple[CLEvent, ...] = ()
        if first.partner is not None:
            ex1 = yield from _exchange_clmpi(
                ctx, st, qs, qr, first, wait_list(e_second_prev))
        # phase 2: compute second portion ∥ exchange the first's halo
        e2 = yield from q0.enqueue_nd_range_kernel(
            st.kernel, (st.p_buf, st.gosa_buf, second.lo, second.hi),
            wait_for=ex1, label=second.label)
        ex_second_prev = ()
        if second.partner is not None:
            ex_second_prev = yield from _exchange_clmpi(
                ctx, st, qs, qr, second, (e1,))
        e_second_prev = e2
        kernel_events += [e1, e2]
        # Fig 6: "the host thread is just waiting at the end of the
        # iteration by calling clFinish".
        yield from q0.finish()
        yield from qs.finish()
        yield from qr.finish()
        gosas.append((yield from read_gosa(ctx, st, q0)))
    for evt in kernel_events:
        st.track(evt)
    yield from ctx.comm.barrier()
    return finalize(ctx, st, t0, ctx.env.now, gosas, collect)

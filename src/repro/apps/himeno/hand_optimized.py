"""The *hand-optimized* Himeno implementation (§III Fig 2, from [13]).

Two in-order command queues: ``q0`` runs the Jacobi kernels, ``q1`` the
halo transfers (pinned reads/writes).  The host thread orchestrates the
overlap: it enqueues the first-stage kernel, then *blocks* managing the
first-stage halo exchange (wait for the device→host read, MPI_Sendrecv,
enqueue the host→device ghost write), then enqueues the second-stage
kernel with an event dependency on the ghost write, and so on.

This is exactly the pattern whose weakness Fig 4(b) shows: while the host
is tied up in the first-stage exchange, the second-stage exchange cannot
start even if its data is ready.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

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
from repro.ocl.api import wait_for_events
from repro.ocl.event import CLEvent

__all__ = ["hand_optimized_main"]


def _exchange_host_managed(ctx, st: HimenoState, q1, ph: Phase,
                           read_after: tuple[CLEvent, ...]
                           ) -> Generator[Any, Any, CLEvent]:
    """Host-managed pinned halo exchange; returns the ghost-write event."""
    send_host, recv_host = st.staging()
    e_read = yield from q1.enqueue_read_buffer(
        st.p_buf, False, st.row_offset(ph.own_row), st.plane, send_host,
        wait_for=read_after, pinned=True)
    # The host thread blocks here — this is the serialization the paper
    # attacks: nothing else can be initiated by this host meanwhile.
    yield from wait_for_events([e_read], host=ctx.node.host)
    yield from ctx.comm.sendrecv(send_host, ph.partner, ph.send_tag,
                                 recv_host, ph.partner, ph.recv_tag)
    e_write = yield from q1.enqueue_write_buffer(
        st.p_buf, False, st.row_offset(ph.ghost_row), st.plane, recv_host,
        pinned=True)
    return e_write


def hand_optimized_main(ctx: RankContext, cfg: HimenoConfig,
                        collect: bool = False) -> Generator[Any, Any, dict]:
    """Rank coroutine of the hand-optimized implementation."""
    st = yield from setup_rank(ctx, cfg)
    q0 = ctx.queue(name=f"r{ctx.rank}.compute")
    q1 = ctx.queue(name=f"r{ctx.rank}.transfer")
    first, second = st.phases
    t0 = ctx.env.now
    gosas = []
    kernel_events = []
    # events carried across iterations
    e_second_prev: Optional[CLEvent] = None  # previous phase-2 kernel
    e_ghost_prev: Optional[CLEvent] = None   # previous phase-2 ghost write

    for _ in range(cfg.iterations):
        # phase 1: compute first portion  ∥  exchange the other's halo
        e1 = yield from q0.enqueue_nd_range_kernel(
            st.kernel, (st.p_buf, st.gosa_buf, first.lo, first.hi),
            wait_for=wait_list(e_ghost_prev), label=first.label)
        e_ghost1 = None
        if first.partner is not None:
            e_ghost1 = yield from _exchange_host_managed(
                ctx, st, q1, first, wait_list(e_second_prev))
        # phase 2: compute second portion  ∥  exchange the first's halo
        e2 = yield from q0.enqueue_nd_range_kernel(
            st.kernel, (st.p_buf, st.gosa_buf, second.lo, second.hi),
            wait_for=wait_list(e_ghost1), label=second.label)
        e_ghost_prev = None
        if second.partner is not None:
            e_ghost_prev = yield from _exchange_host_managed(
                ctx, st, q1, second, (e1,))
        e_second_prev = e2
        kernel_events += [e1, e2]
        yield from q0.finish()
        yield from q1.finish()
        gosas.append((yield from read_gosa(ctx, st, q1)))
    for evt in kernel_events:
        st.track(evt)
    yield from ctx.comm.barrier()
    return finalize(ctx, st, t0, ctx.env.now, gosas, collect)

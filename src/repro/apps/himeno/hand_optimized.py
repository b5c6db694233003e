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
)
from repro.apps.himeno.config import HimenoConfig
from repro.apps.himeno.decomp import TAG_DOWN, TAG_UP
from repro.launcher import RankContext
from repro.ocl.api import wait_for_events
from repro.ocl.event import CLEvent

__all__ = ["hand_optimized_main"]


def _exchange_host_managed(ctx, st: HimenoState, q1, own_row: int,
                           ghost_row: int, nbr: int, send_tag: int,
                           recv_tag: int,
                           read_after: tuple[CLEvent, ...]
                           ) -> Generator[Any, Any, CLEvent]:
    """Host-managed pinned halo exchange; returns the ghost-write event."""
    send_host, recv_host = st.staging()
    e_read = yield from q1.enqueue_read_buffer(
        st.p_buf, False, st.row_offset(own_row), st.plane, send_host,
        wait_for=read_after, pinned=True)
    # The host thread blocks here — this is the serialization the paper
    # attacks: nothing else can be initiated by this host meanwhile.
    yield from wait_for_events([e_read], host=ctx.node.host)
    yield from ctx.comm.sendrecv(send_host, nbr, send_tag,
                                 recv_host, nbr, recv_tag)
    e_write = yield from q1.enqueue_write_buffer(
        st.p_buf, False, st.row_offset(ghost_row), st.plane, recv_host,
        pinned=True)
    return e_write


def hand_optimized_main(ctx: RankContext, cfg: HimenoConfig,
                        collect: bool = False) -> Generator[Any, Any, dict]:
    """Rank coroutine of the hand-optimized implementation."""
    st = yield from setup_rank(ctx, cfg)
    q0 = ctx.queue(name=f"r{ctx.rank}.compute")
    q1 = ctx.queue(name=f"r{ctx.rank}.transfer")
    even = ctx.rank % 2 == 0
    t0 = ctx.env.now
    gosas = []
    kernel_events = []
    # events carried across iterations
    e_first_prev: Optional[CLEvent] = None   # previous phase-1 kernel
    e_second_prev: Optional[CLEvent] = None  # previous phase-2 kernel
    e_ghost_prev: Optional[CLEvent] = None   # previous phase-2 ghost write

    for _ in range(cfg.iterations):
        if even:
            # phase 1: compute A  ∥  exchange halo-of-B (with hi_nbr)
            eA = yield from q0.enqueue_nd_range_kernel(
                st.kernel, (st.p_buf, st.gosa_buf, st.a_lo, st.a_hi),
                wait_for=_evts(e_ghost_prev), label="jacobi_A")
            e_whi = None
            if st.hi_nbr is not None:
                e_whi = yield from _exchange_host_managed(
                    ctx, st, q1, st.li, st.li + 1, st.hi_nbr,
                    TAG_UP, TAG_DOWN, _evts(e_second_prev))
            # phase 2: compute B  ∥  exchange halo-of-A (with lo_nbr)
            eB = yield from q0.enqueue_nd_range_kernel(
                st.kernel, (st.p_buf, st.gosa_buf, st.b_lo, st.b_hi),
                wait_for=_evts(e_whi), label="jacobi_B")
            e_wlo = None
            if st.lo_nbr is not None:
                e_wlo = yield from _exchange_host_managed(
                    ctx, st, q1, 1, 0, st.lo_nbr,
                    TAG_DOWN, TAG_UP, _evts(eA))
            e_first_prev, e_second_prev, e_ghost_prev = eA, eB, e_wlo
            kernel_events += [eA, eB]
        else:
            # phase 1: compute B  ∥  exchange halo-of-A (with lo_nbr)
            eB = yield from q0.enqueue_nd_range_kernel(
                st.kernel, (st.p_buf, st.gosa_buf, st.b_lo, st.b_hi),
                wait_for=_evts(e_ghost_prev), label="jacobi_B")
            e_wlo = None
            if st.lo_nbr is not None:
                e_wlo = yield from _exchange_host_managed(
                    ctx, st, q1, 1, 0, st.lo_nbr,
                    TAG_DOWN, TAG_UP, _evts(e_second_prev))
            # phase 2: compute A  ∥  exchange halo-of-B (with hi_nbr)
            eA = yield from q0.enqueue_nd_range_kernel(
                st.kernel, (st.p_buf, st.gosa_buf, st.a_lo, st.a_hi),
                wait_for=_evts(e_wlo), label="jacobi_A")
            e_whi = None
            if st.hi_nbr is not None:
                e_whi = yield from _exchange_host_managed(
                    ctx, st, q1, st.li, st.li + 1, st.hi_nbr,
                    TAG_UP, TAG_DOWN, _evts(eB))
            e_first_prev, e_second_prev, e_ghost_prev = eB, eA, e_whi
            kernel_events += [eB, eA]
        yield from q0.finish()
        yield from q1.finish()
        gosas.append((yield from read_gosa(ctx, st, q1)))
    for evt in kernel_events:
        st.track(evt)
    yield from ctx.comm.barrier()
    return finalize(ctx, st, t0, ctx.env.now, gosas, collect)


def _evts(*events) -> tuple:
    """Filter Nones into a wait list."""
    return tuple(e for e in events if e is not None)

"""The *serial* Himeno implementation (§V.C).

"Almost the same as the hand-optimized implementation but all the
computations and communications are serialized": the same A/B phase
structure and the same pinned transfers, with every step blocking the
host thread.  Its performance is the paper's lower bound (Fig 9).
"""

from __future__ import annotations

from typing import Any, Generator

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

__all__ = ["serial_main"]


def _kernel_blocking(ctx, st: HimenoState, q, lo: int,
                     hi: int) -> Generator[Any, Any, None]:
    evt = yield from q.enqueue_nd_range_kernel(
        st.kernel, (st.p_buf, st.gosa_buf, lo, hi))
    yield from wait_for_events([evt], host=ctx.node.host)
    st.track(evt)


def _exchange_blocking(ctx, st: HimenoState, q, own_row: int,
                       ghost_row: int, nbr: int, send_tag: int,
                       recv_tag: int) -> Generator[Any, Any, None]:
    """Fully serialized halo exchange: read → sendrecv → write."""
    send_host, recv_host = st.staging()
    yield from q.enqueue_read_buffer(
        st.p_buf, True, st.row_offset(own_row), st.plane, send_host,
        pinned=True)
    yield from ctx.comm.sendrecv(send_host, nbr, send_tag,
                                 recv_host, nbr, recv_tag)
    yield from q.enqueue_write_buffer(
        st.p_buf, True, st.row_offset(ghost_row), st.plane, recv_host,
        pinned=True)


def serial_main(ctx: RankContext, cfg: HimenoConfig,
                collect: bool = False) -> Generator[Any, Any, dict]:
    """Rank coroutine of the serial implementation."""
    st = yield from setup_rank(ctx, cfg)
    q = ctx.queue(name=f"r{ctx.rank}.q0")
    even = ctx.rank % 2 == 0
    t0 = ctx.env.now
    gosas = []
    for _ in range(cfg.iterations):
        if even:
            yield from _kernel_blocking(ctx, st, q, st.a_lo, st.a_hi)
            if st.hi_nbr is not None:
                yield from _exchange_blocking(ctx, st, q, st.li, st.li + 1,
                                              st.hi_nbr, TAG_UP, TAG_DOWN)
            yield from _kernel_blocking(ctx, st, q, st.b_lo, st.b_hi)
            if st.lo_nbr is not None:
                yield from _exchange_blocking(ctx, st, q, 1, 0,
                                              st.lo_nbr, TAG_DOWN, TAG_UP)
        else:
            yield from _kernel_blocking(ctx, st, q, st.b_lo, st.b_hi)
            if st.lo_nbr is not None:
                yield from _exchange_blocking(ctx, st, q, 1, 0,
                                              st.lo_nbr, TAG_DOWN, TAG_UP)
            yield from _kernel_blocking(ctx, st, q, st.a_lo, st.a_hi)
            if st.hi_nbr is not None:
                yield from _exchange_blocking(ctx, st, q, st.li, st.li + 1,
                                              st.hi_nbr, TAG_UP, TAG_DOWN)
        gosas.append((yield from read_gosa(ctx, st, q)))
    yield from ctx.comm.barrier()
    return finalize(ctx, st, t0, ctx.env.now, gosas, collect)

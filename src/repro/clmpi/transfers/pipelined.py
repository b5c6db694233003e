"""The *pipelined* transfer engine (§III, evaluated in Fig 8).

The payload is split into fixed-size blocks; each block's host↔device DMA
overlaps the wire transfer of its neighbours (the MVAPICH2-GPU technique
[7]).  The sender runs a *staging* coroutine (DMA device→host, block by
block) concurrently with a *wire* coroutine (MPI send of each staged
block); the receiver mirrors this.  Overlap emerges from the simulator's
resource model: the PCIe engine and the NIC are independent resources.

With ``base='mapped'`` the DMA stage disappears (blocks stream from the
mapping) and pipelining only amortizes per-block overheads — included
because §V.B notes the pipelined transfer "can also be implemented using
either the pinned or mapped data transfer".
"""

from __future__ import annotations

from typing import Any, Generator

from repro.clmpi.transfers.base import (
    Side,
    TransferDescriptor,
    register_mode,
    send_data,
)
from repro.errors import ClmpiError

__all__ = ["send", "recv", "blocks_of", "pipeline_time_bounds"]


def blocks_of(nbytes: int, block: int) -> list[tuple[int, int]]:
    """Split ``nbytes`` into ``(start, stop)`` block ranges."""
    if block <= 0:
        raise ClmpiError(f"pipeline block size must be positive, got {block}")
    return [(lo, min(lo + block, nbytes)) for lo in range(0, nbytes, block)]


def send(side: Side, peer: int,
         desc: TransferDescriptor) -> Generator[Any, Any, None]:
    """Sender half: per-block d2h staging overlapped with wire sends."""
    env = side.rt.env
    if desc.block is None:
        raise ClmpiError("pipelined transfer needs a block size")
    ranges = blocks_of(desc.nbytes, desc.block)
    staged = [env.event() for _ in ranges]
    use_dma = side.pcie is not None and desc.base == "pinned"
    rate = None
    if side.pcie is not None and desc.base == "mapped":
        rate = side.mapped_bw
        yield from side.pcie.map_buffer()
    # One causal chain per block: its d2h staging, wire message, and
    # receiver-side h2d drain all share a flow id (the receiver reads it
    # off the matched envelope), so the exported trace connects every
    # pipeline stage end-to-end.
    probe = env.probe
    flows = ([probe.new_flow() for _ in ranges] if probe is not None
             else [0] * len(ranges))

    def stager():
        for i, (lo, hi) in enumerate(ranges):
            if use_dma:
                yield from side.pcie.d2h(hi - lo, pinned=True,
                                         label=f"pipe d2h blk{i}",
                                         flow=flows[i])
            else:
                yield env.timeout(0.0)
            staged[i].succeed()

    def wire():
        for i, (lo, hi) in enumerate(ranges):
            yield staged[i]
            yield from send_data(side, peer, desc.data_tag,
                                 side.slice(lo, hi), hi - lo,
                                 rate_limit=rate, flow=flows[i])

    p1 = env.process(stager(), name="clmpi.pipe.stager")
    p2 = env.process(wire(), name="clmpi.pipe.wire")
    yield env.all_of([p1, p2])
    if side.pcie is not None and desc.base == "mapped":
        yield from side.pcie.map_buffer()  # unmap


def recv(side: Side, peer: int,
         desc: TransferDescriptor) -> Generator[Any, Any, None]:
    """Receiver half: wire receives overlapped with per-block h2d.

    All block receives are pre-posted (as real pipelined implementations
    do), so consecutive blocks stream back-to-back on the wire; the
    per-block DMA drains them in arrival order, overlapping the wire
    transfer of the next block.
    """
    if desc.block is None:
        raise ClmpiError("pipelined transfer needs a block size")
    ranges = blocks_of(desc.nbytes, desc.block)
    use_dma = side.pcie is not None and desc.base == "pinned"
    rate = None
    if side.pcie is not None and desc.base == "mapped":
        rate = side.mapped_bw
        yield from side.pcie.map_buffer()
    reqs = []
    for lo, hi in ranges:
        reqs.append((yield from side.rt.irecv_bytes(
            side.slice(lo, hi), hi - lo, peer, desc.data_tag,
            rate_limit=rate)))
    for i, (lo, hi) in enumerate(ranges):
        yield from reqs[i].wait()
        if use_dma:
            # Join the block's causal chain (flow id arrived with the
            # matched envelope) so h2d links back to wire and d2h.
            posted = reqs[i].posted
            yield from side.pcie.h2d(hi - lo, pinned=True,
                                     label=f"pipe h2d blk{i}",
                                     flow=0 if posted is None
                                     else posted.flow)
    if side.pcie is not None and desc.base == "mapped":
        yield from side.pcie.map_buffer()


def pipeline_time_bounds(nbytes: int, block: int, dma_bw: float,
                         wire_bw: float, wire_latency: float
                         ) -> tuple[float, float]:
    """Analytic (lower, upper) bounds on pipelined transfer time.

    Used by property tests: the simulated duration must fall between the
    no-overhead pipeline bound and the fully-serialized bound.
    """
    n = max(1, -(-nbytes // block))
    per_block_wire = wire_latency + block / wire_bw
    lower = block / dma_bw + n * (nbytes / n) / wire_bw + wire_latency
    upper = n * (block / dma_bw + per_block_wire) + block / dma_bw
    return lower, upper


register_mode("pipelined", send, recv)

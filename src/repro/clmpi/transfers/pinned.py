"""The *pinned* transfer engine (§III).

Device → wire: an explicit DMA copy from device memory into a page-locked
host staging buffer, then an MPI send from that buffer.  Wire → device:
MPI receive into the pinned staging buffer, then an explicit DMA write.
The stages are strictly serialized — that is the point the pipelined
engine improves on.

Host-memory endpoints (``MPI_CL_MEM`` wrappers) skip the DMA stage.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.clmpi.transfers.base import (
    Side,
    TransferDescriptor,
    recv_data,
    register_mode,
    send_data,
)

__all__ = ["send", "recv"]


def send(side: Side, peer: int,
         desc: TransferDescriptor) -> Generator[Any, Any, None]:
    """Sender half: d2h into pinned staging, then MPI send."""
    # The staging copy, wire message, and receiver-side drain share one
    # causal flow id so the exported trace links the stages end-to-end.
    probe = side.rt.env.probe
    flow = probe.new_flow() if probe is not None else 0
    if side.pcie is not None:
        yield from side.pcie.d2h(desc.nbytes, pinned=True,
                                 label=f"clmpi.pinned d2h {desc.nbytes}B",
                                 flow=flow)
    yield from send_data(side, peer, desc.data_tag, side.data, desc.nbytes,
                         flow=flow)


def recv(side: Side, peer: int,
         desc: TransferDescriptor) -> Generator[Any, Any, None]:
    """Receiver half: MPI receive into pinned staging, then h2d."""
    flow = yield from recv_data(side, peer, desc.data_tag, side.data,
                                desc.nbytes)
    if side.pcie is not None:
        yield from side.pcie.h2d(desc.nbytes, pinned=True,
                                 label=f"clmpi.pinned h2d {desc.nbytes}B",
                                 flow=flow)


register_mode("pinned", send, recv)

"""The per-rank clMPI runtime.

One :class:`ClmpiRuntime` exists per MPI process (per rank).  It owns:

* a *duplicated* communicator per application communicator, so that
  runtime traffic (descriptors, acks, data blocks) can never collide with
  application messages — the simulated analogue of the dedicated
  communication thread + internal tags of the paper's implementation
  (§V.A);
* the :class:`~repro.clmpi.selector.TransferSelector` implementing the
  automatic engine choice of §V.B;
* the transfer orchestration: both endpoints derive identical transfer
  parameters from the message size and the shared policy (see
  :meth:`ClmpiRuntime.describe`) and run the complementary engine
  coroutines.

Every transfer runs as its own coroutine.  The paper's runtime multiplexes
all transfers onto one communication thread driven by nonblocking MPI;
the DES equivalent of "one thread, many outstanding nonblocking ops" is
simply concurrent coroutines — endpoint hardware resources (NIC ports,
PCIe engines) still serialize exactly where the real thread would.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from dataclasses import replace

from repro.clmpi.selector import TransferSelector
from repro.clmpi.transfers.base import (
    TRANSFER_MODES,
    Side,
    TransferDescriptor,
)
from repro.errors import ClmpiError, MpiError, MpiRankFailed, OclError
from repro.mpi.comm import Communicator
from repro.ocl.buffer import Buffer
from repro.ocl.context import Context

__all__ = ["ClmpiRuntime", "FALLBACK_LADDER"]

#: graceful-degradation order under fault injection: each engine in turn
#: trades peak throughput for fewer moving parts (pipelined needs staging
#: + many wire messages; pinned one staging copy + one message; mapped a
#: single capped stream with no staging at all)
FALLBACK_LADDER = ("pipelined", "pinned", "mapped")


class ClmpiRuntime:
    """Per-rank runtime backing the clMPI extension calls."""

    def __init__(self, context: Context, comm: Communicator,
                 selector: Optional[TransferSelector] = None,
                 policy=None):
        if selector is None:
            if policy is None:
                raise ClmpiError(
                    "ClmpiRuntime needs a TransferSelector or a policy")
            selector = TransferSelector(policy)
        self.comm = comm
        self.selector = selector
        self.env = context.env
        # the context's own flag, not the context: the context refers to
        # its runtime (``clmpi_runtime``), so that would be a cycle
        self.functional = context.functional
        self._rt_comms: dict[int, Communicator] = {}
        context.clmpi_runtime = self

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def rt_comm(self, comm: Communicator) -> Communicator:
        """The runtime's duplicated communicator mirroring ``comm``.

        Ranks must create their runtimes (and use communicators) in the
        same order — the standard ``MPI_Comm_dup`` requirement.
        """
        key = id(comm._state)
        if key not in self._rt_comms:
            self._rt_comms[key] = comm.dup()
        return self._rt_comms[key]

    def attach(self, context: Context) -> None:
        """Serve another context of the same rank (a second communicator
        device, §IV.A) with this runtime."""
        context.clmpi_runtime = self

    def _device_side(self, buf: Buffer, offset: int, size: int) -> Side:
        # Resolve hardware through the buffer's own context, so one
        # runtime serves every device of its rank.
        buf.check_range(offset, size)
        data = (buf.bytes_view(offset, size)
                if buf.context.functional else None)
        device = buf.context.device
        return Side(rt=None, host=device.node.host, pcie=device.pcie,
                    data=data, nbytes=size)

    def _host_side(self, array: Optional[np.ndarray], size: int,
                   comm: Communicator) -> Side:
        data = None
        if self.functional:
            if array is None:
                raise ClmpiError(
                    "host array may only be None in timing-only mode")
            flat = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
            if flat.nbytes < size:
                raise ClmpiError(
                    f"host array of {flat.nbytes}B cannot carry {size}B")
            data = flat[:size]
        return Side(rt=None, host=comm.node().host, pcie=None,
                    data=data, nbytes=size)

    # ------------------------------------------------------------------
    # transfer orchestration
    # ------------------------------------------------------------------
    def describe(self, nbytes: int, tag: int) -> TransferDescriptor:
        """Derive the transfer parameters for a payload of ``nbytes``.

        Both endpoints call this independently and — because the selector
        policy is system-wide runtime state, exactly like the pipeline
        configuration of the paper's wrapper functions — arrive at the
        same engine and block size with **no control traffic**.  The two
        endpoints must therefore post matching sizes (a size mismatch is
        a program error, surfaced as a truncation/deadlock).
        """
        mode, block, base = self.selector.choose(nbytes)
        return TransferDescriptor(nbytes=nbytes, mode=mode, tag=tag,
                                  block=block, base=base)

    def do_send(self, side: Side, dest: int, tag: int,
                comm: Communicator) -> Generator[Any, Any, None]:
        """Sender endpoint of one clMPI transfer."""
        side.rt = self.rt_comm(comm)
        desc = self.describe(side.nbytes, tag)
        if self.env.probe is not None:
            self.env.probe.on_transfer("send", dest, tag, desc)
        if self.env.faults is None:
            send_fn, _ = TRANSFER_MODES[desc.mode]
            yield from send_fn(side, dest, desc)
            return
        yield from self._degraded("send", side, dest, desc)

    def do_recv(self, side: Side, source: int, tag: int,
                comm: Communicator) -> Generator[Any, Any, None]:
        """Receiver endpoint of one clMPI transfer."""
        side.rt = self.rt_comm(comm)
        desc = self.describe(side.nbytes, tag)
        if self.env.probe is not None:
            self.env.probe.on_transfer("recv", source, tag, desc)
        if self.env.faults is None:
            _, recv_fn = TRANSFER_MODES[desc.mode]
            yield from recv_fn(side, source, desc)
            return
        yield from self._degraded("recv", side, source, desc)

    @staticmethod
    def _attempt_modes(mode: str) -> tuple[str, ...]:
        """Retry-then-degrade sequence starting from the chosen engine.

        One retry of the chosen mode (a transient fault — a NIC flap, a
        burst of drops — may have passed), then each simpler engine of
        :data:`FALLBACK_LADDER` once.  Both endpoints derive the same
        sequence independently, so attempt *k* always pairs the same
        engines and (salted) tags on both sides with no control traffic.
        """
        if mode in FALLBACK_LADDER:
            rest = FALLBACK_LADDER[FALLBACK_LADDER.index(mode) + 1:]
        else:
            rest = FALLBACK_LADDER
        return (mode, mode) + rest

    def _degraded(self, op: str, side: Side, peer: int,
                  desc: TransferDescriptor) -> Generator[Any, Any, None]:
        """Run one endpoint through the retry/degrade attempt sequence."""
        env = self.env
        modes = self._attempt_modes(desc.mode)
        last: Optional[BaseException] = None
        for attempt, mode in enumerate(modes):
            d = replace(desc, mode=mode, attempt=attempt)
            fn = TRANSFER_MODES[mode][0 if op == "send" else 1]
            try:
                yield from fn(side, peer, d)
                return
            except (MpiError, OclError) as exc:
                # The peer's attempt fails at the same simulated time
                # (delivery failure poisons both endpoints' events), so
                # both sides advance to the next rung together.
                last = exc
                if isinstance(exc, MpiRankFailed):
                    # ULFM fail-stop: no rung of the ladder can reach a
                    # dead peer — the transfer is *orphaned*, not
                    # degradable.  Stop here so the failure surfaces
                    # while the communicator can still be revoked/shrunk.
                    if env.probe is not None:
                        env.probe.on_fault({
                            "kind": "clmpi_orphaned", "time": env.now,
                            "op": op, "peer": peer, "tag": desc.tag,
                            "rank": exc.rank, "node": exc.node,
                            "flow": getattr(exc, "flow", 0)})
                    break
                if env.probe is not None:
                    env.probe.on_fault({
                        "kind": "clmpi_degrade", "time": env.now,
                        "op": op, "peer": peer, "tag": desc.tag,
                        "mode": mode, "attempt": attempt,
                        "error": str(exc),
                        "flow": getattr(exc, "flow", 0)})
        if isinstance(last, MpiRankFailed):
            exc = ClmpiError(
                f"clMPI {op} with peer {peer} tag {desc.tag} "
                f"({desc.nbytes} B) orphaned: rank {last.rank} "
                f"(node {last.node}) has failed"
                + (f" [flow {last.flow}]" if getattr(last, "flow", 0)
                   else ""))
            exc.rank = last.rank
            exc.node = last.node
        else:
            exc = ClmpiError(
                f"clMPI {op} with peer {peer} tag {desc.tag} "
                f"({desc.nbytes} B) failed in every transfer mode "
                f"(attempts: {', '.join(modes)}); last error: {last}")
        exc.injected = getattr(last, "injected", False)
        exc.flow = getattr(last, "flow", 0)
        raise exc from last

    # convenience entry points used by the API layer -----------------------
    def device_send(self, buf: Buffer, offset: int, size: int, dest: int,
                    tag: int, comm: Communicator):
        """Coroutine: send from a device buffer (the command body)."""
        return self.do_send(self._device_side(buf, offset, size),
                            dest, tag, comm)

    def device_recv(self, buf: Buffer, offset: int, size: int, source: int,
                    tag: int, comm: Communicator):
        """Coroutine: receive into a device buffer (the command body)."""
        return self.do_recv(self._device_side(buf, offset, size),
                            source, tag, comm)

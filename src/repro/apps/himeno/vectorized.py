"""Mesoscale (vectorized-engine) replay of the Himeno implementations.

Every rank of :func:`~repro.apps.himeno.clmpi_impl.clmpi_main` and
:func:`~repro.apps.himeno.serial.serial_main` executes the same command
sequence per iteration — only the operand values (neighbour ranks, A/B
row counts, kernel durations) differ per rank.  Those operands are the
one schedule statement :meth:`~repro.apps.himeno.decomp.Partition.schedule`,
read here for all ranks at once as integer arrays.  This module replays
that sequence once, as float64 array lanes over all P ranks, through
:class:`~repro.sim.vectorized.VectorEngine` — byte-identical to the
coroutine engine, in milliseconds at 1k+ ranks.

Supported: ``serial`` and ``clmpi`` implementations, pinned and mapped
halo transfers, timing-only runs, one rank or an even rank count.
Refused with :class:`~repro.sim.EngineError`: functional runs,
pipelined halo planes (per-block DMA interleaves with the other queues'
DMA in ways that need genuine event interleaving), and odd rank counts
of 3 or more.  At odd P, rank P-1 has no phase-1 partner and rank 0 no
phase-2 partner, so both run ahead of the phase batches; the replay
models only the even-P case, where rank P-1 alone runs ahead of phase 2
(see :func:`_phase2_halo`).  ``hand-optimized`` / ``gpu-aware-mpi``
have no vectorized model and are refused the same way.
``run_himeno(..., engine='auto')`` runs every refused point on the
coroutine engine.

Shared-DMA arbitration note (the C1060 / single-copy-engine case): in
one clMPI iteration a node's phase-1 *receive drain* (h2d) and phase-2
*send stage* (d2h) can request the single DMA engine at the same
simulated instant (symmetric neighbour pairs).  The coroutine scheduler
resolves this deterministically in favour of the receive drain: its
wake-up (the MPI receive completion) resumes the recv command, which
requests the link in that same event, while the send side still has to
hop through command-completion → dispatcher → wait-list processing
before it can request.  The replay encodes exactly that order (h2d
entries first in the combined batch, ``allow_ties=True``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.himeno.config import FLOPS_PER_CELL, HimenoConfig
from repro.apps.himeno.decomp import Partition
from repro.apps.himeno.kernels import GOSA_BYTES
from repro.clmpi.selector import TransferSelector
from repro.sim import EngineError, Environment
from repro.systems.presets import SystemPreset

__all__ = ["VECTORIZED_IMPLEMENTATIONS", "vectorized_rows"]

#: implementations this module can replay
VECTORIZED_IMPLEMENTATIONS = ("serial", "clmpi")

_NEG_INF = float("-inf")


class _Lanes:
    """Per-rank decomposition constants + engine, shared by both models."""

    def __init__(self, system: SystemPreset, nodes: int,
                 config: HimenoConfig):
        mi, mj, mk = config.grid
        self.part = Partition(nodes, mi, mj, mk)
        self.P = nodes
        self.cfg = config
        ranks = np.arange(nodes)
        self.ranks = ranks
        #: per phase in execution order: rows computed, which ranks
        #: exchange, and with whom — Partition.schedule over all ranks
        self.phases = [(hi - lo, (partner >= 0) & (partner < nodes),
                        partner)
                       for lo, hi, partner in self.part.schedule(ranks)]
        self.plane = self.part.plane_bytes()
        self.env = Environment(engine="vectorized")
        self.v = self.env.vector.bind(system, nodes)
        self.t = self.v.t

    def kdur(self, rows: np.ndarray) -> np.ndarray:
        """Replay of the jacobi kernel's cost model for ``rows`` i-rows."""
        _, mj, mk = self.cfg.grid
        flops = float(FLOPS_PER_CELL) * rows * (mj - 2) * (mk - 2)
        mem = 4.0 * rows * mj * mk * 4
        return self.t.kernel_duration(flops, mem)

    def rows_out(self, t0, t1, ktime) -> list[dict]:
        """Per-rank result dicts exactly as ``finalize`` shapes them."""
        iters = self.cfg.iterations
        gosas = [0.0] * iters     # timing-only: the residual is never run
        return [{"rank": int(r),
                 "time": float(t1[r] - t0[r]),
                 "kernel_time": float(ktime[r]),
                 "gosa_per_iter": list(gosas),
                 "gosa": gosas[-1] if gosas else float("nan"),
                 "p_local": None}
                for r in range(self.P)]


def _gosa_and_allreduce(L: _Lanes, h, q_ready, raced=None):
    """End-of-iteration ``read_gosa``: blocking 8-byte read + allreduce.

    ``raced`` is ``(gosa_done, pre)`` of rank P-1 when its gosa read and
    reduce isend were already serviced (see :func:`_phase2_halo`).
    Returns ``(h, q_ready)`` after the collective.
    """
    t, v = L.t, L.v
    sub = h + t.co
    disp = np.maximum(q_ready, sub)
    if raced is None:
        _, done = v.d2h.use(L.ranks, disp, t.pcie.dma_time(GOSA_BYTES))
        pre = None
    else:
        done_r, pre_r = raced
        done = np.empty(L.P)
        done[:-1] = v.d2h.use(L.ranks[:-1], disp[:-1],
                              t.pcie.dma_time(GOSA_BYTES))[1]
        done[-1] = done_r
        pre = {L.P - 1: pre_r}
    h = done + t.so            # blocking enqueue: completion + wake-up
    return v.allreduce_small(h, float(GOSA_BYTES), pre=pre), done


def _phase2_halo(L: _Lanes, src, dst, ts1, tr1, h_r: float,
                 q_ready_r: float, rate=None):
    """The phase-2 halo ``transfer`` batch, with rank P-1 run ahead.

    Rank P-1 has no phase-2 exchange, so its gosa read and its 8-byte
    reduce isend to parent P-2 happen during this phase: the read on its
    own DMA port, the isend's wire service interleaved with the halo
    from P-3 arriving at P-2's NIC receive port.  Both requests are tx
    grants, predictable from current port state (the two messages use
    different tx ports), so the one that comes first is served first.
    An exact tie is a coroutine heap arbitration — refused.

    ``src``/``dst``/``ts1``/``tr1`` are the halo batch, ``h_r`` and
    ``q_ready_r`` rank P-1's host and queue-ready times at the gosa read.
    Returns ``(send_c, recv_c, raced)``, ``raced`` being
    ``(gosa_done, (ts1, arrival))`` for :func:`_gosa_and_allreduce`.
    """
    t, v = L.t, L.v
    R = L.P - 1
    _, d = v.d2h.use(np.array([R]), np.array([max(q_ready_r, h_r + t.co)]),
                     t.pcie.dma_time(GOSA_BYTES))
    done = float(d[0])
    ts1_r = (done + t.so) + t.co
    t2_r = ts1_r + t.cluster.eager_stage_time(float(GOSA_BYTES))
    i = int(np.flatnonzero(src == R - 2)[0])
    if L.plane <= t.eager_threshold:
        wreq = ts1[i] + t.cluster.eager_stage_time(L.plane)
    else:
        wreq = max(ts1[i], tr1[i]) + t.fabric.control_time()
    halo_txg = max(wreq, float(v.tx.free[R - 2]))
    isend_txg = max(t2_r, float(v.tx.free[R]))
    if isend_txg == halo_txg:
        raise EngineError(
            "raced-ahead reduce isend ties the phase-2 halo on the "
            "parent's receive port; the coroutine engine resolves this "
            "by heap sequence — refusing to guess")

    def isend():
        return ts1_r, float(v.wire([R], [R - 1], [t2_r],
                                   float(GOSA_BYTES))[0])

    if isend_txg < halo_txg:
        pre = isend()
    send_c, recv_c = v.transfer(src, dst, ts1, tr1, L.plane,
                                send_rate=rate, recv_rate=rate)
    if isend_txg > halo_txg:
        pre = isend()
    return send_c, recv_c, (done, pre)


def _clmpi_rows(L: _Lanes, mode: str, block: Optional[int],
                base: str) -> list[dict]:
    """Replay of :func:`clmpi_main` over all ranks at once."""
    t, v, P = L.t, L.v, L.P
    if mode == "pipelined":
        raise EngineError(
            "the vectorized himeno model does not support pipelined halo "
            "planes (per-block DMA interleaves across queues); use "
            "engine='coroutine' or a non-pipelined force_mode")
    (rows_f, has_x1, p1), (rows_s, has_x2, p2) = L.phases
    src1 = L.ranks[has_x1]
    dst1 = p1[has_x1]
    src2 = L.ranks[has_x2]
    dst2 = p2[has_x2]
    dur_f = L.kdur(rows_f)
    dur_s = L.kdur(rows_s)
    plane = L.plane
    pdur = t.pcie.dma_time(plane)

    entry = v.barrier(np.zeros(P, dtype=np.float64))
    t0 = entry
    h = entry.copy()
    q0r = entry.copy()          # per-queue dispatcher-ready times
    qsr = entry.copy()
    qrr = entry.copy()
    ktime = np.zeros(P, dtype=np.float64)
    s_prev = np.full(P, _NEG_INF)       # previous second kernel
    x2s_prev = np.full(P, _NEG_INF)     # previous phase-2 events
    x2r_prev = np.full(P, _NEG_INF)

    for _ in range(L.cfg.iterations):
        # --- host thread: enqueue the whole iteration without blocking
        sub_f = h + t.co
        h = sub_f
        sub_x1s = h + t.co
        sub_x1r = sub_x1s + t.co
        h = np.where(has_x1, sub_x1r, h)
        sub_s = h + t.co
        h = sub_s
        sub_x2s = h + t.co
        sub_x2r = sub_x2s + t.co
        h = np.where(has_x2, sub_x2r, h)

        # --- first kernel: waits the previous iteration's phase-2 events
        run_f = np.maximum(np.maximum(np.maximum(q0r, sub_f), x2s_prev),
                           x2r_prev)
        _, done_f = v.gpu.use(L.ranks, run_f, dur_f)

        # --- phase-1 exchange: waits the previous second kernel
        x1s_run = np.maximum(np.maximum(qsr, sub_x1s), s_prev)
        x1r_run = np.maximum(np.maximum(qrr, sub_x1r), s_prev)
        x1s_done = qsr.copy()
        x1r_done = qrr.copy()
        recv_c1 = np.full(P, _NEG_INF)
        if src1.size:
            if mode == "pinned":
                res = v.clmpi_pair(src1, dst1, x1s_run[src1],
                                   x1r_run[dst1], plane, "pinned",
                                   defer_recv_dma=True)
            else:
                res = v.clmpi_pair(src1, dst1, x1s_run[src1],
                                   x1r_run[dst1], plane, mode, block, base)
            x1s_done[src1] = res["send_done"]
            recv_c1[dst1] = res["recv_c"]
            if mode != "pinned":
                x1r_done[dst1] = res["recv_done"]

        # --- phase-2 send stage + phase-1 receive drain share the DMA
        # engine(s); service them as one batch (see module docstring)
        x2s_run = np.maximum(np.maximum(np.where(has_x1, x1s_done, qsr),
                                        sub_x2s), done_f)
        if mode == "pinned":
            n1, n2 = src1.size, src2.size
            # one FifoPorts holds both directions when the engine is
            # shared (C1060) — h2d drains go first (see module docstring)
            if v.h2d is v.d2h:
                _, dones = v.d2h.use(
                    np.concatenate([dst1, src2]),
                    np.concatenate([recv_c1[dst1], x2s_run[src2]]),
                    pdur, allow_ties=True)
            else:
                _, h2d_dones = v.h2d.use(dst1, recv_c1[dst1], pdur,
                                         allow_ties=True)
                _, d2h_dones = v.d2h.use(src2, x2s_run[src2], pdur,
                                         allow_ties=True)
                dones = np.concatenate([h2d_dones, d2h_dones])
            x1r_done[dst1] = dones[:n1]
            x2_d2h = dones[n1:n1 + n2]

        # --- second kernel: waits both phase-1 events
        run_s = np.maximum(
            np.maximum(np.maximum(done_f, sub_s),
                       np.where(has_x1, x1s_done, _NEG_INF)),
            np.where(has_x1, x1r_done, _NEG_INF))
        _, done_s = v.gpu.use(L.ranks, run_s, dur_s)

        # --- phase-2 exchange: waits the first kernel
        x2r_run = np.maximum(np.maximum(np.where(has_x1, x1r_done, qrr),
                                        sub_x2r), done_f)
        x2s_done = np.full(P, _NEG_INF)
        x2r_done = np.full(P, _NEG_INF)
        raced = None
        if src2.size:
            if mode == "pinned":
                ts1_2 = x2_d2h + t.co
                tr1_2 = x2r_run[dst2] + t.co
                rate = None
            else:
                ts1_2 = ((x2s_run[src2] + t.map_overhead)
                         + t.mapped_latency) + t.co
                tr1_2 = ((x2r_run[dst2] + t.map_overhead)
                         + t.mapped_latency) + t.co
                rate = t.mapped_bw
            # rank P-1 skips this phase: replay its clFinishes now, then
            # its gosa read and reduce isend with the halo batch
            R = P - 1
            hr = float(h[R])
            d_s = float(done_s[R])
            hr = d_s + t.so if d_s > hr else hr + t.co     # q0
            tail = float(x1s_done[R])
            hr = tail + t.so if tail > hr else hr + t.co   # qs
            tail = float(x1r_done[R])
            hr = tail + t.so if tail > hr else hr + t.co   # qr
            send_c, recv_c, raced = _phase2_halo(L, src2, dst2, ts1_2,
                                                 tr1_2, hr, d_s, rate)
            if mode == "pinned":
                x2s_done[src2] = send_c
                _, drained = v.h2d.use(dst2, recv_c, pdur)
                x2r_done[dst2] = drained
            else:
                x2s_done[src2] = send_c + t.map_overhead
                x2r_done[dst2] = recv_c + t.map_overhead

        ktime = (ktime + (done_f - run_f)) + (done_s - run_s)
        q0r = done_s
        qsr = np.where(has_x2, x2s_done, np.where(has_x1, x1s_done, qsr))
        qrr = np.where(has_x2, x2r_done, np.where(has_x1, x1r_done, qrr))

        # --- clFinish × 3 (Fig 6: the host only waits here)
        h = np.where(done_s > h, done_s + t.so, h + t.co)      # q0
        qs_tail = np.where(has_x2, x2s_done,
                           np.where(has_x1, x1s_done, _NEG_INF))
        h = np.where(qs_tail > h, qs_tail + t.so, h + t.co)    # qs
        qr_tail = np.where(has_x2, x2r_done,
                           np.where(has_x1, x1r_done, _NEG_INF))
        h = np.where(qr_tail > h, qr_tail + t.so, h + t.co)    # qr

        h, q0r = _gosa_and_allreduce(L, h, q0r, raced)
        s_prev = done_s
        x2s_prev = np.where(has_x2, x2s_done, _NEG_INF)
        x2r_prev = np.where(has_x2, x2r_done, _NEG_INF)

    t1 = v.barrier(h)
    v.commit(t1)
    return L.rows_out(t0, t1, ktime)


def _serial_rows(L: _Lanes) -> list[dict]:
    """Replay of :func:`serial_main`: everything blocks the host."""
    t, v, P = L.t, L.v, L.P
    (rows_f, has_x1, p1), (rows_s, has_x2, p2) = L.phases
    dur_f = L.kdur(rows_f)
    dur_s = L.kdur(rows_s)
    plane = L.plane
    pdur = t.pcie.dma_time(plane)

    entry = v.barrier(np.zeros(P, dtype=np.float64))
    t0 = entry
    h = entry.copy()
    qr = entry.copy()           # the single queue's ready time
    ktime = np.zeros(P, dtype=np.float64)

    def kernel_blocking(h, qr, ktime, dur):
        sub = h + t.co
        run = np.maximum(qr, sub)
        _, done = v.gpu.use(L.ranks, run, dur)
        h = np.where(done > sub, done + t.so, sub + t.co)
        return h, done, ktime + (done - run)

    def exchange_blocking(h, qr, has, partner, ahead=None):
        """One phase's exchanges; ``ahead`` is rank P-1's host and queue
        times when it skips the phase and runs ahead (phase 2)."""
        src = L.ranks[has]
        dst = partner[has]
        # blocking pinned read of the outgoing plane
        sub = h + t.co
        disp = np.maximum(qr, sub)
        _, d2h_done = v.d2h.use(src, disp[src], pdur)
        qr = qr.copy()
        qr[src] = d2h_done
        h = np.where(has, np.full(P, _NEG_INF), h)
        h[src] = d2h_done + t.so
        # sendrecv: isend, then irecv, then wait both (+ wake-up)
        ts1 = h + t.co
        tr1 = ts1 + t.co
        raced = None
        if ahead is None:
            send_c, recv_c = v.transfer(src, dst, ts1[src], tr1[dst], plane)
        else:
            send_c, recv_c, raced = _phase2_halo(L, src, dst, ts1[src],
                                                 tr1[dst], *ahead)
        # rank src[i] receives the message its partner dst[i] sent
        pos = np.empty(P, dtype=np.intp)
        pos[src] = np.arange(src.size)
        done = np.full(P, _NEG_INF)
        done[src] = np.maximum(recv_c[pos[dst]], send_c)
        h = np.where(has, done + t.so, h)
        # blocking pinned write of the received plane
        sub2 = h + t.co
        disp2 = np.maximum(qr, sub2)
        _, h2d_done = v.h2d.use(src, disp2[src], pdur)
        qr[src] = h2d_done
        h[src] = h2d_done + t.so
        return h, qr, raced

    for _ in range(L.cfg.iterations):
        hk, qrk, ktime = kernel_blocking(h, qr, ktime, dur_f)
        h, qr = hk, qrk
        if has_x1.any():
            hx, qx, _ = exchange_blocking(h, qr, has_x1, p1)
            h = np.where(has_x1, hx, h)
            qr = np.where(has_x1, qx, qr)
        hk, qrk, ktime = kernel_blocking(h, qr, ktime, dur_s)
        h, qr = hk, qrk
        raced = None
        if has_x2.any():
            hx, qx, raced = exchange_blocking(
                h, qr, has_x2, p2, (float(h[-1]), float(qr[-1])))
            h = np.where(has_x2, hx, h)
            qr = np.where(has_x2, qx, qr)
        h, qr = _gosa_and_allreduce(L, h, qr, raced)

    t1 = v.barrier(h)
    v.commit(t1)
    return L.rows_out(t0, t1, ktime)


def vectorized_rows(system: SystemPreset, nodes: int, implementation: str,
                    config: HimenoConfig,
                    force_mode: Optional[str] = None,
                    force_block: Optional[int] = None
                    ) -> tuple[list[dict], Environment]:
    """Replay one Himeno run; returns ``(per-rank rows, environment)``.

    Raises :class:`EngineError` for anything the mesoscale model refuses
    (see module docstring).
    """
    if implementation not in VECTORIZED_IMPLEMENTATIONS:
        raise EngineError(
            f"no vectorized model for implementation {implementation!r}; "
            f"available: {VECTORIZED_IMPLEMENTATIONS}")
    if nodes >= 3 and nodes % 2:
        raise EngineError(
            f"the vectorized himeno model refuses odd rank counts of 3 or "
            f"more ({nodes} ranks): rank {nodes - 1} has no phase-1 partner "
            "and rank 0 no phase-2 partner, so both run ahead of the phase "
            "batches, which the replay does not model; use engine='auto' "
            "or an even rank count")
    L = _Lanes(system, nodes, config)
    if implementation == "serial":
        rows = _serial_rows(L)
    else:
        mode, block, base = TransferSelector(
            system.policy, force_mode=force_mode,
            force_block=force_block).choose(L.plane)
        rows = _clmpi_rows(L, mode, block, base)
    return rows, L.env

"""Mesoscale (vectorized-engine) replay of the Himeno implementations.

Every rank of :func:`~repro.apps.himeno.clmpi_impl.clmpi_main` and
:func:`~repro.apps.himeno.serial.serial_main` executes the same command
sequence per iteration — only the operand values (neighbour ranks, A/B
row counts, kernel durations) differ per rank.  Those operands are the
schedule :meth:`~repro.apps.himeno.decomp.Partition.phases` gives each
rank; :class:`_Lanes` holds them as whole-array formulas (per-rank
``phases()`` calls would cost milliseconds at 1k ranks), and a test pins
the formulas to ``phases()``.  This module replays that
sequence once, as float64 array lanes over all P ranks, through
:class:`~repro.sim.vectorized.VectorEngine` — byte-identical to the
coroutine engine at any rank count, in milliseconds at 1k+ ranks.

Supported: ``serial`` and ``clmpi`` implementations, pinned and mapped
halo transfers, timing-only runs.  Refused with
:class:`~repro.sim.EngineError`: functional runs, pipelined halo
planes (per-block DMA interleaves with the other queues' DMA in ways
that need genuine event interleaving), and odd-rank mapped-mode clmpi
runs (the reduce tree's tied 8-byte messages are ordered by the
coroutine heap's global event sequence there, which no static rule
reproduces — see ``VectorEngine._drain_level``).  ``hand-optimized`` /
``gpu-aware-mpi`` have no vectorized model — the driver falls back to
the coroutine engine with a warning.

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
from repro.mpi.matching import match_arrays
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
        self.even = ranks % 2 == 0
        ab = np.array([self.part.ab_split(r) for r in range(nodes)],
                      dtype=np.float64)
        rows_a = ab[:, 1] - ab[:, 0]
        rows_b = ab[:, 3] - ab[:, 2]
        # the order of Partition.phases: even ranks compute A first
        self.rows_first = np.where(self.even, rows_a, rows_b)
        self.rows_second = np.where(self.even, rows_b, rows_a)
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

    def x1_masks(self):
        """Phase-1 halo exchange: rank 2i ↔ 2i+1 (even's hi neighbour)."""
        ranks, P = self.ranks, self.P
        has = np.where(self.even, ranks + 1 < P, True)
        partner = np.where(self.even, ranks + 1, ranks - 1)
        return has, partner

    def x2_masks(self):
        """Phase-2 halo exchange: rank 2i+1 ↔ 2i+2 (even's lo neighbour)."""
        ranks, P = self.ranks, self.P
        has = np.where(self.even, ranks > 0, ranks + 1 < P)
        partner = np.where(self.even, ranks - 1, ranks + 1)
        return has, partner

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

    ``raced`` is ``(rank, gosa_done, pre_tuple)`` for a rank whose gosa
    read and reduce isend were already serviced (see :func:`_race_ahead`
    — it skipped the final exchange phase and ran ahead of it).
    Returns ``(h, q_ready)`` after the collective.
    """
    t, v = L.t, L.v
    sub = h + t.co
    disp = np.maximum(q_ready, sub)
    if raced is None:
        _, done = v.d2h.use(L.ranks, disp, t.pcie.dma_time(GOSA_BYTES))
        pre = None
    else:
        r, done_r, pre_t = raced
        sel = L.ranks[L.ranks != r]
        done = np.empty(L.P)
        _, dsel = v.d2h.use(sel, disp[sel], t.pcie.dma_time(GOSA_BYTES))
        done[sel] = dsel
        done[r] = done_r
        pre = {r: pre_t}
    h = done + t.so            # blocking enqueue: completion + wake-up
    return v.allreduce_small(h, float(GOSA_BYTES), pre=pre), done


def _race_ahead(L: _Lanes, r: int, h_r: float, q_ready_r: float):
    """Rank ``r``'s gosa read and reduce-isend post, computed *before*
    the final exchange phase is serviced.

    At even P, rank P-1 has no phase-2 exchange: its gosa read (own DMA
    port — safe) and its 8-byte reduce message to parent P-2 genuinely
    interleave with the phase-2 halo arriving at P-2's NIC receive
    port.  Returns ``(gosa_done, ts1, t2)`` of the reduce isend.
    """
    t, v = L.t, L.v
    sub = h_r + t.co
    disp = max(q_ready_r, sub)
    _, d = v.d2h.use(np.array([r]), np.array([disp]),
                     t.pcie.dma_time(GOSA_BYTES))
    done = float(d[0])
    entry = done + t.so
    ts1 = entry + t.co
    t2 = ts1 + t.cluster.eager_stage_time(float(GOSA_BYTES))
    return done, ts1, t2


def _reduce_isend_first(L: _Lanes, r: int, t2_r: float,
                        halo_ts1: float, halo_tr1: float) -> bool:
    """Does rank ``r``'s raced-ahead reduce isend hit port ``r-1``'s
    NIC receive before the phase-2 halo from ``r-2`` does?

    Both request times are tx-port grants, predictable from current
    port state (the two messages use different tx ports).  An exact tie
    is a coroutine heap arbitration — refused.
    """
    t, v = L.t, L.v
    if L.plane <= t.eager_threshold:
        wreq = halo_ts1 + t.cluster.eager_stage_time(L.plane)
    else:
        wreq = max(halo_ts1, halo_tr1) + t.fabric.control_time()
    halo_txg = max(wreq, float(v.tx.free[r - 2]))
    my_txg = max(t2_r, float(v.tx.free[r]))
    if my_txg == halo_txg:
        raise EngineError(
            "raced-ahead reduce isend ties the phase-2 halo on the "
            "parent's receive port; the coroutine engine resolves this "
            "by heap sequence — refusing to guess")
    return my_txg < halo_txg


def _clmpi_rows(L: _Lanes, mode: str, block: Optional[int],
                base: str) -> list[dict]:
    """Replay of :func:`clmpi_main` over all ranks at once."""
    t, v, P = L.t, L.v, L.P
    if mode == "pipelined":
        raise EngineError(
            "the vectorized himeno model does not support pipelined halo "
            "planes (per-block DMA interleaves across queues); use "
            "engine='coroutine' or a non-pipelined force_mode")
    if mode == "mapped" and P >= 3 and P % 2 == 1:
        # At odd P the phase-2 exchange leaves the reduce tree's children
        # in perfect lockstep, so their 8-byte messages hit the root's rx
        # port at bit-identical times.  The coroutine engine breaks that
        # tie by global event sequence, which for the mapped-mode clMPI
        # program differs from the calibrated descending-child order
        # (empirically: cichlid/clmpi/P=3 serves the lower child first).
        # No static rule reproduces it, so this cell is refused rather
        # than silently diverging; the driver falls back to the
        # coroutine engine.
        raise EngineError(
            "the vectorized himeno model cannot reproduce the coroutine "
            "scheduler's exact-tie service order for odd-rank mapped-mode "
            "clmpi runs; use engine='coroutine' or an even rank count")
    has_x1, p1 = L.x1_masks()
    has_x2, p2 = L.x2_masks()
    src1 = L.ranks[has_x1]
    dst1 = p1[has_x1]
    src2 = L.ranks[has_x2]
    dst2 = p2[has_x2]
    dur_f = L.kdur(L.rows_first)
    dur_s = L.kdur(L.rows_second)
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
            first = False
            if P % 2 == 0 and P >= 4:
                # rank P-1 skips this phase: replay its clFinishes, gosa
                # read and reduce isend now, and order that isend's wire
                # against the halo into its reduce parent's receive port
                R = P - 1
                hr = float(h[R])
                d_s = float(done_s[R])
                hr = d_s + t.so if d_s > hr else hr + t.co     # q0
                tail = float(x1s_done[R])
                hr = tail + t.so if tail > hr else hr + t.co   # qs
                tail = float(x1r_done[R])
                hr = tail + t.so if tail > hr else hr + t.co   # qr
                done_r, ts1_r, t2_r = _race_ahead(L, R, hr, d_s)
                i = int(np.nonzero(src2 == R - 2)[0][0])
                first = _reduce_isend_first(L, R, t2_r, float(ts1_2[i]),
                                            float(tr1_2[i]))
                if first:
                    pre_t = v.eager_wire_single(R, R - 1, ts1_r)
            send_c, recv_c = v.transfer(src2, dst2, ts1_2, tr1_2, plane,
                                        send_rate=rate, recv_rate=rate)
            if P % 2 == 0 and P >= 4:
                if not first:
                    pre_t = v.eager_wire_single(R, R - 1, ts1_r)
                raced = (R, done_r, pre_t)
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
    has_x1, p1 = L.x1_masks()
    has_x2, p2 = L.x2_masks()
    dur_f = L.kdur(L.rows_first)
    dur_s = L.kdur(L.rows_second)
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

    def exchange_blocking(h, qr, has, partner, race=None):
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
        pre_t = None
        if race is not None:
            # order the raced rank's reduce isend against the halo into
            # its parent's receive port (see _race_ahead)
            R, ts1_r, t2_r = race
            first = _reduce_isend_first(L, R, t2_r, float(ts1[R - 2]),
                                        float(tr1[R - 1]))
            if first:
                pre_t = v.eager_wire_single(R, R - 1, ts1_r)
        send_c, recv_c = v.transfer(src, dst, ts1[src], tr1[dst], plane)
        if race is not None and pre_t is None:
            pre_t = v.eager_wire_single(R, R - 1, ts1_r)
        done = np.full(P, _NEG_INF)
        # pair each rank's posted receive with the envelope headed its
        # way: batch non-wildcard matching (recv i names source dst[i])
        done[src] = np.maximum(recv_c[match_arrays(dst, 0, src, 0)], send_c)
        h = np.where(has, done + t.so, h)
        # blocking pinned write of the received plane
        sub2 = h + t.co
        disp2 = np.maximum(qr, sub2)
        _, h2d_done = v.h2d.use(src, disp2[src], pdur)
        qr[src] = h2d_done
        h[src] = h2d_done + t.so
        return h, qr, pre_t

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
            race = None
            if P % 2 == 0 and P >= 4:
                # rank P-1 has no second exchange: its gosa read and
                # reduce isend race ahead of this phase's wire traffic
                R = P - 1
                done_r, ts1_r, t2_r = _race_ahead(L, R, float(h[R]),
                                                  float(qr[R]))
                race = (R, ts1_r, t2_r)
            hx, qx, pre_t = exchange_blocking(h, qr, has_x2, p2, race)
            if race is not None:
                raced = (R, done_r, pre_t)
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
    (see module docstring); the driver decides whether to surface that
    or fall back.
    """
    if implementation not in VECTORIZED_IMPLEMENTATIONS:
        raise EngineError(
            f"no vectorized model for implementation {implementation!r}; "
            f"available: {VECTORIZED_IMPLEMENTATIONS}")
    L = _Lanes(system, nodes, config)
    if implementation == "serial":
        rows = _serial_rows(L)
    else:
        mode, block, base = TransferSelector(
            system.policy, force_mode=force_mode,
            force_block=force_block).choose(L.plane)
        rows = _clmpi_rows(L, mode, block, base)
    return rows, L.env

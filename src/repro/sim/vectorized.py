"""NumPy-vectorized timing-only execution engine (the *mesoscale* engine).

The coroutine engine (:mod:`repro.sim.core`) pays one generator frame and
several heap events per simulated action; at 1000+ ranks a single sweep
point costs millions of events.  This module is the second execution
engine behind the :class:`~repro.sim.Environment` facade
(``Environment(engine="vectorized")``): *rank-virtualized* timing models
replay the exact arithmetic the coroutine layers would perform — as
elementwise float64 array operations over all ranks at once — without
instantiating a single coroutine.

Why the results are **byte-identical** and not merely close: every timing
rule in the simulator bottoms out in IEEE-754 double adds, divides, and
maxes (``docs/performance.md``: the cross-engine determinism invariant).
NumPy float64 elementwise ops are the same IEEE operations in the same
association order, so replaying a rank's chain ``t = (t + a) + b`` as a
lane of an array produces bit-for-bit the float the coroutine produced.
The primitives here encode those chains once:

* :class:`FifoPorts` — batched service of capacity-1 FIFO resources (NIC
  tx/rx ports, PCIe DMA engines, GPU compute): ``grant = max(request,
  free)``, with an explicit :class:`~repro.sim.EngineError` refusal when
  a batch contains an arbitration tie the ``(time, priority, sequence)``
  order of the coroutine heap would have resolved arbitrarily.
* :class:`VectorEngine` — the per-environment facade: wire transfers
  (eager / rendezvous exactly as :mod:`repro.mpi.comm` models them),
  PCIe link service, the clMPI transfer engines, and the small
  collectives — dissemination barriers served as rank rotations on the
  port arrays, binomial reduces drained one tree level at a time,
  binomial broadcasts served one tree level at a time on strided views
  of the port arrays.

Where a call's port pairing is fixed, it is checked once rather than per
round: a pipelined clMPI transfer gathers its lanes' port state once,
replays every block on those lane-local arrays and scatters once, and a
broadcast level or barrier round is correct by construction (every port
used once, none as loopback).  Only the generic :meth:`VectorEngine.wire`
and :meth:`FifoPorts.use` batches re-check their ports on every call.

The per-message timing rules are not restated here: both engines call
the one statement on the hardware spec that owns each rule's constants
(see :class:`Timings`).

What the vectorized engine deliberately does **not** support (it refuses
with :class:`~repro.sim.EngineError` or the caller falls back to the
coroutine engine with a warning): functional (payload-moving) kernels,
schedule-policy exploration, per-event monitor hooks, fault injection,
and tracing — all of these need the per-event coroutine substrate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.core import EngineError

__all__ = ["VectorEngine", "FifoPorts", "Timings"]

_NEG_INF = float("-inf")
_NIC_PORT_TWICE = ("vectorized wire batch uses a NIC port twice; ports are "
                   "held until arrival, so callers must split such batches "
                   "into sequential rounds")


def _lanes(x, shape):
    """``x`` with one value per lane: broadcast (as a view) if needed."""
    return x if x.shape == shape else np.broadcast_to(x, shape)


def _operand(x, shape):
    """A float64 per-message operand: a scalar stays a 0-d array (the
    elementwise ops broadcast it, with the same IEEE results), anything
    else gets one value per lane."""
    x = np.asarray(x, dtype=np.float64)
    return x if x.ndim == 0 else _lanes(x, shape)


def _pick(x, m):
    """``x[m]`` for a per-lane operand; a 0-d scalar is every lane's."""
    return x if x.ndim == 0 else x[m]


class Timings:
    """Timing constants and rules of one :class:`SystemPreset`, unpacked.

    The shared per-message rules are called on the preset's own specs
    (:attr:`fabric`, :attr:`host`, :attr:`pcie`, :attr:`cluster`); the
    scalars are the constants model code reads directly, so it says
    ``v.co`` instead of chasing nested dataclasses.  The cluster is
    homogeneous, which is what lets one scalar serve all lanes.
    """

    def __init__(self, preset) -> None:
        cluster = preset.cluster
        node = cluster.node
        host, gpu, pcie = node.host, node.gpu, node.pcie
        fabric = cluster.fabric
        self.cluster = cluster
        self.fabric = fabric
        self.host = host
        self.pcie = pcie
        #: host API-call overhead (every enqueue/isend/irecv)
        self.co = float(host.call_overhead)
        #: host sync wake-up (every blocking wait that actually blocked)
        self.so = float(host.sync_overhead)
        self.nic_bw = float(fabric.nic.bandwidth)
        self.eager_threshold = int(preset.mpi_eager_threshold)
        self.mapped_bw = float(pcie.mapped_bandwidth)
        self.map_overhead = float(pcie.map_overhead)
        self.mapped_latency = float(pcie.mapped_latency)
        self.copy_engines = int(gpu.copy_engines)
        self.gpu_launch = float(gpu.launch_overhead)
        self.gpu_gflops = float(gpu.sustained_gflops)
        self.gpu_mem_bw = float(gpu.mem_bandwidth)

    def kernel_duration(self, flops, mem_bytes):
        """Replay of :meth:`GpuSpec.kernel_time` (elementwise), the one
        rule not shared: the spec's builtin ``max`` keeps the coroutine
        engine's kernel times floats, where ``np.maximum`` would not."""
        return self.gpu_launch + np.maximum(
            flops / (self.gpu_gflops * 1e9), mem_bytes / self.gpu_mem_bw)


class FifoPorts:
    """A batch of capacity-1 FIFO resources serviced with array math.

    Mirrors :class:`repro.sim.resources.Resource` (capacity 1): a request
    at time ``r`` on a port free at ``f`` is granted at ``max(r, f)``;
    the port stays busy until the caller-computed ``done`` time.  FIFO
    order *is* request-time order — the coroutine heap guarantees that —
    so a batch whose request times cannot be totally ordered per port
    (two equal request times, or a request earlier than one already
    serviced) is an arbitration the ``(time, priority, sequence)``
    tie-break would resolve arbitrarily.  We refuse such batches with
    :class:`EngineError` instead of guessing (the caller reruns on the
    coroutine engine); this is the engine's graceful-degradation edge.

    :meth:`use` serves a batch one of two ways, with identical results:

    * **one request per port** (the common case: every wire round, every
      per-rank kernel or DMA batch) — elementwise in input order, in
      O(batch): ``grant = max(req, free[idx])``, ``done = grant + dur``,
      then ``free`` and ``last_req`` take the elementwise max.  Whether a
      batch qualifies is itself an O(batch) test (:meth:`_once`), not a
      hash or a sort.
    * **a port repeated** — requests are sorted by ``(port, time)`` and
      each port's requests are chained, ``grant_i = max(req_i,
      done_{i-1})``; results go back to input order.
    """

    def __init__(self, n: int, what: str = "port"):
        self.free = np.zeros(n, dtype=np.float64)
        self.last_req = np.full(n, _NEG_INF, dtype=np.float64)
        self.what = what
        # scratch for _once: the batch position last written per port
        self._slot = np.zeros(n, dtype=np.intp)

    def _once(self, idx) -> bool:
        """True when no port index repeats in ``idx`` (O(len(idx))).

        Each request writes its position into its port's slot; a port
        used twice keeps only one of the positions, so some request
        reads back a position other than its own.
        """
        pos = np.arange(idx.size)
        slot = self._slot
        slot[idx] = pos
        return bool((slot[idx] == pos).all())

    def use(self, idx, req, dur, allow_ties: bool = False):
        """Service one batch; returns ``(grant, done)`` in input order.

        ``idx`` are port indices (duplicates allowed — chained in request
        order), ``req`` request times, ``dur`` busy durations charged
        from the grant.

        ``allow_ties=True`` declares that the *caller* knows the
        coroutine engine's resolution of equal-time requests and has
        ordered the batch accordingly: equal ``(port, req)`` entries are
        chained in input order (``np.lexsort`` is stable), and a request
        equal to an already-serviced one loses to it.  Callers may only
        pass it where the scheduler's hop count provably orders the tie
        (see the himeno model's shared-DMA note); everywhere else ties
        are refused.
        """
        idx = np.atleast_1d(np.asarray(idx, dtype=np.intp))
        req = np.atleast_1d(np.asarray(req, dtype=np.float64))
        if idx.shape == req.shape and self._once(idx):
            return self._serve_once(idx, req, dur, allow_ties)
        dur = np.broadcast_to(np.asarray(dur, dtype=np.float64), req.shape)
        order = np.lexsort((req, idx))
        si, sr = idx[order], req[order]
        sd = dur[order]
        late = sr < self.last_req[si] if allow_ties \
            else sr <= self.last_req[si]
        if late.any():
            self._refuse_late()
        same = si[1:] == si[:-1]
        if not allow_ties and (same & (sr[1:] == sr[:-1])).any():
            raise EngineError(
                f"vectorized {self.what} service hit an equal-time "
                "arbitration tie within one batch; the coroutine engine "
                "resolves this by heap sequence — refusing to guess")
        grant = np.maximum(sr, self.free[si])
        done = grant + sd
        if same.any():
            # chain duplicates: grant_i = max(req_i, done_{i-1}); group
            # sizes are tiny, so fixed-point passes converge immediately
            while True:
                prop = np.maximum(grant[1:],
                                  np.where(same, done[:-1], grant[1:]))
                if np.array_equal(prop, grant[1:]):
                    break
                grant[1:] = prop
                done = grant + sd
        np.maximum.at(self.free, si, done)
        np.maximum.at(self.last_req, si, sr)
        out_g = np.empty_like(grant)
        out_d = np.empty_like(done)
        out_g[order] = grant
        out_d[order] = done
        return out_g, out_d

    def _serve_once(self, idx, req, dur, allow_ties: bool):
        """:meth:`use` for a batch that names each port at most once."""
        last = self.last_req[idx]
        late = req < last if allow_ties else req <= last
        if late.any():
            self._refuse_late()
        free = self.free[idx]
        grant = np.maximum(req, free)
        done = grant + np.asarray(dur, dtype=np.float64)
        self.free[idx] = np.maximum(free, done)
        self.last_req[idx] = np.maximum(last, req)
        return grant, done

    def _refuse_late(self):
        raise EngineError(
            f"vectorized {self.what} service out of FIFO order: a "
            "request is not strictly later than one already granted "
            "(same-time arbitration is a coroutine-engine tie)")


class VectorEngine:
    """Array-lane engine bound to one vectorized :class:`Environment`.

    Create via ``Environment(engine="vectorized").vector``; call
    :meth:`bind` with a system preset and node count before using the
    hardware primitives.  All primitives take and return float64 arrays
    indexed by rank/lane and leave the environment clock untouched until
    :meth:`commit`.
    """

    def __init__(self, env):
        self.env = env
        self.t: Optional[Timings] = None
        self.nodes = 0

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(self, preset, num_nodes: int) -> "VectorEngine":
        """Instantiate port state for ``num_nodes`` nodes of ``preset``."""
        if num_nodes < 1:
            raise EngineError("vectorized engine needs at least one node")
        t = Timings(preset)
        self.t = t
        self.nodes = num_nodes
        self.tx = FifoPorts(num_nodes, "nic-tx")
        self.rx = FifoPorts(num_nodes, "nic-rx")
        self.gpu = FifoPorts(num_nodes, "gpu-compute")
        d2h = FifoPorts(num_nodes, "pcie-dma")
        self.d2h = d2h
        # one shared DMA engine serializes both directions (C1060);
        # two engines give each direction its own port lane (C2070)
        self.h2d = d2h if t.copy_engines == 1 else FifoPorts(num_nodes,
                                                             "pcie-dma")
        return self

    def _need_bind(self) -> Timings:
        if self.t is None:
            raise EngineError(
                "VectorEngine.bind(preset, num_nodes) must run before "
                "hardware primitives are used")
        return self.t

    # ------------------------------------------------------------------
    # wire (replay of repro.hardware.network.FabricChain._wire)
    # ------------------------------------------------------------------
    def wire(self, src, dst, req, nbytes, rate=None):
        """Arrival time of one message batch (≤1 tx/rx use per node).

        ``nbytes`` and ``rate`` (the effective rate cap per message, NaN
        or None = none) are scalars or one value per message.  Loopback
        messages bypass the ports, exactly as the fabric does.
        """
        t = self._need_bind()
        src = np.atleast_1d(np.asarray(src, dtype=np.intp))
        dst = np.atleast_1d(np.asarray(dst, dtype=np.intp))
        req = np.atleast_1d(np.asarray(req, dtype=np.float64))
        nb = _operand(nbytes, req.shape)
        rate = None if rate is None else _operand(rate, req.shape)
        arr = np.empty_like(req)
        loop = src == dst
        cross = ...
        if loop.any():
            arr[loop] = req[loop] + t.fabric.loopback_time(_pick(nb, loop))
            cross = ~loop
            src, dst, req = src[cross], dst[cross], req[cross]
            nb = _pick(nb, cross)
            rate = None if rate is None else _pick(rate, cross)
        if not (self.tx._once(src) and self.rx._once(dst)):
            raise EngineError(_NIC_PORT_TWICE)
        tx_grant, _ = self.tx._serve_once(src, req, 0.0, False)
        rx_grant, _ = self.rx._serve_once(dst, tx_grant, 0.0, False)
        bw = t.nic_bw if rate is None else np.where(
            np.isnan(rate) | (rate >= t.nic_bw), t.nic_bw, rate)
        a = rx_grant + t.fabric.wire_time(nb, bw)
        # both ports stay held until the arrival releases them
        self.tx.free[src] = np.maximum(self.tx.free[src], a)
        self.rx.free[dst] = np.maximum(self.rx.free[dst], a)
        arr[cross] = a
        return arr

    # ------------------------------------------------------------------
    # point-to-point (replay of repro.mpi.comm eager / rendezvous)
    # ------------------------------------------------------------------
    def transfer(self, src, dst, ts1, tr1, nbytes,
                 send_rate=None, recv_rate=None):
        """One matched isend/irecv batch; returns ``(send_c, recv_c)``.

        ``ts1`` is the sender's post-overhead delivery time, ``tr1`` the
        receiver's post time; both completions replay the MPI layer's
        per-message chains (``repro.mpi.comm._SendChain`` /
        ``_RecvChain``) bit-for-bit.
        """
        t = self._need_bind()
        ts1 = np.atleast_1d(np.asarray(ts1, dtype=np.float64))
        tr1 = np.atleast_1d(np.asarray(tr1, dtype=np.float64))
        shape = ts1.shape
        src = _lanes(np.atleast_1d(np.asarray(src, np.intp)), shape)
        dst = _lanes(np.atleast_1d(np.asarray(dst, np.intp)), shape)
        nb = _operand(nbytes, shape)
        srate = None if send_rate is None else _operand(send_rate, shape)
        rrate = None if recv_rate is None else _operand(recv_rate, shape)
        eager = nb <= t.eager_threshold
        if eager.all():         # one protocol for the whole batch
            m_eager, m_rdv = ..., None
        elif eager.any():
            m_eager, m_rdv = eager, ~eager
        else:
            m_eager, m_rdv = None, ...
        send_c = np.empty(shape)
        recv_c = np.empty(shape)
        if m_eager is not None:
            m = m_eager
            nbm = _pick(nb, m)
            t2 = ts1[m] + t.cluster.eager_stage_time(nbm)
            a = self.wire(src[m], dst[m], t2, nbm,
                          None if srate is None else _pick(srate, m))
            unexpected = ts1[m] < tr1[m]
            buffered = unexpected & (a < tr1[m])
            send_c[m] = a
            recv_c[m] = np.where(buffered, tr1[m] + t.host.memcpy_time(nbm),
                                 a)
        if m_rdv is not None:
            m = m_rdv
            tm = np.maximum(ts1[m], tr1[m])
            tc = tm + t.fabric.control_time()
            if rrate is None:
                rate = None if srate is None else _pick(srate, m)
            elif srate is None:
                rate = _pick(rrate, m)
            else:
                sr, rr = _pick(srate, m), _pick(rrate, m)
                rate = np.where(np.isnan(rr), sr,
                                np.where(np.isnan(sr), rr,
                                         np.minimum(sr, rr)))
            a = self.wire(src[m], dst[m], tc, _pick(nb, m), rate)
            send_c[m] = a
            recv_c[m] = a
        return send_c, recv_c

    # ------------------------------------------------------------------
    # clMPI transfer engines (replay of repro.clmpi.transfers.*)
    # ------------------------------------------------------------------
    def clmpi_pair(self, src, dst, start_s, start_r, nbytes: int,
                   mode: str, block: Optional[int] = None,
                   base: str = "pinned", defer_recv_dma: bool = False):
        """One batch of matched clMPI transfers (device↔device).

        ``start_s``/``start_r`` are the times the send/recv *commands*
        begin executing on their queues.  Returns a dict with
        ``send_done``/``recv_done`` (command completion times) and
        ``recv_c`` (wire-side receive completion, before the drain DMA).

        ``defer_recv_dma=True`` (pinned mode only) skips the receiver's
        h2d drain so the caller can service it in a combined batch with
        other same-engine DMA requests (the single-copy-engine C1060
        case); ``recv_done`` is None then.
        """
        t = self._need_bind()
        start_s = np.atleast_1d(np.asarray(start_s, dtype=np.float64))
        start_r = np.atleast_1d(np.asarray(start_r, dtype=np.float64))
        src = np.atleast_1d(np.asarray(src, dtype=np.intp))
        dst = np.atleast_1d(np.asarray(dst, dtype=np.intp))
        if mode == "pinned":
            dur = t.pcie.dma_time(nbytes)
            _, d2h_done = self.d2h.use(src, start_s, dur)
            ts1 = d2h_done + t.co
            tr1 = start_r + t.co
            send_c, recv_c = self.transfer(src, dst, ts1, tr1, nbytes)
            if defer_recv_dma:
                recv_done = None
            else:
                _, recv_done = self.h2d.use(dst, recv_c, dur)
            return {"send_done": send_c, "recv_done": recv_done,
                    "recv_c": recv_c}
        if mode == "mapped":
            ts1 = ((start_s + t.map_overhead) + t.mapped_latency) + t.co
            tr1 = ((start_r + t.map_overhead) + t.mapped_latency) + t.co
            send_c, recv_c = self.transfer(src, dst, ts1, tr1, nbytes,
                                           send_rate=t.mapped_bw,
                                           recv_rate=t.mapped_bw)
            return {"send_done": send_c + t.map_overhead,
                    "recv_done": recv_c + t.map_overhead,
                    "recv_c": recv_c}
        if mode == "pipelined":
            if defer_recv_dma:
                raise EngineError(
                    "defer_recv_dma applies to pinned transfers only")
            return self._clmpi_pipelined(src, dst, start_s, start_r,
                                         nbytes, block, base)
        raise EngineError(f"unknown clMPI transfer mode {mode!r}")

    def _clmpi_pipelined(self, src, dst, start_s, start_r, nbytes: int,
                         block: Optional[int], base: str):
        """Replay of the pipelined engine (per-block DMA ∥ wire).

        Lane ``i`` is one transfer ``src[i] → dst[i]`` and keeps its
        ports for the whole call, so the pairing is checked once and the
        ports' ``free``/``last_req`` are gathered once into lane-local
        arrays; every block then runs the staging chain, the wire
        service and the h2d drain on those arrays, and one scatter
        writes them back.  Each float operation is the one
        :meth:`FifoPorts.use`, :meth:`transfer` and :meth:`wire` apply
        to the same block, in the same order, with the same FIFO
        refusals.  Their ``max`` updates of the port state reduce to
        plain assignments here: a request that passed its FIFO check is
        later than ``last_req``, and a completion (a DMA done time, a
        wire arrival holding both NIC ports) is never earlier than the
        grant it follows, which is never earlier than ``free``.
        """
        t = self._need_bind()
        if block is None or block <= 0:
            raise EngineError("pipelined transfer needs a block size")
        mapped_base = base == "mapped"
        shape = start_s.shape
        src, dst = _lanes(src, shape), _lanes(dst, shape)
        tx, rx, d2h, h2d = self.tx, self.rx, self.d2h, self.h2d
        if not (tx._once(src) and rx._once(dst)):
            raise EngineError(_NIC_PORT_TWICE)
        if (src == dst).any():
            raise EngineError(
                "vectorized pipelined transfer has a loopback lane; its "
                "blocks are replayed on the NIC ports only")
        if not mapped_base and h2d is d2h:
            # a node that both stages and drains interleaves the two
            # directions block by block on its one DMA engine
            slot = d2h._slot
            lane = np.arange(src.size)
            slot[src] = lane
            slot[dst] = -1
            if not (slot[src] == lane).all():
                raise EngineError(
                    "vectorized pipelined transfer on a shared DMA engine "
                    "has a node that both sends and receives; its d2h "
                    "and h2d blocks interleave — refusing to guess")
        # the wire's rate cap: the mapped rate, where it is the slower
        bw = min(t.mapped_bw, t.nic_bw) if mapped_base else t.nic_bw
        rdv = t.fabric.control_time()
        # each rule once per distinct block size (a full block, a tail):
        # (eager?, DMA copy, eager staging, wire hold, unexpected copy)
        rules = {}
        blocks = []
        for lo in range(0, nbytes, block):
            nb = min(block, nbytes - lo)
            if nb not in rules:
                rules[nb] = (nb <= t.eager_threshold, t.pcie.dma_time(nb),
                             t.cluster.eager_stage_time(nb),
                             t.fabric.wire_time(nb, bw),
                             t.host.memcpy_time(nb))
            blocks.append(rules[nb])
        T = start_s + t.map_overhead if mapped_base else start_s
        R = start_r + t.map_overhead if mapped_base else start_r
        # receiver pre-posts every block's irecv: one api_call each
        tr1 = []
        pos = R
        for _ in blocks:
            pos = pos + t.co
            tr1.append(pos)
        # sender: staging chain (d2h per block, or instant when mapped)
        st = T
        if mapped_base:
            staged = [T] * len(blocks)
        else:
            staged = []
            d2h_free, d2h_last = d2h.free[src], d2h.last_req[src]
            for _, dma, _, _, _ in blocks:
                if (st <= d2h_last).any():
                    d2h._refuse_late()
                d2h_last = st
                st = np.maximum(st, d2h_free) + dma
                d2h_free = st
                staged.append(st)
            h2d_free, h2d_last = h2d.free[dst], h2d.last_req[dst]
        # wire coroutine: strictly sequential blocking sends; the
        # receiver drains blocks in order, overlapping the next block
        tx_free, tx_last = tx.free[src], tx.last_req[src]
        rx_free, rx_last = rx.free[dst], rx.last_req[dst]
        cur = T
        drain = pos  # receiver host position after the pre-posting loop
        for (eager, dma, stage, hold, copy), staged_i, tr1_i in zip(
                blocks, staged, tr1):
            ts1 = np.maximum(cur, staged_i) + t.co
            if eager:
                req = ts1 + stage
            else:
                req = np.maximum(ts1, tr1_i) + rdv
            if (req <= tx_last).any():
                tx._refuse_late()
            txg = np.maximum(req, tx_free)
            tx_last = req
            if (txg <= rx_last).any():
                rx._refuse_late()
            a = np.maximum(txg, rx_free) + hold
            rx_last = txg
            tx_free = rx_free = a   # both held until the arrival
            cur = a
            if eager:
                buffered = (ts1 < tr1_i) & (a < tr1_i)
                a = np.where(buffered, tr1_i + copy, a)
            drain = np.maximum(drain, a)
            if not mapped_base:
                if (drain <= h2d_last).any():
                    h2d._refuse_late()
                h2d_last = drain
                drain = np.maximum(drain, h2d_free) + dma
                h2d_free = drain
        tx.free[src], tx.last_req[src] = tx_free, tx_last
        rx.free[dst], rx.last_req[dst] = rx_free, rx_last
        if not mapped_base:
            d2h.free[src], d2h.last_req[src] = d2h_free, d2h_last
            h2d.free[dst], h2d.last_req[dst] = h2d_free, h2d_last
        send_done = np.maximum(st, cur)
        recv_done = drain
        if mapped_base:
            send_done = send_done + t.map_overhead
            recv_done = recv_done + t.map_overhead
        return {"send_done": send_done, "recv_done": recv_done,
                "recv_c": drain}

    # ------------------------------------------------------------------
    # collectives (replay of repro.mpi.collectives over 8..small payloads)
    # ------------------------------------------------------------------
    def barrier(self, t):
        """Dissemination barrier; ``t`` per-rank entry → exit times.

        Rank ``r`` runs on node ``r``, one rank per bound node.  In the
        round of distance ``k`` rank ``r`` sendrecvs one eager byte to
        ``r + k`` (mod P), so the round is a rotation of the whole port
        arrays: the tx side is served in rank order, the rx side sees the
        tx grants rotated by ``k`` (node ``d`` hears from ``d - k``), and
        the arrivals rotate back to complete the sends.  Each float
        operation is the one :meth:`transfer` and :meth:`wire` apply to
        the same message, in the same order; a rotation with ``k < P``
        uses every port once and none as loopback, so their batch checks
        have nothing to find.
        """
        tt = self._need_bind()
        t = np.array(t, dtype=np.float64, copy=True)
        P = t.size
        if P != self.nodes:
            raise EngineError(
                f"barrier over {P} lanes on {self.nodes} bound nodes; the "
                "rotation rounds need one rank per node")
        if P == 1:
            return t
        nb = 1.0
        if nb > tt.eager_threshold:
            raise EngineError("barrier replays the eager exchange only")
        stage = tt.cluster.eager_stage_time(nb)   # eager host staging copy
        copy = tt.host.memcpy_time(nb)            # unexpected-message copy
        hold = tt.fabric.wire_time(nb, tt.nic_bw)
        tx, rx = self.tx, self.rx
        k = 1
        while k < P:
            ts1 = t + tt.co             # sendrecv: isend first
            tr1 = ts1 + tt.co           # then irecv, one api_call later
            t2 = ts1 + stage
            if (t2 <= tx.last_req).any():
                tx._refuse_late()
            txg = np.maximum(t2, tx.free)
            np.maximum(tx.last_req, t2, out=tx.last_req)
            # node d serves rank d - k's message: rotated by slice copies
            req = np.concatenate((txg[P - k:], txg[:P - k]))
            if (req <= rx.last_req).any():
                rx._refuse_late()
            a = np.maximum(req, rx.free) + hold
            np.maximum(rx.last_req, req, out=rx.last_req)
            # both ports stay held until the arrival releases them
            np.maximum(rx.free, a, out=rx.free)
            send_c = np.concatenate((a[k:], a[:k]))  # arrival at r + k
            np.maximum(tx.free, send_c, out=tx.free)
            sent = np.concatenate((ts1[P - k:], ts1[:P - k]))  # d - k's
            buffered = (sent < tr1) & (a < tr1)
            recv_c = np.where(buffered, tr1 + copy, a)
            # _blocking_wait drains recv then send; the resume time is
            # the max of both completions, plus one sync wake-up
            t = np.maximum(recv_c, send_c) + tt.so
            k *= 2
        return t

    def eager_wire_single(self, src: int, dst: int, ts1: float,
                          nbytes: float = 8.0):
        """Service one eager message's wire path immediately.

        For out-of-phase traffic that must interleave with a *later*
        batch on the same receive port (a rank that skipped a phase and
        raced ahead — see the himeno model).  Returns ``(ts1, txg,
        arr)`` suitable for :meth:`reduce_small`'s ``pre`` argument.
        """
        tt = self._need_bind()
        t2 = ts1 + tt.cluster.eager_stage_time(nbytes)
        txg = max(t2, float(self.tx.free[src]))
        if t2 <= self.tx.last_req[src] or txg <= self.rx.last_req[dst]:
            raise EngineError(
                "vectorized eager wire service out of FIFO order: the "
                "raced-ahead message does not postdate earlier traffic")
        rxg = max(txg, float(self.rx.free[dst]))
        arr = rxg + tt.fabric.wire_time(nbytes, tt.nic_bw)
        self.tx.free[src] = max(float(self.tx.free[src]), arr)
        self.rx.free[dst] = max(float(self.rx.free[dst]), arr)
        self.tx.last_req[src] = max(float(self.tx.last_req[src]), t2)
        self.rx.last_req[dst] = max(float(self.rx.last_req[dst]), txg)
        return ts1, txg, arr

    def reduce_small(self, t, nbytes=8.0, pre=None):
        """Binomial-tree reduce to rank 0 of a sub-ring payload.

        Payloads must stay below the eager threshold (the gosa pattern).
        Rank ``r`` runs on node ``r``.

        Round-batched port service would be wrong here: with
        heterogeneous entry times a round-2 child's eager message can
        hit the parent's NIC receive port *before* the round-1 child's
        message, and the coroutine fabric serves true request order.
        Each rank's send time only depends on its own subtree, so the
        tree is replayed one level at a time: at level ``mask`` every
        parent whose lowest set bit is ``mask`` has a complete subtree,
        and :meth:`_drain_level` serves all their incoming messages at
        once before they post their own isends.

        ``pre`` maps sender ranks whose isend *and* wire service already
        happened (via :meth:`eager_wire_single`, to interleave with
        earlier phases) to their ``(ts1, txg, arr)`` — those senders'
        ports are not touched again.  Returns per-rank exit times.
        """
        tt = self._need_bind()
        t = np.array(t, dtype=np.float64, copy=True)
        P = t.size
        if P == 1:
            return t
        if nbytes > tt.eager_threshold:
            raise EngineError("reduce_small replays the eager tree only")
        nb = float(nbytes)
        stage = tt.cluster.eager_stage_time(nb)   # eager host staging copy
        copy = tt.host.memcpy_time(nb)            # unexpected-message copy
        hold = tt.fabric.wire_time(nb, tt.nic_bw)
        ts1 = np.zeros(P)                      # per-sender isend time
        txg = np.zeros(P)                      # per-sender tx-port grant
        arr = np.zeros(P)                      # per-sender wire arrival
        live = np.ones(P, dtype=bool)          # senders not in ``pre``
        for r, (p_ts1, p_txg, p_arr) in (pre or {}).items():
            ts1[r], txg[r], arr[r] = p_ts1, p_txg, p_arr
            live[r] = False
        tx = self.tx
        mask = 1
        while mask < P:
            senders = np.arange(mask, P, 2 * mask)
            # a sender's own receive chain (its subtree) is complete
            # before it sends — drain it now, then post the isends
            self._drain_level(senders, mask, t, ts1, txg, arr, live, hold,
                              copy)
            s = senders[live[senders]]
            if s.size:
                ts1[s] = t[s] + tt.co
                t2 = ts1[s] + stage
                last = tx.last_req[s]
                if (t2 <= last).any():
                    raise EngineError(
                        "vectorized nic-tx service out of FIFO order "
                        "during reduce (cross-phase arbitration tie)")
                txg[s] = np.maximum(t2, tx.free[s])
                tx.last_req[s] = np.maximum(last, t2)
            mask <<= 1
        self._drain_level(np.zeros(1, dtype=np.intp), mask, t, ts1, txg,
                          arr, live, hold, copy)
        # senders: blocked wait on the send completion (= eager wire
        # arrival), plus one sync wake-up; they do nothing afterwards
        t[1:] = arr[1:] + tt.so
        return t

    def _drain_level(self, par, mask: int, t, ts1, txg, arr, live,
                     hold: float, copy: float) -> None:
        """Serve the incoming reduce messages of the parents ``par``.

        Parent ``p``'s children are ``p + 2**j`` for ``2**j < mask``
        (those below P), one column ``j`` of the child matrix each.  No
        two parents share a child or a port, so every step is one array
        operation over the level.  A receive port is FIFO in tx-grant
        order; equal-time requests (symmetric subtrees finishing
        together) are served in *descending* child-rank order —
        calibrated against the coroutine heap's sequence resolution and
        held to it by the cross-engine equivalence suite.  The parents'
        blocking receives then complete in mask order.  Children not
        ``live`` (in ``pre``) already went through the wire; their
        arrivals are used as-is.
        """
        tt, rx = self.t, self.rx
        J = mask.bit_length() - 1
        if J == 0:
            return
        P = t.size
        kids = par[:, None] + (1 << np.arange(J))
        has = kids < P
        kids[~has] = 0                         # any valid index; masked
        todo = has & live[kids]
        req = np.where(todo, txg[kids], np.inf)
        # each row in service order: tx grant, then descending child
        order = np.lexsort((-kids, req), axis=-1)
        req = np.take_along_axis(req, order, 1)
        served = np.take_along_axis(todo, order, 1)
        before = rx.last_req[par]                # pre-reduce traffic
        if (req <= before[:, None]).any():
            raise EngineError(
                "vectorized nic-rx service out of FIFO order during "
                "reduce: a request does not postdate earlier non-reduce "
                "traffic on the port — refusing to guess")
        free = rx.free[par]
        a = np.empty(req.shape)
        for j in range(J):
            a[:, j] = np.maximum(req[:, j], free) + hold
            free = np.where(served[:, j], a[:, j], free)
        c = np.take_along_axis(kids, order, 1)[served]
        a = a[served]
        arr[c] = a
        tx_free = self.tx.free[c]               # port held until arrival
        self.tx.free[c] = np.where(a > tx_free, a, tx_free)
        rx.free[par] = free
        rx.last_req[par] = np.maximum(
            before, np.where(served, req, _NEG_INF).max(axis=1))
        tp = t[par]
        for j in range(J):                     # blocking recvs, mask order
            c = kids[:, j]
            tr1 = tp + tt.co
            a = arr[c]
            buffered = (ts1[c] < tr1) & (a < tr1)
            recv_c = np.where(buffered, tr1 + copy, a)
            tp = np.where(has[:, j], recv_c + tt.so, tp)
        t[par] = tp

    def bcast_small(self, t, nbytes=8.0):
        """Binomial-tree broadcast from rank 0 (eager payloads only).

        Rank ``r`` runs on node ``r``.  Rank ``p`` sends at level ``m``
        iff its own receive happened at a higher level (or ``p`` is the
        root) and the child ``p + m`` exists: the senders are ``0, 2m,
        4m, …`` below ``P - m`` and the receivers the same stride
        shifted by ``m``.  So each level is one eager round on strided
        views of the port arrays, every port used once and none as
        loopback; each float operation is the one :meth:`transfer` and
        :meth:`wire` apply to the same message, in the same order.
        """
        tt = self._need_bind()
        t = np.array(t, dtype=np.float64, copy=True)
        P = t.size
        if P == 1:
            return t
        if P > self.nodes:
            raise EngineError(
                f"bcast over {P} lanes on {self.nodes} bound nodes; the "
                "tree needs one rank per node")
        if nbytes > tt.eager_threshold:
            raise EngineError("bcast_small replays the eager tree only")
        nb = float(nbytes)
        stage = tt.cluster.eager_stage_time(nb)   # eager host staging copy
        copy = tt.host.memcpy_time(nb)            # unexpected-message copy
        hold = tt.fabric.wire_time(nb, tt.nic_bw)
        tx, rx = self.tx, self.rx
        entry = t.copy()                 # each rank's recv posts at entry
        m = 1
        while m < P:
            m <<= 1
        m >>= 1
        while m > 0:
            s = slice(0, P - m, 2 * m)
            c = slice(m, P, 2 * m)
            ts1 = t[s] + tt.co
            tr1 = entry[c] + tt.co      # child's blocking recv
            t2 = ts1 + stage
            if (t2 <= tx.last_req[s]).any():
                tx._refuse_late()
            txg = np.maximum(t2, tx.free[s])
            tx.last_req[s] = t2
            if (txg <= rx.last_req[c]).any():
                rx._refuse_late()
            a = np.maximum(txg, rx.free[c]) + hold
            rx.last_req[c] = txg
            # both ports stay held until the arrival releases them
            tx.free[s] = a
            rx.free[c] = a
            buffered = (ts1 < tr1) & (a < tr1)
            t[s] = a + tt.so
            t[c] = np.where(buffered, tr1 + copy, a) + tt.so
            m >>= 1
        return t

    def allreduce_small(self, t, nbytes=8.0, pre=None):
        """reduce-to-root + broadcast (the small-payload allreduce).

        ``pre`` is forwarded to :meth:`reduce_small` (pre-serviced
        raced-ahead senders).
        """
        return self.bcast_small(self.reduce_small(t, nbytes, pre), nbytes)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def commit(self, *times) -> float:
        """Advance the environment clock to the max of ``times``."""
        peak = 0.0
        for t in times:
            arr = np.asarray(t, dtype=np.float64)
            if arr.size:
                peak = max(peak, float(arr.max()))
        self.env.advance_to(peak)
        return self.env.now

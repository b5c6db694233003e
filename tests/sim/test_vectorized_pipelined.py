"""The mesoscale pipelined clMPI transfer against a per-block replay.

:meth:`VectorEngine.clmpi_pair` in pipelined mode checks a batch's port
pairing once, gathers the lanes' port state once, runs every block on
those lane-local arrays and scatters once.  The reference below replays
the same transfer block by block through the generic port service — a
:meth:`FifoPorts.use` batch per DMA copy and a :meth:`transfer` batch per
wire message — and serves as the oracle: on random lane pairings, block
sizes with an eager-sized tail, pre-warmed ports and staggered start
times, both must return the same times, leave the same port state and
refuse with the same message, bit for bit.  The refusal pins at the end
cover what only the up-front checks refuse: a NIC port used twice, a
loopback lane and a node that both stages and drains on a shared DMA
engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.sim import EngineError, Environment
from repro.systems import get_system

TWICE = ("vectorized wire batch uses a NIC port twice; ports are held "
         "until arrival, so callers must split such batches into "
         "sequential rounds")
LOOPBACK = ("vectorized pipelined transfer has a loopback lane; its "
            "blocks are replayed on the NIC ports only")
SHARED_DMA = ("vectorized pipelined transfer on a shared DMA engine has a "
              "node that both sends and receives; its d2h and h2d blocks "
              "interleave — refusing to guess")


def _engine(system: str, nodes: int):
    preset = get_system(system, max_nodes=max(nodes, 4))
    return Environment(engine="vectorized").vector.bind(preset, nodes)


def _pipelined(v, src, dst, start_s, start_r, nbytes, block, base):
    return v.clmpi_pair(np.asarray(src), np.asarray(dst), start_s, start_r,
                        nbytes, "pipelined", block, base)


# -- the per-block reference replay -----------------------------------------

def _ref_pipelined(v, src, dst, start_s, start_r, nbytes, block, base):
    """The pipelined engine, one port-service batch per block."""
    t = v.t
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    ranges = [(lo, min(lo + block, nbytes))
              for lo in range(0, nbytes, block)]
    mapped_base = base == "mapped"
    rate = t.mapped_bw if mapped_base else None
    T = start_s + t.map_overhead if mapped_base else start_s.copy()
    R = start_r + t.map_overhead if mapped_base else start_r.copy()
    tr1 = []
    pos = R.copy()
    for _ in ranges:
        pos = pos + t.co
        tr1.append(pos.copy())
    staged = []
    st_ = T.copy()
    if mapped_base:
        staged = [T.copy() for _ in ranges]
    else:
        for lo, hi in ranges:
            dur = t.copy_latency + (hi - lo) / t.pinned_bw
            _, st_ = v.d2h.use(src, st_, dur)
            staged.append(st_)
    cur = T.copy()
    drain = pos
    for i, (lo, hi) in enumerate(ranges):
        ts1 = np.maximum(cur, staged[i]) + t.co
        send_c, recv_c = v.transfer(src, dst, ts1, tr1[i], hi - lo,
                                    send_rate=rate, recv_rate=rate)
        cur = send_c
        drain = np.maximum(drain, recv_c)
        if not mapped_base:
            dur = t.copy_latency + (hi - lo) / t.pinned_bw
            _, drain = v.h2d.use(dst, drain, dur)
    send_done = np.maximum(st_, cur)
    recv_done = drain
    if mapped_base:
        send_done = send_done + t.map_overhead
        recv_done = recv_done + t.map_overhead
    return {"send_done": send_done, "recv_done": recv_done,
            "recv_c": drain}


# -- property: lane-local blocks == per-block replay ------------------------

# start times on a 1 µs grid, some before the previous transfer's
# completion; earlier traffic reaching into the transfer's own first
# requests, or as late as its last blocks, so FIFO refusals are common
_STAGGER = st.integers(-8, 24).map(lambda k: k * 1e-6)
_WARM = st.integers(0, 24).map(lambda k: k * 4e-6)
_LATE = st.integers(0, 40).map(lambda k: k * 1e-4)


def _ports(v):
    return tuple(a.tobytes() for p in (v.tx, v.rx, v.d2h, v.h2d)
                 for a in (p.free, p.last_req))


def _outcome(run):
    """The returned times, or the refusal message."""
    try:
        return run()
    except EngineError as exc:
        return str(exc)


def _times(res):
    """A transfer's returned times as bytes (a refusal as is)."""
    if isinstance(res, str):
        return res
    return tuple(res[k].tobytes() for k in ("send_done", "recv_done",
                                             "recv_c"))


def _sizes(data, threshold):
    """A block size and a payload whose last block may be eager-sized."""
    block = data.draw(st.sampled_from([threshold // 2, threshold,
                                       threshold + 1, 4 * threshold,
                                       1 << 20]), label="block")
    full = data.draw(st.integers(0, 4), label="full_blocks")
    tail = data.draw(st.one_of(
        st.sampled_from([0, 1, threshold // 2, threshold, threshold + 1]),
        st.integers(1, 2 * threshold)), label="tail")
    return max(1, full * block + min(tail, block - 1)), block


@seed(2013)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pipelined_matches_per_block_replay(data):
    system = data.draw(st.sampled_from(["cichlid", "ricc"]), label="system")
    base = data.draw(st.sampled_from(["pinned", "mapped"]), label="base")
    N = data.draw(st.integers(2, 12), label="nodes")
    new, ref = _engine(system, N), _engine(system, N)
    shared = new.h2d is new.d2h
    # lanes: distinct tx ports and distinct rx ports, no loopback; a
    # node may send on one lane and receive on another unless the two
    # directions share one DMA engine
    n = data.draw(st.integers(1, N // 2), label="lanes")
    perm = data.draw(st.permutations(range(N)), label="perm")
    src = np.array(perm[:n], dtype=np.intp)
    spare = np.array(perm[2 * n:3 * n], dtype=np.intp)
    if n >= 2 and not (shared and base == "pinned") \
            and data.draw(st.booleans(), label="overlap"):
        dst = np.roll(src, 1)
    else:
        dst = np.array(perm[n:2 * n], dtype=np.intp)
    # pre-warm: one earlier wire batch, DMA copies on random ports and
    # receive drains on the lanes' own ports, up to a transfer's length
    # later (on one shared engine the two never touch a port twice)
    m = data.draw(st.integers(0, N), label="warm")
    w_src = data.draw(st.permutations(range(N)), label="warm_src")[:m]
    w_dst = data.draw(st.permutations(range(N)), label="warm_dst")[:m]
    w_req = data.draw(st.lists(_WARM, min_size=m, max_size=m),
                      label="warm_req")
    k = data.draw(st.integers(0, N), label="warm_d2h")
    d2h_idx = [p for p in data.draw(st.permutations(range(N)),
                                    label="d2h_ports")[:k]
               if not (shared and p in dst)]
    d2h_req = data.draw(st.lists(_WARM, min_size=len(d2h_idx),
                                 max_size=len(d2h_idx)), label="d2h_req")
    h2d_req = data.draw(st.one_of(
        st.just([]), st.lists(_LATE, min_size=n, max_size=n)),
        label="h2d_req")
    for v in (new, ref):
        v.wire(w_src, w_dst, w_req, 8.0)
        v.d2h.use(np.asarray(d2h_idx, dtype=np.intp), d2h_req, 3e-6)
        if h2d_req:
            v.h2d.use(dst, h2d_req, 3e-6)
    # most pre-warm traffic predates the first starts, so not every
    # example ends in a refusal
    t_s = np.full(n, 16e-6)
    t_r = np.full(n, 16e-6)
    for _ in range(data.draw(st.integers(1, 3), label="ops")):
        nbytes, block = _sizes(data, new.t.eager_threshold)
        start_s = t_s + np.array(data.draw(
            st.lists(_STAGGER, min_size=n, max_size=n), label="stagger_s"))
        start_r = t_r + np.array(data.draw(
            st.lists(_STAGGER, min_size=n, max_size=n), label="stagger_r"))
        args = (src, dst, start_s, start_r, nbytes, block, base)
        twin = data.draw(st.sampled_from(["none", "tx", "rx"]),
                         label="twin")
        if twin != "none" and spare.size == n:
            # this transfer's first block from (to) other nodes first:
            # its requests tie with this one's on the shared tx (rx)
            # ports
            pair = (src, spare) if twin == "tx" else (spare, dst)
            head = (start_s, start_r, min(nbytes, block), block, base)
            first = [_times(_outcome(lambda v=v: _pipelined(v, *pair,
                                                            *head)))
                     for v in (new, ref)]
            assert first[0] == first[1]
            if isinstance(first[0], str):
                return
        a = _outcome(lambda: _pipelined(new, *args))
        b = _outcome(lambda: _ref_pipelined(ref, *args))
        if isinstance(a, str) or isinstance(b, str):
            # a refusal leaves the ports mid-batch: the caller reruns
            # the point on the coroutine engine, so only the message
            # is part of the contract
            assert a == b
            return
        assert _times(a) == _times(b)
        assert _ports(new) == _ports(ref)
        t_s, t_r = a["send_done"], a["recv_done"]


# -- refusal pins -----------------------------------------------------------

@pytest.mark.parametrize("base", ["pinned", "mapped"])
@pytest.mark.parametrize("src, dst", [([0, 0], [1, 2]), ([0, 1], [2, 2])])
def test_a_repeated_nic_port_is_refused(base, src, dst):
    v = _engine("cichlid", 4)
    with pytest.raises(EngineError) as exc:
        _pipelined(v, src, dst, np.zeros(2), np.zeros(2), 1 << 20,
                   1 << 18, base)
    assert str(exc.value) == TWICE


def test_the_per_block_replay_refuses_a_repeated_nic_port_alike():
    """Without DMA staging, the per-block replay reaches the same
    refusal in its first wire batch."""
    v = _engine("cichlid", 4)
    with pytest.raises(EngineError) as exc:
        _ref_pipelined(v, [0, 1], [2, 2], np.zeros(2), np.zeros(2),
                       1 << 20, 1 << 18, "mapped")
    assert str(exc.value) == TWICE


@pytest.mark.parametrize("base", ["pinned", "mapped"])
def test_a_loopback_lane_is_refused(base):
    v = _engine("cichlid", 4)
    with pytest.raises(EngineError) as exc:
        _pipelined(v, [0, 1], [2, 1], np.zeros(2), np.zeros(2), 1 << 20,
                   1 << 18, base)
    assert str(exc.value) == LOOPBACK


def test_a_node_staging_and_draining_on_a_shared_dma_engine_is_refused():
    """RICC has one copy engine: node 1 would stage lane 1's blocks
    while it drains lane 0's, which interleaves per block."""
    v = _engine("ricc", 4)
    assert v.h2d is v.d2h
    with pytest.raises(EngineError) as exc:
        _pipelined(v, [0, 1], [1, 2], np.zeros(2), np.zeros(2), 1 << 20,
                   1 << 18, "pinned")
    assert str(exc.value) == SHARED_DMA


@pytest.mark.parametrize("system, base", [("cichlid", "pinned"),
                                          ("ricc", "mapped")])
def test_a_node_in_both_directions_is_served_without_a_shared_dma(system,
                                                                   base):
    """Two copy engines, or no DMA at all: the same lanes replay."""
    new, ref = _engine(system, 4), _engine(system, 4)
    args = ([0, 1], [1, 2], np.zeros(2), np.array([0.0, 1e-6]), 1 << 20,
            1 << 18, base)
    a = _pipelined(new, *args)
    assert _times(a) == _times(_ref_pipelined(ref, *args))
    assert _ports(new) == _ports(ref)

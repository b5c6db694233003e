"""The mesoscale engine's small collectives against a per-message replay.

:meth:`VectorEngine.barrier` serves each dissemination round as one
rotation of the whole port arrays, :meth:`VectorEngine.reduce_small`
drains one tree level at a time, and :meth:`VectorEngine.bcast_small`
serves each tree level on strided views of the port arrays.  The
reference functions below replay the same collectives message by
message — each barrier round and broadcast level as a
:meth:`VectorEngine.transfer` batch, each reduce parent drained on its
own in Python — and serve as the oracle: on random entry times,
pre-warmed ports and raced-ahead reduce senders, both must return the
same times, leave the same port state and refuse with the same message,
bit for bit.  Earlier traffic is drawn to tie with the collective's
own requests, so the FIFO refusals fire on equal times as well as on
earlier ones.  A second barrier property draws entry times and port
arrays that repeat every 1, 2 or 4 lanes, plus near misses one bit off
the period, for the rounds that run on the inputs' period.  The refusal
pins at the end hold for both replays, except the barrier's lane-count
and eager-threshold refusals, which only the rotation rounds make, and
the reduce's lane-count refusal.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.apps.collective_load import collective_load
from repro.sim import EngineError, Environment, vectorized
from repro.systems import get_system

LATE = ("vectorized {} service out of FIFO order: a request is not "
        "strictly later than one already granted (same-time arbitration "
        "is a coroutine-engine tie)")
REDUCE_TX = ("vectorized nic-tx service out of FIFO order during reduce "
             "(cross-phase arbitration tie)")
REDUCE_RX = ("vectorized nic-rx service out of FIFO order during reduce: "
             "a request does not postdate earlier non-reduce traffic on "
             "the port — refusing to guess")


def _engine(system: str, nodes: int, preset=None):
    preset = preset or get_system(system, max_nodes=max(nodes, 4))
    return Environment(engine="vectorized").vector.bind(preset, nodes)


# -- the per-message reference replay ---------------------------------------

def _ref_barrier(v, t):
    """Dissemination barrier, one :meth:`transfer` batch per round."""
    tt = v.t
    t = np.array(t, dtype=np.float64, copy=True)
    P = t.size
    if P == 1:
        return t
    ranks = np.arange(P)
    k = 1
    while k < P:
        dest = (ranks + k) % P
        src = (ranks - k) % P
        ts1 = t + tt.co
        tr1 = ts1 + tt.co
        send_c, recv_c = v.transfer(ranks, dest, ts1, tr1[dest], 1.0)
        t = np.maximum(recv_c[src], send_c) + tt.so
        k *= 2
    return t


def _ref_reduce(v, t, nbytes=8.0, pre=None):
    """Binomial reduce to rank 0, draining one parent at a time."""
    tt = v.t
    t = np.array(t, dtype=np.float64, copy=True)
    P = t.size
    if P == 1:
        return t
    if nbytes > tt.eager_threshold:
        raise EngineError("reduce_small replays the eager tree only")
    ranks = np.arange(P)
    pre = pre or {}
    nb = float(nbytes)
    nic = tt.fabric.nic
    stage = nic.per_message_overhead + nb / tt.host.memcpy_bandwidth
    hold = (nic.latency + nb / tt.nic_bw) + tt.fabric.switch_latency
    ts1, txg, arr = np.zeros(P), np.zeros(P), np.zeros(P)
    for r, (p_ts1, p_txg, p_arr) in pre.items():
        ts1[r], txg[r], arr[r] = p_ts1, p_txg, p_arr
    mask = 1
    while mask < P:
        senders = np.nonzero(((ranks & (mask - 1)) == 0)
                             & ((ranks & mask) != 0))[0]
        for s in senders:
            _ref_drain(v, int(s), mask, t, ts1, txg, arr, nb, hold, pre)
        live = np.array([s for s in senders if s not in pre],
                        dtype=np.intp)
        if live.size:
            ts1[live] = t[live] + tt.co
            t2 = ts1[live] + stage
            if (t2 <= v.tx.last_req[live]).any():
                raise EngineError(REDUCE_TX)
            txg[live] = np.maximum(t2, v.tx.free[live])
            np.maximum.at(v.tx.last_req, live, t2)
        mask <<= 1
    _ref_drain(v, 0, mask, t, ts1, txg, arr, nb, hold, pre)
    t[1:] = arr[1:] + tt.so
    return t


def _ref_bcast(v, t, nbytes=8.0):
    """Binomial broadcast from rank 0, one :meth:`transfer` batch per
    tree level."""
    tt = v.t
    t = np.array(t, dtype=np.float64, copy=True)
    P = t.size
    if P == 1:
        return t
    if nbytes > tt.eager_threshold:
        raise EngineError("bcast_small replays the eager tree only")
    ranks = np.arange(P)
    lsb = ranks & -ranks
    entry = t.copy()
    top = 1
    while top < P:
        top <<= 1
    m = top >> 1
    while m > 0:
        senders = ((ranks == 0) | (lsb > m)) & (ranks + m < P)
        if senders.any():
            s = ranks[senders]
            c = s + m
            ts1 = t[s] + tt.co
            tr1 = entry[c] + tt.co
            send_c, recv_c = v.transfer(s, c, ts1, tr1, nbytes)
            t[s] = send_c + tt.so
            t[c] = recv_c + tt.so
        m >>= 1
    return t


def _ref_drain(v, p, lsb_p, t, ts1, txg, arr, nb, hold, pre):
    """Parent ``p``'s receive port in (tx grant, descending child)
    order, then its blocking receives in mask order."""
    tt = v.t
    P = t.size
    kids = []
    m = 1
    while m < lsb_p and p + m < P:
        kids.append(p + m)
        m <<= 1
    if not kids:
        return
    todo = [c for c in kids if c not in pre]
    order = sorted(todo[::-1], key=lambda c: txg[c])
    free = float(v.rx.free[p])
    before = float(v.rx.last_req[p])
    last = before
    for c in order:
        req = float(txg[c])
        if req <= before:
            raise EngineError(REDUCE_RX)
        last = req
        a = max(req, free) + hold
        free = a
        arr[c] = a
        if a > v.tx.free[c]:
            v.tx.free[c] = a
    if order:
        v.rx.free[p] = free
        v.rx.last_req[p] = last
    for c in kids:
        tr1 = t[p] + tt.co
        a = arr[c]
        buffered = (ts1[c] < tr1) and (a < tr1)
        recv_c = tr1 + nb / tt.host.memcpy_bandwidth if buffered else a
        t[p] = recv_c + tt.so


# -- property: level and rotation rounds == per-message replay --------------

# a 1 µs grid: equal requests (ties) and requests no later than the
# pre-warmed ones (refusals) are both common
_GRID = st.integers(0, 24).map(lambda k: k * 1e-6)


def _ports(v):
    return (v.tx.free.tobytes(), v.tx.last_req.tobytes(),
            v.rx.free.tobytes(), v.rx.last_req.tobytes())


def _outcome(run):
    """The returned times, or the refusal message."""
    try:
        return run()
    except EngineError as exc:
        return str(exc)


def _raced_ahead(data, engines, t, nbytes):
    """``pre`` senders: ranks whose reduce message went over the wire
    early, through :meth:`eager_wire_single`, on every engine alike."""
    pre = {}
    for r in sorted(data.draw(st.sets(st.integers(1, t.size - 1),
                                      max_size=3), label="raced")):
        ts1 = t[r] + data.draw(_GRID, label="raced_ts1")
        parent = r - (r & -r)
        got = [_outcome(lambda v=v: v.eager_wire_single(r, parent, ts1,
                                                        nbytes))
               for v in engines]
        assert got[0] == got[1]
        if not isinstance(got[0], str):
            pre[r] = got[0]
    return pre


def _tied(data, engines, t, first_hop, nbytes):
    """Earlier eager messages from a third rank into the port that rank
    ``r``'s first collective message will use, sent at ``r``'s isend
    time: their requests tie with the collective's ones."""
    P = t.size
    if P < 3:
        return
    for _ in range(data.draw(st.integers(0, 3), label="tied")):
        r = data.draw(st.integers(1, P - 1), label="tied_rank")
        dst = first_hop(r)
        src = data.draw(st.sampled_from(
            [s for s in range(P) if s not in (r, dst)]), label="tied_src")
        ts1 = t[r] + engines[0].t.co
        got = [_outcome(lambda v=v: v.eager_wire_single(src, dst, ts1,
                                                        nbytes))
               for v in engines]
        assert got[0] == got[1]


@seed(2013)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_collectives_match_per_message_replay(data):
    P = data.draw(st.one_of(st.integers(2, 80),
                            st.sampled_from([2, 4, 8, 16, 32, 64])),
                  label="ranks")
    system = data.draw(st.sampled_from(["cichlid", "ricc"]), label="system")
    new, ref = _engine(system, P), _engine(system, P)
    # pre-warm: one earlier wire batch, each port at most once
    m = data.draw(st.integers(0, P), label="warm")
    src = data.draw(st.permutations(range(P)), label="warm_src")[:m]
    dst = data.draw(st.permutations(range(P)), label="warm_dst")[:m]
    req = data.draw(st.lists(_GRID, min_size=m, max_size=m),
                    label="warm_req")
    for v in (new, ref):
        v.wire(src, dst, req, 8.0)
    # most pre-warm traffic predates the first entries, so not every
    # example ends in a refusal
    t = np.full(P, 16e-6)
    for _ in range(data.draw(st.integers(1, 3), label="ops")):
        t = t + np.array(data.draw(st.lists(_GRID, min_size=P, max_size=P),
                                   label="entry"))
        if data.draw(st.booleans(), label="barrier"):
            _tied(data, (new, ref), t, lambda r: (r + 1) % P, 1.0)
            a = _outcome(lambda: new.barrier(t))
            b = _outcome(lambda: _ref_barrier(ref, t))
        else:
            nbytes = data.draw(st.sampled_from([8.0, 1.0, 4096.0]),
                               label="nbytes")
            _tied(data, (new, ref), t, lambda r: r - (r & -r), nbytes)
            pre = _raced_ahead(data, (new, ref), t, nbytes)
            a = _outcome(lambda: new.reduce_small(t, nbytes, pre))
            b = _outcome(lambda: _ref_reduce(ref, t, nbytes, pre))
        if isinstance(a, str) or isinstance(b, str):
            # a refusal leaves the ports mid-batch: the caller reruns
            # the point on the coroutine engine, so only the message
            # is part of the contract
            assert a == b
            return
        assert a.tobytes() == b.tobytes()
        assert _ports(new) == _ports(ref)
        t = a


def _tied_root(data, engines, t, nbytes):
    """Earlier eager messages sent at the root's first broadcast isend
    time: from the root itself to a node outside its first hop (a tie
    on its transmit port), or from a third node into that hop's
    receive port."""
    P = t.size
    if P < 3:
        return
    hop = 1 << ((P - 1).bit_length() - 1)   # the root's first child
    ts1 = t[0] + engines[0].t.co
    for _ in range(data.draw(st.integers(0, 2), label="tied")):
        other = data.draw(st.sampled_from(
            [r for r in range(1, P) if r != hop]), label="tied_node")
        src, dst = data.draw(st.sampled_from([(0, other), (other, hop)]),
                             label="tied_pair")
        got = [_outcome(lambda v=v: v.eager_wire_single(src, dst, ts1,
                                                        nbytes))
               for v in engines]
        assert got[0] == got[1]


@seed(2013)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bcast_matches_per_level_replay(data):
    P = data.draw(st.one_of(st.integers(2, 80),
                            st.sampled_from([2, 4, 8, 16, 32, 64, 128])),
                  label="ranks")
    system = data.draw(st.sampled_from(["cichlid", "ricc"]), label="system")
    new, ref = _engine(system, P), _engine(system, P)
    # pre-warm: one earlier wire batch, each port at most once
    m = data.draw(st.integers(0, P), label="warm")
    src = data.draw(st.permutations(range(P)), label="warm_src")[:m]
    dst = data.draw(st.permutations(range(P)), label="warm_dst")[:m]
    req = data.draw(st.lists(_GRID, min_size=m, max_size=m),
                    label="warm_req")
    for v in (new, ref):
        v.wire(src, dst, req, 8.0)
    t = np.full(P, 16e-6)
    for _ in range(data.draw(st.integers(1, 3), label="ops")):
        t = t + np.array(data.draw(st.lists(_GRID, min_size=P, max_size=P),
                                   label="entry"))
        nbytes = data.draw(st.sampled_from([8.0, 1.0, 4096.0]),
                           label="nbytes")
        _tied_root(data, (new, ref), t, nbytes)
        a = _outcome(lambda: new.bcast_small(t, nbytes))
        b = _outcome(lambda: _ref_bcast(ref, t, nbytes))
        if isinstance(a, str) or isinstance(b, str):
            assert a == b
            return
        assert a.tobytes() == b.tobytes()
        assert _ports(new) == _ports(ref)
        t = a


# -- property: barrier rounds on the inputs' period == per-message replay ----

def _periodic(data, d, P, label, cold):
    """A P-lane row repeating every ``d`` lanes: ``cold`` (the value of
    an unused port) or drawn from a grid reaching past the entry
    times, so warm ports are often still busy when a round asks."""
    if data.draw(st.booleans(), label=f"{label}_cold"):
        return np.full(P, cold)
    block = data.draw(st.lists(st.integers(0, 48), min_size=d,
                               max_size=d), label=label)
    return np.tile(np.array(block) * 1e-6, P // d)


def _near_miss(data, rows, P):
    """Break the period in one lane of one row by a single bit: one ulp
    up or down, or ``0.0`` turned into ``-0.0`` (equal as floats, not
    as bits)."""
    kind = data.draw(st.sampled_from(["none", "ulp", "-0.0"]), label="miss")
    if kind == "none":
        return
    row = rows[data.draw(st.integers(0, len(rows) - 1), label="miss_row")]
    lane = data.draw(st.integers(0, P - 1), label="miss_lane")
    if kind == "ulp":
        row[lane] = np.nextafter(row[lane], data.draw(
            st.sampled_from([np.inf, -np.inf]), label="miss_dir"))
    else:
        row[:] = 0.0
        row[lane] = -0.0


def _rounds_on_all_lanes(v, t):
    """The same barrier with its period detector off (every round on
    all P lanes)."""
    with mock.patch.object(vectorized, "_period",
                           lambda rows: rows[0].size):
        return v.barrier(t)


@seed(2013)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_periodic_barrier_matches_per_message_replay(data):
    """Entry times and port arrays repeating with period 1, 2 or 4
    (ports cold or warmed in the same pattern), and near misses that
    break the period in a single bit: the rounds run on the period's
    lanes only when every bit repeats, and match the per-message replay
    either way.  A refusal raises the replay's message and leaves the
    port arrays as the rounds on all lanes do (the replay's ``wire``
    also books the tx grant before a rx refusal; the rotation rounds
    book it with the arrival)."""
    d = data.draw(st.sampled_from([1, 2, 4]), label="period")
    P = d * data.draw(st.integers(2 if d == 1 else 1, 24), label="blocks")
    system = data.draw(st.sampled_from(["cichlid", "ricc"]), label="system")
    engines = [_engine(system, P) for _ in range(3)]
    t = 16e-6 + _periodic(data, d, P, "entry", 0.0)
    ports = [_periodic(data, d, P, name, cold)
             for name, cold in (("tx_free", 0.0), ("tx_last", -np.inf),
                                ("rx_free", 0.0), ("rx_last", -np.inf))]
    _near_miss(data, [t] + ports, P)
    for v in engines:
        v.tx.free[:], v.tx.last_req[:], v.rx.free[:], v.rx.last_req[:] = \
            ports
    new, ref, flat = engines
    for _ in range(data.draw(st.integers(1, 2), label="ops")):
        a = _outcome(lambda: new.barrier(t))
        b = _outcome(lambda: _ref_barrier(ref, t))
        if isinstance(a, str) or isinstance(b, str):
            assert a == b
            assert _outcome(lambda: _rounds_on_all_lanes(flat, t)) == a
            assert _ports(new) == _ports(flat)
            return
        assert a.tobytes() == b.tobytes()
        assert _ports(new) == _ports(ref)
        assert _rounds_on_all_lanes(flat, t).tobytes() == a.tobytes()
        t = a


# -- refusal pins (the same messages from both replays) ---------------------

def test_reduce_over_the_eager_threshold_is_refused():
    for reduce in (lambda v, t, nb: v.reduce_small(t, nb),
                   _ref_reduce):
        v = _engine("ricc", 4)
        with pytest.raises(EngineError) as exc:
            reduce(v, np.zeros(4), v.t.eager_threshold + 1.0)
        assert str(exc.value) == "reduce_small replays the eager tree only"


def test_bcast_over_the_eager_threshold_is_refused():
    for bcast in (lambda v, t, nb: v.bcast_small(t, nb), _ref_bcast):
        v = _engine("ricc", 4)
        with pytest.raises(EngineError) as exc:
            bcast(v, np.zeros(4), v.t.eager_threshold + 1.0)
        assert str(exc.value) == "bcast_small replays the eager tree only"


def test_reduce_tx_cross_phase_tie_is_refused():
    """Rank 1's reduce isend requests its tx port at the same instant
    as an earlier message of its own to a node outside the reduce."""
    for reduce in (lambda v, t: v.reduce_small(t), _ref_reduce):
        v = _engine("ricc", 4)
        v.eager_wire_single(1, 3, v.t.co)
        with pytest.raises(EngineError) as exc:
            reduce(v, np.zeros(2))
        assert str(exc.value) == REDUCE_TX


def test_reduce_rx_request_out_of_fifo_order_is_refused():
    """Rank 1's reduce message reaches rank 0's receive port at the
    same instant as an earlier message from a node outside the
    reduce."""
    for reduce in (lambda v, t: v.reduce_small(t), _ref_reduce):
        v = _engine("ricc", 4)
        v.eager_wire_single(3, 0, v.t.co)
        with pytest.raises(EngineError) as exc:
            reduce(v, np.zeros(2))
        assert str(exc.value) == REDUCE_RX


def test_barrier_rx_tie_is_refused():
    """At 6 ranks the staggered collective load sends two barrier
    messages into one receive port at the same instant."""
    with pytest.raises(EngineError) as exc:
        collective_load(get_system("ricc", max_nodes=6), 6, rounds=3,
                        engine="vectorized")
    assert str(exc.value) == LATE.format("nic-rx")


def test_barrier_needs_one_rank_per_bound_node():
    v = _engine("ricc", 4)
    with pytest.raises(EngineError) as exc:
        v.barrier(np.zeros(3))
    assert str(exc.value) == ("barrier over 3 lanes on 4 bound nodes; the "
                              "rotation rounds need one rank per node")


def test_barrier_over_an_eager_threshold_below_one_byte_is_refused():
    preset = dataclasses.replace(get_system("ricc"), mpi_eager_threshold=0)
    v = _engine("ricc", 4, preset)
    with pytest.raises(EngineError) as exc:
        v.barrier(np.zeros(4))
    assert str(exc.value) == "barrier replays the eager exchange only"


@pytest.mark.parametrize("collective", ["reduce_small", "allreduce_small"])
def test_reduce_needs_one_rank_per_bound_node(collective):
    """More lanes than bound nodes is refused with :class:`EngineError`
    (which the apps' fallback and strict mode handle), not an
    ``IndexError`` from the port arrays."""
    v = _engine("ricc", 4)
    with pytest.raises(EngineError) as exc:
        getattr(v, collective)(np.zeros(6))
    assert str(exc.value) == ("reduce over 6 lanes on 4 bound nodes; the "
                              "tree needs one rank per node")

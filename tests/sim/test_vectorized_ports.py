"""Unit tests of the mesoscale engine's port service.

:class:`FifoPorts` serves a batch that names each port once elementwise,
and any other batch by sorting and chaining each port's requests; the
two paths must agree bit for bit.  :meth:`VectorEngine.wire` refuses a
batch that uses a NIC port twice, and the ports refuse requests the
coroutine engine would have ordered by heap sequence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.sim import EngineError, Environment
from repro.sim.vectorized import FifoPorts
from repro.systems import get_system

LATE = ("vectorized {} service out of FIFO order: a request is not "
        "strictly later than one already granted (same-time arbitration "
        "is a coroutine-engine tie)")
TIE = ("vectorized {} service hit an equal-time arbitration tie within "
       "one batch; the coroutine engine resolves this by heap sequence — "
       "refusing to guess")
TWICE = ("vectorized wire batch uses a NIC port twice; ports are held "
         "until arrival, so callers must split such batches into "
         "sequential rounds")


class _SortedPorts(FifoPorts):
    """FifoPorts held to the general (sorted, chained) service path."""

    def _once(self, idx) -> bool:
        return False


def _serve(ports, idx, req, dur, allow_ties):
    """One batch's outcome as bytes, or the refusal message."""
    try:
        grant, done = ports.use(np.asarray(idx, dtype=np.intp),
                                np.asarray(req, dtype=np.float64), dur,
                                allow_ties=allow_ties)
    except EngineError as exc:
        return str(exc)
    return grant.tobytes(), done.tobytes()


# coarse grid points make equal-time requests (refusals) common
_TIMES = st.one_of(st.integers(0, 16).map(lambda k: k * 0.5),
                   st.floats(0.0, 8.0, allow_nan=False))
_DURS = st.floats(0.0, 4.0, allow_nan=False)


@seed(2013)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_once_path_matches_general_path(data):
    """On random sequences of one-request-per-port batches, elementwise
    service gives the general path's grants, completions, refusals and
    port state, bit for bit."""
    n = data.draw(st.integers(1, 12), label="ports")
    fast, ref = FifoPorts(n, "port"), _SortedPorts(n, "port")
    for _ in range(data.draw(st.integers(1, 5), label="batches")):
        k = data.draw(st.integers(0, n), label="size")
        idx = data.draw(st.permutations(range(n)), label="idx")[:k]
        req = data.draw(st.lists(_TIMES, min_size=k, max_size=k),
                        label="req")
        dur = data.draw(st.one_of(
            _DURS, st.lists(_DURS, min_size=k, max_size=k)), label="dur")
        ties = data.draw(st.booleans(), label="allow_ties")
        assert (_serve(fast, idx, req, dur, ties)
                == _serve(ref, idx, req, dur, ties))
        assert fast.free.tobytes() == ref.free.tobytes()
        assert fast.last_req.tobytes() == ref.last_req.tobytes()


def test_once_detects_repeats():
    ports = FifoPorts(6)
    assert ports._once(np.array([3, 0, 5, 1], dtype=np.intp))
    assert ports._once(np.array([], dtype=np.intp))
    assert not ports._once(np.array([2, 4, 2], dtype=np.intp))
    assert not ports._once(np.array([1, 1], dtype=np.intp))
    # stale slots from earlier batches never mask a repeat
    assert ports._once(np.array([0, 1, 2, 3, 4, 5], dtype=np.intp))
    assert not ports._once(np.array([5, 0, 5], dtype=np.intp))


def test_once_batch_is_served_without_sorting(monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("one-request-per-port batch was sorted")

    monkeypatch.setattr(np, "lexsort", no_sort)
    ports = FifoPorts(4)
    grant, done = ports.use([2, 0, 1], [1.0, 3.0, 2.0], 0.5)
    assert grant.tolist() == [1.0, 3.0, 2.0]
    assert done.tolist() == [1.5, 3.5, 2.5]
    assert ports.free.tolist() == [3.5, 2.5, 1.5, 0.0]


def test_repeated_port_is_chained_in_request_order():
    ports = FifoPorts(2)
    grant, done = ports.use([1, 0, 1], [2.0, 0.0, 1.0], 1.5)
    assert grant.tolist() == [2.5, 0.0, 1.0]
    assert done.tolist() == [4.0, 1.5, 2.5]
    assert ports.free.tolist() == [1.5, 4.0]
    assert ports.last_req.tolist() == [0.0, 2.0]


@pytest.mark.parametrize("idx, req", [([0, 1], [5.0, 2.0]),   # once each
                                      ([1, 1], [2.0, 3.0])])  # repeated
def test_request_not_after_a_served_one_is_refused(idx, req):
    ports = FifoPorts(2, "gpu-compute")
    ports.use([1], [2.0], 1.0)
    with pytest.raises(EngineError) as exc:
        ports.use(idx, req, 1.0)
    assert str(exc.value) == LATE.format("gpu-compute")


def test_equal_time_tie_within_a_batch_is_refused():
    ports = FifoPorts(3, "pcie-dma")
    with pytest.raises(EngineError) as exc:
        ports.use([2, 0, 2], [1.0, 1.0, 1.0], 0.5)
    assert str(exc.value) == TIE.format("pcie-dma")
    # the caller may declare the tie ordered: chained in input order
    _, done = ports.use([2, 0, 2], [1.0, 1.0, 1.0], 0.5, allow_ties=True)
    assert done.tolist() == [1.5, 1.5, 2.0]


def _engine(nodes=4):
    return Environment(engine="vectorized").vector.bind(
        get_system("ricc"), nodes)


@pytest.mark.parametrize("src, dst", [([0, 0], [1, 2]), ([0, 1], [2, 2])])
def test_wire_refuses_a_port_used_twice(src, dst):
    v = _engine()
    with pytest.raises(EngineError) as exc:
        v.wire(src, dst, [0.0, 1.0], 1024.0)
    assert str(exc.value) == TWICE
    assert not v.tx.free.any() and not v.rx.free.any()


def test_wire_refuses_a_request_no_later_than_a_served_one():
    v = _engine()
    first = v.wire([0], [1], [1.0], 1024.0)
    for req in (1.0, 0.5):      # an equal-time tie, then an earlier one
        with pytest.raises(EngineError) as exc:
            v.wire([0], [2], [req], 1024.0)
        assert str(exc.value) == LATE.format("nic-tx")
    # a later request queues behind the held port
    later = v.wire([0], [2], [1.5], 1024.0)
    assert later[0] > first[0]


def test_wire_loopback_bypasses_the_ports():
    v = _engine()
    arr = v.wire([1, 0, 3], [1, 2, 3], [0.0, 0.0, 0.0], 4096.0)
    assert arr[0] == arr[2] == 4096.0 / v.t.loopback_bw
    assert v.tx.free.tolist() == [arr[1], 0.0, 0.0, 0.0]
    assert v.rx.free.tolist() == [0.0, 0.0, arr[1], 0.0]


def test_wire_scalar_operands_match_per_message_arrays():
    """A scalar size or rate cap gives the bits of the same value
    repeated per message (NaN = no cap, like None)."""
    src, dst = [0, 1, 2, 3], [1, 2, 3, 0]
    req = [0.25, 0.5, 0.75, 1.0]
    cap = _engine().t.nic_bw / 2
    for nbytes, rate in ((1 << 20, None), (1 << 20, cap), (64.0, np.nan)):
        a = _engine().wire(src, dst, req, nbytes, rate)
        b = _engine().wire(src, dst, req, np.full(4, float(nbytes)),
                           None if rate is None else np.full(4, rate))
        assert a.tobytes() == b.tobytes()

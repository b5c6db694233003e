"""How fast the host runs right now, measured by a fixed piece of work.

The benchmark is meant to run on shared machines whose speed drifts by
up to 2x within minutes (neighbours, frequency), and the drift is in
CPU time as much as in wall time, so neither clock alone steadies a
run.  Instead every timed pass is bracketed by :func:`sample`: a fixed,
deterministic mix of interpreter work (heap scheduling, dict and list
churn, generators, the kind of work the coroutine simulator does) and
small NumPy array operations (the kind the vectorized engine does).  It
depends on nothing in ``src/``, so a change to the program never changes
it.  A pass measured while the calibration took ``c`` seconds is scaled
by ``REFERENCE_S / c``: timings are reported in *reference-host
seconds*, the time the pass would have taken on a host on which the
calibration takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: calibration seconds on the reference host (the median on the 2-vCPU
#: machine the benchmark was developed on)
REFERENCE_S = 0.090


def _interpreter_work(n: int = 50_000) -> int:
    heap: list = []
    counts: dict = {}

    def ticks(k: int):
        yield from range(k)

    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i % 512] = counts.get(i % 512, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    total = 0
    for _ in range(n // 20):
        for v in ticks(10):
            total += v
    return total + len(counts)


def _array_work(n: int = 1_000) -> float:
    a = np.arange(2048, dtype=np.float64)
    b = np.ones(2048)
    for _ in range(n):
        c = np.maximum(a, b) + a * 1.5
        b = c[np.argsort(c[::-1], kind="stable")] * 0.5
        np.cumsum(b, out=b)
        b = np.minimum(b, 1e6)
    return float(b[0])


def sample() -> float:
    """Seconds the fixed calibration work takes now."""
    t0 = time.perf_counter()
    _interpreter_work()
    _array_work()
    return time.perf_counter() - t0

"""Collective-heavy load scenario: staggered compute + allreduce rounds.

The Himeno runs exercise the collectives once per iteration, drowned in
halo traffic; this scenario inverts the mix.  Every round each rank
"computes" for a rank-proportional stagger (a deterministic skew, the
worst case for a latency-bound reduction tree), then the whole job
allreduces one 8-byte residual and synchronizes on a barrier — the
shape of an elliptic solver's convergence loop, and the workload where
collective latency dominates end-to-end time.

The scenario exists primarily as an engine-equivalence probe: the
staggered entries drive the binomial reduce tree through its
heterogeneous-arrival paths (every child reaches its parent's NIC at a
distinct time), which is exactly the regime the mesoscale engine's
:meth:`~repro.sim.vectorized.VectorEngine.reduce_small` drain has to
replay request-by-request.  Both engines produce byte-identical rows
at any rank count (see ``tests/sim/test_engine_equivalence.py``).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.launcher import ClusterApp, RankContext
from repro.sim import Environment, try_vectorized
from repro.systems.presets import SystemPreset

__all__ = ["collective_load", "collective_load_point",
           "collective_load_specs"]

#: default per-rank stagger step (50 µs: comparable to one GbE hop, so
#: the skew neither vanishes nor swamps the tree latency)
DEFAULT_JITTER = 50e-6


def _collective_main(ctx: RankContext, rounds: int,
                     jitter: float) -> Generator[Any, Any, float]:
    """Rank coroutine: stagger, allreduce 8 bytes, barrier — per round."""
    acc = np.zeros(1, dtype=np.float64)
    out = np.zeros(1, dtype=np.float64)
    yield from ctx.comm.barrier()
    t0 = ctx.env.now
    for _ in range(rounds):
        if jitter > 0.0 and ctx.rank:
            yield ctx.env.timeout(ctx.rank * jitter)
        yield from ctx.comm.allreduce(acc, out)
        yield from ctx.comm.barrier()
    return ctx.env.now - t0


def _vectorized_per_rank(system: SystemPreset, ranks: int, rounds: int,
                         jitter: float) -> list[float]:
    """Mesoscale replay of :func:`_collective_main`, all ranks at once."""
    env = Environment(engine="vectorized")
    v = env.vector.bind(system, ranks)
    entry = v.barrier(np.zeros(ranks, dtype=np.float64))
    t0 = entry.copy()
    t = entry
    skew = np.arange(ranks, dtype=np.float64) * jitter
    for _ in range(rounds):
        if jitter > 0.0:
            t = t + skew
        t = v.allreduce_small(t, 8.0)
        t = v.barrier(t)
    v.commit(t)
    return [float(x) for x in t - t0]


def collective_load(system: SystemPreset, ranks: int, rounds: int = 8,
                    jitter: float = DEFAULT_JITTER,
                    engine: str = "coroutine") -> dict:
    """Run the scenario; returns an engine-independent row dict.

    The row carries per-rank virtual seconds (``per_rank``) and their
    max (``seconds``) — the full vector, so the equivalence gate diffs
    every lane, not just the critical path.
    """
    if ranks < 2:
        raise ConfigurationError("collective_load needs at least 2 ranks")
    if rounds < 1:
        raise ConfigurationError("rounds must be positive")
    per_rank = try_vectorized(
        engine, lambda: _vectorized_per_rank(system, ranks, rounds, jitter))
    if per_rank is None:
        app = ClusterApp(system, ranks, functional=False)
        per_rank = app.run(_collective_main, rounds, jitter)
    return {"system": system.name, "ranks": ranks, "rounds": rounds,
            "jitter": jitter, "seconds": max(per_rank),
            "per_rank": per_rank}


def collective_load_point(spec: dict) -> dict:
    """Sweep worker: dict-in/dict-out (worker-process and cache safe)."""
    from repro.systems import get_system

    ranks = spec["ranks"]
    system = get_system(spec["system"], min_nodes=ranks)
    return collective_load(system, ranks,
                           rounds=spec.get("rounds", 8),
                           jitter=spec.get("jitter", DEFAULT_JITTER),
                           engine=spec.get("engine", "coroutine"))


def collective_load_specs(system: str, rank_counts: list[int],
                          rounds: int = 8,
                          jitter: float = DEFAULT_JITTER,
                          engine: str = "coroutine") -> list[dict]:
    """Spec dicts for a rank-count sweep, in canonical order."""
    specs = [{"system": system, "ranks": r, "rounds": rounds,
              "jitter": jitter} for r in rank_counts]
    if engine != "coroutine":
        for spec in specs:
            spec["engine"] = engine
    return specs

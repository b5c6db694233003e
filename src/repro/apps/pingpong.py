"""Point-to-point sustained-bandwidth microbenchmark (§V.B / Fig 8).

Measures device-to-device transfers between two nodes through the clMPI
extension, per transfer engine and message size — regenerating the pinned
/ mapped / pipelined(N) comparison of Fig 8(a)/(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro import clmpi
from repro.errors import ConfigurationError, MpiError, MpiRankFailed
from repro.launcher import ClusterApp, RankContext
from repro.sim import EngineError, Environment, try_vectorized
from repro.systems.presets import SystemPreset

__all__ = ["BandwidthResult", "measure_bandwidth", "bandwidth_point",
           "bandwidth_specs"]

#: message sizes of the Fig 8 sweep (64 KiB .. 64 MiB)
DEFAULT_SIZES = [1 << s for s in range(16, 27)]


@dataclass(frozen=True)
class BandwidthResult:
    """Sustained bandwidth of one (engine, size) point."""

    system: str
    mode: str            # 'pinned' | 'mapped' | 'pipelined' | 'auto'
    block: Optional[int]  # pipeline block size, if forced
    nbytes: int
    repeats: int
    seconds: float
    #: injected-fault tally ({"total": N, "by_kind": {...}}), if a
    #: fault plan was active for this point
    fault_summary: Optional[dict] = None
    #: :class:`~repro.obs.RunReport` dict (``obs=True`` and fault-
    #: tolerant runs)
    report: Optional[dict] = None
    #: ULFM recovery outcome ({"survivors": [...], "failed_ranks": [...],
    #: "world": N}) when the point ran fault-tolerantly and recovered
    #: from a rank failure; None for ordinary points
    recovery: Optional[dict] = None
    #: simulated rank count (2 = the classic two-node pingpong; larger
    #: even counts run P/2 concurrent pairs — the mesoscale sweeps)
    ranks: int = 2

    @property
    def bandwidth(self) -> float:
        """Sustained unidirectional bandwidth in bytes/s."""
        return self.nbytes * self.repeats / self.seconds


def _enqueue_stream(ctx: RankContext, q, buf, nbytes: int,
                    repeats: int) -> Generator[Any, Any, list]:
    """Enqueue this rank's side of the pair stream: even rank 2i sends
    ``repeats`` buffers to rank 2i+1, the i-th with tag i (an even last
    rank has no partner).  Returns the enqueued commands' events."""
    events = []
    for i in range(repeats):
        if ctx.rank % 2 == 0 and ctx.rank + 1 < ctx.size:
            ev = yield from clmpi.enqueue_send_buffer(
                q, buf, False, 0, nbytes, dest=ctx.rank + 1, tag=i,
                comm=ctx.comm)
            events.append(ev)
        elif ctx.rank % 2 == 1:
            ev = yield from clmpi.enqueue_recv_buffer(
                q, buf, False, 0, nbytes, source=ctx.rank - 1, tag=i,
                comm=ctx.comm)
            events.append(ev)
    return events


def _pingpong_main(ctx: RankContext, nbytes: int,
                   repeats: int) -> Generator[Any, Any, float]:
    """Rank coroutine: every even rank streams ``repeats`` buffers to its
    odd neighbour (rank+1) — at 2 ranks this is the classic rank 0 → 1
    pingpong; at P ranks it is P/2 independent pairs saturating the
    fabric at once (the mesoscale sweep shape)."""
    q = ctx.queue(name=f"r{ctx.rank}.q")
    buf = ctx.ocl.create_buffer(nbytes, name=f"bw.r{ctx.rank}")
    yield from ctx.comm.barrier()
    t0 = ctx.env.now
    yield from _enqueue_stream(ctx, q, buf, nbytes, repeats)
    yield from q.finish()
    yield from ctx.comm.barrier()
    return ctx.env.now - t0


def _pingpong_ft_main(ctx: RankContext, nbytes: int,
                      repeats: int) -> Generator[Any, Any, dict]:
    """Crash-surviving rank coroutine (ULFM recovery, see repro.mpi.ft).

    Same traffic as :func:`_pingpong_main`, but a fail-stopped peer does
    not kill the run: the orphaned transfer surfaces as a negative CL
    event status (or an ``MpiError`` out of a collective), the survivor
    revokes the communicator, and every rank recovers through
    ``shrink()`` + ``agree()``.  Returns a per-rank outcome dict instead
    of a float — the harness folds it into the point's recovery record.
    """
    comm = ctx.comm
    q = ctx.queue(name=f"r{ctx.rank}.q")
    buf = ctx.ocl.create_buffer(nbytes, name=f"bw.r{ctx.rank}")
    t0 = ctx.env.now
    try:
        yield from comm.barrier()
        events = yield from _enqueue_stream(ctx, q, buf, nbytes, repeats)
        yield from q.finish()
        orphaned = next(
            (ev for ev in events if ev.execution_status < 0), None)
        if orphaned is not None:
            comm.revoke(reason=str(orphaned.error), injected=True)
        else:
            yield from comm.barrier()
    except MpiError as exc:
        comm.revoke(reason=str(exc),
                    injected=getattr(exc, "injected", False))
    if not comm.revoked:
        return {"survivor": True, "rank": ctx.rank, "world": comm.size,
                "failed_ranks": [], "seconds": ctx.env.now - t0}
    try:
        shrunk = yield from comm.shrink()
    except MpiRankFailed:
        # This rank's own node is in the agreed fault set: it cannot
        # rejoin (a real crashed process would simply be gone).
        return {"survivor": False, "rank": ctx.rank, "world": 0,
                "failed_ranks": [], "seconds": ctx.env.now - t0}
    failed = yield from comm.agree()
    yield from shrunk.barrier()
    return {"survivor": True, "rank": ctx.rank, "world": shrunk.size,
            "failed_ranks": list(failed), "seconds": ctx.env.now - t0}


def _vectorized_seconds(system: SystemPreset, nbytes: int,
                        mode: Optional[str], block: Optional[int],
                        repeats: int, ranks: int) -> float:
    """Mesoscale replay of :func:`_pingpong_main` (engine="vectorized").

    All P/2 pairs advance as float64 array lanes through the exact
    timing chain the rank coroutines execute: enqueue overheads, queue
    dispatch, the chosen clMPI transfer engine, ``finish`` and the
    closing dissemination barrier.  Byte-identical to the coroutine
    engine by construction (see :mod:`repro.sim.vectorized`).
    """
    import numpy as np

    from repro.clmpi.selector import TransferSelector

    if ranks < 2 or ranks % 2:
        raise EngineError(
            "the vectorized pingpong pairs rank 2i with 2i+1 and needs an "
            "even rank count >= 2 (use engine='coroutine' for odd sizes)")
    cmode, cblock, base = TransferSelector(
        system.policy, force_mode=mode, force_block=block).choose(nbytes)
    env = Environment(engine="vectorized")
    v = env.vector.bind(system, ranks)
    t = v.t
    senders = np.arange(0, ranks, 2)
    receivers = senders + 1
    entry = v.barrier(np.zeros(ranks, dtype=np.float64))
    t0 = entry
    # per-lane host clocks and in-order queue positions after the barrier
    hs = entry[senders].copy()
    hr = entry[receivers].copy()
    done_s = hs.copy()
    done_r = hr.copy()
    for _ in range(repeats):
        hs = hs + t.co          # enqueue_send_buffer api_call
        hr = hr + t.co          # enqueue_recv_buffer api_call
        start_s = np.maximum(done_s, hs)
        start_r = np.maximum(done_r, hr)
        res = v.clmpi_pair(senders, receivers, start_s, start_r, nbytes,
                           cmode, cblock, base)
        done_s = res["send_done"]
        done_r = res["recv_done"]
    # q.finish(): one api_call; blocked callers wake at the last
    # command's completion plus a sync wake-up
    exit_s = np.where(done_s > hs, done_s + t.so, hs + t.co)
    exit_r = np.where(done_r > hr, done_r + t.so, hr + t.co)
    entry2 = np.empty(ranks, dtype=np.float64)
    entry2[senders] = exit_s
    entry2[receivers] = exit_r
    final = v.barrier(entry2)
    v.commit(final)
    return float((final - t0).max())


def _wants_ft(faults) -> bool:
    """Auto-detect fault-tolerant routing: a plan with a fail-stop crash
    needs ULFM recovery to produce a result at all; everything else is
    handled by retransmit/degrade alone."""
    if faults is None:
        return False
    plan = getattr(faults, "plan", faults)  # unwrap a FaultInjector
    events = getattr(plan, "events", None)
    if events is None and isinstance(plan, dict):
        events = plan.get("events", ())
    return any(e.get("kind") == "node_crash" for e in events or ())


def measure_bandwidth(system: SystemPreset, nbytes: int,
                      mode: Optional[str] = None,
                      block: Optional[int] = None,
                      repeats: int = 4,
                      functional: bool = False,
                      faults=None, obs: bool = False,
                      ft: Optional[bool] = None,
                      ranks: int = 2,
                      engine: str = "coroutine") -> BandwidthResult:
    """One Fig 8 data point.

    ``mode=None`` lets the runtime's automatic selector choose (§V.B);
    otherwise the engine is forced on both endpoints, as the paper does
    for its per-implementation curves.  ``faults`` (a
    :class:`~repro.faults.FaultPlan` or plan dict) measures the point
    under fault injection — the paper's lossy-interconnect scenario.
    ``obs=True`` runs with tracer + metrics attached and bundles a
    :class:`~repro.obs.RunReport` dict into the result.

    ``ft`` selects the ULFM fault-tolerant rank coroutine (revoke/
    shrink/agree recovery).  The default (None) auto-enables it when
    the plan contains a ``node_crash`` — such a point used to die with
    an error record; now it completes with surviving ranks, a populated
    ``recovery`` field, and a :class:`~repro.obs.RunReport` carrying
    the ``ft.*`` recovery metrics.

    ``engine='vectorized'`` replays the point on the mesoscale engine,
    or raises :class:`~repro.sim.EngineError` naming the feature(s) it
    cannot model; ``engine='auto'`` runs those points on the coroutine
    engine instead, with the same result.
    """
    if nbytes <= 0 or repeats <= 0:
        raise ConfigurationError("nbytes and repeats must be positive")
    if ranks < 2:
        raise ConfigurationError("pingpong needs at least 2 ranks")
    if ft is None:
        ft = _wants_ft(faults)
    seconds = try_vectorized(
        engine,
        lambda: _vectorized_seconds(system, nbytes, mode, block, repeats,
                                    ranks),
        functional=functional,
        unsupported={"fault injection ('faults')": faults is not None,
                     "observability hooks ('obs': tracer + metrics)": obs,
                     "ULFM recovery ('ft')": ft})
    if seconds is not None:
        return BandwidthResult(system=system.name, mode=mode or "auto",
                               block=block, nbytes=nbytes, repeats=repeats,
                               seconds=seconds, ranks=ranks)
    app = ClusterApp(system, ranks, functional=functional,
                     force_mode=mode, force_block=block, faults=faults,
                     trace=obs, metrics=obs or ft)
    recovery = None
    if ft:
        outcomes = app.run(_pingpong_ft_main, nbytes, repeats)
        survivors = [o for o in outcomes if o and o.get("survivor")]
        seconds = max((o["seconds"] for o in survivors),
                      default=app.env.now)
        recovery = {
            "survivors": sorted(o["rank"] for o in survivors),
            "failed_ranks": sorted({r for o in survivors
                                    for r in o["failed_ranks"]}),
            "world": survivors[0]["world"] if survivors else 0,
        }
    else:
        seconds = max(app.run(_pingpong_main, nbytes, repeats))
    report = None
    if obs or ft:
        from repro.obs import build_report

        spec = {"system": system.name, "nbytes": nbytes,
                "mode": mode or "auto", "block": block,
                "repeats": repeats, "ft": bool(ft)}
        report = build_report("bandwidth", spec, app.env).to_dict()
    return BandwidthResult(system=system.name, mode=mode or "auto",
                           block=block, nbytes=nbytes, repeats=repeats,
                           seconds=seconds,
                           fault_summary=(app.faults.summary()
                                          if app.faults else None),
                           report=report, recovery=recovery, ranks=ranks)


def bandwidth_point(spec: dict) -> dict:
    """Sweep worker: one Fig 8 data point from a JSON-able spec dict.

    Module-level and dict-in/dict-out so it can cross a worker-process
    boundary (the system presets themselves hold lambdas and cannot be
    pickled — workers rebuild them by name) and a cache round-trip
    without changing shape.  See :mod:`repro.harness.parallel`.
    """
    from repro.systems import get_system

    ranks = spec.get("ranks", 2)
    # mesoscale points run the testbed past its physical size
    system = get_system(spec["system"], min_nodes=ranks)
    r = measure_bandwidth(system, spec["nbytes"],
                          spec["mode"], block=spec.get("block"),
                          repeats=spec.get("repeats", 4),
                          functional=spec.get("functional", False),
                          faults=spec.get("faults"),
                          obs=spec.get("obs", False),
                          ft=spec.get("ft"), ranks=ranks,
                          engine=spec.get("engine", "coroutine"))
    row = {"system": r.system, "mode": r.mode, "block": r.block,
           "nbytes": r.nbytes, "repeats": r.repeats, "seconds": r.seconds,
           "faults": r.fault_summary}
    if r.ranks != 2:
        # rows must be engine-independent (the byte-identity gate diffs
        # them), and 2-rank rows keep their pre-mesoscale shape
        row["ranks"] = r.ranks
    if r.report is not None:
        row["report"] = r.report
    if r.recovery is not None:
        row["recovery"] = r.recovery
    return row


def bandwidth_specs(system: str,
                    sizes: Optional[list[int]] = None,
                    pipeline_blocks: Optional[list[int]] = None,
                    repeats: int = 4,
                    faults: Optional[dict] = None,
                    obs: bool = False,
                    ranks: int = 2,
                    engine: str = "coroutine") -> list[dict]:
    """The Fig 8 grid as spec dicts, in canonical (reporting) order.

    ``faults`` (a JSON-able fault-plan dict) rides inside every spec, so
    the result cache addresses faulty and fault-free runs of the same
    point as distinct entries.  ``obs=True`` likewise rides inside every
    spec (distinct cache entries: obs runs carry a RunReport).
    """
    sizes = sizes or DEFAULT_SIZES
    pipeline_blocks = pipeline_blocks or [1 << 20, 1 << 22, 1 << 24]
    specs: list[dict] = []
    for nbytes in sizes:
        specs.append({"system": system, "nbytes": nbytes, "mode": "pinned",
                      "block": None, "repeats": repeats})
        specs.append({"system": system, "nbytes": nbytes, "mode": "mapped",
                      "block": None, "repeats": repeats})
        for blk in pipeline_blocks:
            if blk <= nbytes:
                specs.append({"system": system, "nbytes": nbytes,
                              "mode": "pipelined", "block": blk,
                              "repeats": repeats})
        specs.append({"system": system, "nbytes": nbytes, "mode": None,
                      "block": None, "repeats": repeats})
    if faults is not None:
        for spec in specs:
            spec["faults"] = faults
    if obs:
        for spec in specs:
            spec["obs"] = True
    # absent keys mean (ranks=2, engine='coroutine'): pre-mesoscale
    # specs hash to the same cache address they always did, while any
    # other engine/rank-count gets its own content address
    if ranks != 2:
        for spec in specs:
            spec["ranks"] = ranks
    if engine != "coroutine":
        for spec in specs:
            spec["engine"] = engine
    return specs


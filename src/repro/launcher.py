"""Full-stack launcher: one OpenCL context + clMPI runtime per MPI rank.

This is the top of the substrate stack: it builds a simulated cluster
from a system preset, gives every rank a :class:`RankContext` bundling
its MPI communicator, OpenCL device/context and clMPI runtime, and runs
rank ``main`` coroutines to completion.

Example
-------
>>> from repro import launch
>>> from repro.systems import cichlid
>>> import numpy as np
>>> def main(ctx):
...     yield from ctx.comm.barrier()
...     return ctx.comm.rank
>>> launch(cichlid(), 2, main)
[0, 1]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.clmpi.runtime import ClmpiRuntime
from repro.clmpi.selector import TransferSelector
from repro.errors import ReproError
from repro.mpi.comm import Communicator
from repro.mpi.world import MpiWorld
from repro.ocl.context import Context
from repro.ocl.device import Device
from repro.ocl.queue import CommandQueue
from repro.systems.presets import SystemPreset

__all__ = ["RankContext", "ClusterApp", "launch"]


@dataclass
class RankContext:
    """Everything one rank's ``main`` coroutine needs."""

    comm: Communicator
    device: Device
    ocl: Context
    runtime: ClmpiRuntime

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def env(self):
        return self.comm.env

    @property
    def node(self):
        return self.device.node

    def queue(self, in_order: bool = True, name: str = "") -> CommandQueue:
        """Create a command queue on this rank's device."""
        return self.ocl.create_queue(in_order=in_order, name=name)


class ClusterApp:
    """A configured simulated cluster ready to run rank coroutines.

    Parameters
    ----------
    system:
        A :class:`~repro.systems.SystemPreset`.
    num_nodes:
        Ranks/nodes to instantiate.
    functional:
        False switches the OpenCL contexts to timing-only mode (kernel
        bodies and payload copies skipped; the virtual clock is exact) —
        used to run paper-scale problems quickly.
    force_mode / force_block:
        Transfer-engine overrides passed to every rank's selector
        (Fig 8's per-engine sweeps).
    trace:
        Attach a tracer for Fig 4-style timelines.
    faults:
        A :class:`~repro.faults.FaultPlan` (or plan dict / prebuilt
        :class:`~repro.faults.FaultInjector`) to inject into the run.
    metrics:
        Attach a :class:`~repro.obs.MetricsRegistry`.
    """

    def __init__(self, system: SystemPreset, num_nodes: int,
                 functional: bool = True,
                 force_mode: Optional[str] = None,
                 force_block: Optional[int] = None,
                 trace: bool = False,
                 faults=None, metrics: bool = False):
        if not isinstance(system, SystemPreset):
            raise ReproError("ClusterApp needs a SystemPreset")
        self.system = system
        self.world = MpiWorld(system, num_nodes=num_nodes, trace=trace,
                              faults=faults, metrics=metrics)
        self.env = self.world.env
        self.faults = self.world.faults
        self.contexts: list[RankContext] = []
        for rank in range(self.world.size):
            comm = self.world.comm(rank)
            device = Device(self.world.cluster[rank])
            ocl = Context(device, functional=functional)
            selector = TransferSelector(system.policy,
                                        force_mode=force_mode,
                                        force_block=force_block)
            runtime = ClmpiRuntime(ocl, comm, selector=selector)
            self.contexts.append(RankContext(comm, device, ocl, runtime))

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def tracer(self):
        return self.world.tracer

    @property
    def metrics(self):
        return self.world.metrics

    def run(self, main: Callable, *args,
            until: Optional[float] = None, **kwargs) -> list[Any]:
        """Run ``main(rank_ctx, *args, **kwargs)`` on every rank.

        Returns the per-rank return values; the virtual makespan is
        ``self.env.now`` afterwards.
        """
        contexts = self.contexts
        procs = self.world.launch(
            lambda comm, *a, **kw: main(contexts[comm.rank], *a, **kw),
            *args, **kwargs)
        self.env.run(until=until)
        stuck = [p.name for p in procs if p.is_alive]
        if stuck and until is None:
            raise ReproError(
                f"deadlock: ranks never terminated: {stuck} (run under "
                "repro.analysis.Sanitizer for a witness chain)")
        return [p.value if p.triggered else None for p in procs]


def launch(system: SystemPreset, num_nodes: int, main: Callable, *args,
           **kwargs) -> list[Any]:
    """One-shot convenience: build a :class:`ClusterApp` and run ``main``."""
    app = ClusterApp(system, num_nodes)
    return app.run(main, *args, **kwargs)

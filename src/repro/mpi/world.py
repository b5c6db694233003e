"""MPI world construction and the rank launcher.

:class:`MpiWorld` binds a system preset (or explicit cluster spec) to a
fresh simulation environment, with one MPI rank per node — the paper's
process layout on both testbeds.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import MpiError
from repro.faults import as_injector
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.mpi.comm import Communicator, MpiConfig, _CommState
from repro.sim import Environment, Process, Tracer

__all__ = ["MpiWorld"]


class MpiWorld:
    """A simulated MPI job: environment + cluster + COMM_WORLD.

    Parameters
    ----------
    system:
        A :class:`repro.systems.SystemPreset` or raw :class:`ClusterSpec`.
    num_nodes:
        Number of ranks/nodes to instantiate (defaults to the system max).
    trace:
        Attach a :class:`~repro.sim.Tracer` for timeline extraction.
    metrics:
        Attach a :class:`~repro.obs.MetricsRegistry` (``env.metrics``)
        so the layers count events, messages, bytes, and faults.

    Example
    -------
    >>> from repro.systems import cichlid
    >>> from repro.mpi import MpiWorld
    >>> world = MpiWorld(cichlid(), num_nodes=2)
    >>> def main(comm):
    ...     import numpy as np
    ...     buf = np.arange(4.0)
    ...     if comm.rank == 0:
    ...         yield from comm.send(buf, dest=1, tag=7)
    ...     else:
    ...         out = np.empty(4)
    ...         yield from comm.recv(out, source=0, tag=7)
    ...         return float(out.sum())
    >>> results = world.run(main)
    >>> results[1]
    6.0
    """

    def __init__(self, system, num_nodes: Optional[int] = None,
                 trace: bool = False,
                 config: Optional[MpiConfig] = None,
                 faults=None, metrics: bool = False):
        if hasattr(system, "cluster"):  # SystemPreset
            cluster_spec: ClusterSpec = system.cluster
            if config is None:
                config = MpiConfig(
                    eager_threshold=system.mpi_eager_threshold)
            self.preset = system
        else:
            cluster_spec = system
            self.preset = None
        self.config = config or MpiConfig()
        self.env = Environment()
        if trace:
            self.env.tracer = Tracer()
        if metrics:
            from repro.obs import MetricsRegistry
            MetricsRegistry().attach(self.env)
        #: optional FaultInjector (plan dict / FaultPlan also accepted)
        self.faults = as_injector(faults)
        if self.faults is not None:
            self.faults.attach(self.env)
        self.cluster = Cluster(self.env, cluster_spec, num_nodes)
        self._state = _CommState(self.env, self.cluster, comm_id=0,
                                 config=self.config, name="WORLD")
        self._comms = [Communicator(self._state, r)
                       for r in range(len(self.cluster))]

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.cluster)

    @property
    def tracer(self):
        return self.env.tracer

    @property
    def metrics(self):
        return self.env.metrics

    @property
    def detector(self):
        """The run's :class:`~repro.mpi.ft.FailureDetector` (created on
        first use), or None when no fault injector is attached."""
        from repro.mpi.ft import detector_of
        return detector_of(self.env)

    def comm(self, rank: int) -> Communicator:
        """Rank ``rank``'s COMM_WORLD handle."""
        return self._comms[rank]

    def launch(self, main: Callable, *args, **kwargs) -> list[Process]:
        """Spawn ``main(comm, *args, **kwargs)`` as one process per rank."""
        procs = []
        for rank in range(self.size):
            gen = main(self._comms[rank], *args, **kwargs)
            procs.append(self.env.process(gen, name=f"rank{rank}.main"))
        return procs

    def run(self, main: Callable, *args,
            until: Optional[float] = None, **kwargs) -> list[Any]:
        """Launch ``main`` on every rank, run to completion, return values.

        Raises :class:`MpiError` if any rank is still blocked when the
        event calendar drains (a deadlock).
        """
        procs = self.launch(main, *args, **kwargs)
        self.env.run(until=until)
        stuck = [p.name for p in procs if p.is_alive]
        if stuck and until is None:
            raise MpiError(f"deadlock: ranks never terminated: {stuck}")
        return [p.value if p.triggered else None for p in procs]

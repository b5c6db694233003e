"""ULFM-style fault tolerance: the per-environment failure detector.

User-Level Failure Mitigation (the `revoke`/`shrink`/`agree` proposal
that grew out of exactly the kind of malleable-runtime prototyping
described in "Designing and Prototyping Extensions to MPI in MPICH")
rests on one primitive the transport cannot provide: *agreement on who
is dead*.  This module provides the simulated analogue — a
:class:`FailureDetector` shared by every communicator of an
environment, fed two ways, mirroring real implementations:

* **ack-timeout driven** — when a reliable send exhausts its
  retransmissions against a fail-stopped peer
  (``Envelope.last_fate == "dead"``), the communicator notifies the
  detector and raises :class:`~repro.errors.MpiRankFailed`.
* **heartbeat driven** — :meth:`FailureDetector.sweep` lazily probes
  the fault plan's crash schedule (``FaultInjector.node_dead``) the way
  a heartbeat thread would notice silence: no simulated traffic is
  charged, but a crash only becomes *known* when some rank looks.

The detector is created lazily on the attached
:class:`~repro.faults.FaultInjector` — a fault-free run has
``env.faults is None`` and pays nothing (the same zero-cost-detached
contract as the observer slot ``env.probe``).

Detections, revokes and shrinks reach ``env.probe.on_fault``; an
attached metrics registry counts them as ``ft.detections`` (first
detection per node), ``ft.revokes`` and ``ft.shrinks``, which ride into
:class:`~repro.obs.report.RunReport` snapshots automatically.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["FailureDetector", "detector_of"]


class FailureDetector:
    """Tracks which nodes are known to have fail-stopped.

    One instance per environment (held by the attached fault injector),
    so detections made by any communicator — WORLD, a dup, the clMPI
    runtime's internal comm — are visible to all of them, exactly like
    the process-global failure knowledge of a real MPI runtime.
    """

    def __init__(self, injector):
        self.injector = injector
        #: node ids known to have failed (monotonically growing)
        self.failed_nodes: set[int] = set()
        #: one record per first detection (time, node, rank, via)
        self.log: list[dict] = []

    def notice(self, node: int, env, rank: Optional[int] = None,
               comm: str = "", via: str = "ack-timeout") -> bool:
        """Record that ``node`` is dead; True on the *first* detection."""
        if node in self.failed_nodes:
            return False
        self.failed_nodes.add(node)
        rec = {"kind": "rank_failed", "time": env.now, "node": node,
               "rank": rank, "comm": comm, "via": via}
        self.log.append(rec)
        if env.probe is not None:
            env.probe.on_fault(rec)
        return True

    def sweep(self, env, nodes: Iterable[int]) -> None:
        """Heartbeat pass: notice any node whose crash time has passed."""
        inj = self.injector
        now = env.now
        for node in nodes:
            if node not in self.failed_nodes and inj.node_dead(node, now):
                self.notice(node, env, via="heartbeat")


def detector_of(env) -> Optional[FailureDetector]:
    """The environment's failure detector, or None without an injector.

    Created on first use and cached on the injector, so all
    communicators of a run share one view of the fault set.  Returning
    None when ``env.faults is None`` keeps the fault-free hot path free
    of any detector cost.
    """
    inj = getattr(env, "faults", None)
    if inj is None:
        return None
    det = inj.detector
    if det is None:
        det = inj.detector = FailureDetector(inj)
    return det

"""Runtime fault injection (:class:`FaultInjector`).

The injector is an *attachment*, exactly like ``env.tracer`` and
``env.monitor``: hardware and transport layers consult ``env.faults``
only when it is not ``None``, so a fault-free simulation pays nothing.

All randomness comes from one ``random.Random(plan.seed)`` stream.  The
DES calendar is deterministic, so the layers consult the injector in a
deterministic order, so the whole fault history — which frames drop,
which retransmits happen, which GPU command fails — is a pure function
of ``(plan, workload)``.

The injector never *acts* on its own (no processes, no timers): faults
are evaluated lazily against ``env.now`` at the moment a layer asks.
A NIC flap, for example, is just a time window that :meth:`link_fate`
checks when a message would touch that NIC.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import OclError
from repro.faults.plan import FaultPlan

__all__ = ["FaultInjector", "as_injector", "injected"]

#: hard cap on retained fault records (counters keep exact totals)
_LOG_MAX = 10_000


def injected(exc: BaseException) -> bool:
    """True when ``exc`` was raised by a :class:`FaultInjector`."""
    return getattr(exc, "injected", False)


def as_injector(faults) -> Optional["FaultInjector"]:
    """Coerce a plan dict / :class:`FaultPlan` / injector / None.

    The accepted spellings let every constructor up the stack (MpiWorld,
    ClusterApp, harness specs) take one ``faults=`` argument.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    return FaultInjector(FaultPlan.from_dict(faults))


class FaultInjector:
    """A :class:`FaultPlan` bound to a simulation.

    Query API (all zero-cost when no matching event exists):

    * :meth:`link_fate` — fate of one data frame on a src→dst link:
      ``"ok"``, ``"drop"``, ``"corrupt"``, ``"down"`` (NIC flap window)
      or ``"dead"`` (endpoint crashed).
    * :meth:`control_fate` — same for a control packet; control traffic
      is reliable (no drop/corrupt) but cannot cross a downed NIC.
    * :meth:`slowdown` — multiplicative time derating for a node's
      ``cpu``/``gpu``/``pcie``/``nic`` resource at the current time.
    * :meth:`check_gpu` — raises an :class:`OclError` (marked with
      ``exc.injected = True``) when the plan fails a GPU command here.

    Every injected fault appends a record to :attr:`log` and notifies
    ``env.monitor.on_fault`` when a monitor with that hook is attached.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.env = None
        self.rng = random.Random(plan.seed)
        self.log: list[dict] = []
        self.counts: dict[str, int] = {}
        #: lazily-created :class:`repro.mpi.ft.FailureDetector` shared by
        #: every communicator of the run (see ``repro.mpi.ft.detector_of``)
        self.detector = None
        # Typed views of the plan, precomputed once.
        self._crash_at: dict[int, float] = {}
        for ev in plan.of_kind("node_crash"):
            at = float(ev["at"])
            prev = self._crash_at.get(ev["node"])
            if prev is None or at < prev:
                self._crash_at[ev["node"]] = at
        self._flaps = [(ev["node"], float(ev["at"]),
                        float(ev["at"]) + float(ev["duration"]))
                       for ev in plan.of_kind("nic_flap")]
        self._drops = [(float(ev["probability"]), ev.get("src"), ev.get("dst"))
                       for ev in plan.of_kind("drop")]
        self._corrupts = [(float(ev["probability"]), ev.get("src"),
                           ev.get("dst"))
                          for ev in plan.of_kind("corrupt")]
        self._stragglers = [(ev.get("node"), ev["resource"],
                             float(ev["factor"]),
                             float(ev.get("from") or 0.0),
                             float(ev["until"]) if ev.get("until") is not None
                             else float("inf"))
                            for ev in plan.of_kind("straggler")]
        self._gpu_shots = [{"node": ev.get("node"), "at": float(ev["at"]),
                            "code": ev["code"], "fired": False}
                           for ev in plan.of_kind("gpu_fail")
                           if ev.get("at") is not None]
        self._gpu_rates = [(ev.get("node"), float(ev["probability"]),
                            ev["code"])
                           for ev in plan.of_kind("gpu_fail")
                           if ev.get("probability") is not None]

    # -- lifecycle ----------------------------------------------------------
    def attach(self, env) -> "FaultInjector":
        """Bind to ``env`` and install as ``env.faults``."""
        self.env = env
        env.faults = self
        return self

    def detach(self) -> None:
        """Remove from the environment."""
        if self.env is not None and self.env.faults is self:
            self.env.faults = None
        self.env = None

    # -- recording ----------------------------------------------------------
    def _record(self, kind: str, **detail) -> dict:
        rec = {"kind": kind, "time": self.env.now if self.env else 0.0}
        rec.update(detail)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if len(self.log) < _LOG_MAX:
            self.log.append(rec)
        env = self.env
        if env is not None and env.metrics is not None:
            env.metrics.inc(f"faults.{kind}")
        if env is not None and env.monitor is not None:
            env.monitor.on_fault(rec)
        return rec

    def summary(self) -> dict:
        """Counts of injected faults by kind (exact, even past the log cap)."""
        return {"total": sum(self.counts.values()), "by_kind": dict(self.counts)}

    # -- node / NIC state ---------------------------------------------------
    def node_dead(self, node: int, now: Optional[float] = None) -> bool:
        """True once ``node`` has fail-stopped."""
        at = self._crash_at.get(node)
        if at is None:
            return False
        if now is None:
            now = self.env.now
        return now >= at

    def nic_down(self, node: int, now: Optional[float] = None) -> bool:
        """True while ``node``'s NIC is inside a flap window."""
        if not self._flaps:
            return False
        if now is None:
            now = self.env.now
        for n, t0, t1 in self._flaps:
            if n == node and t0 <= now < t1:
                return True
        return False

    # -- network fates ------------------------------------------------------
    def link_fate(self, src: int, dst: int, nbytes: int = 0,
                  label: str = "msg", flow: int = 0) -> str:
        """Fate of one data frame from ``src`` to ``dst`` right now.

        ``flow`` tags the fault record with the message's causal-chain
        id so a warning can be located on the exported timeline.
        """
        now = self.env.now
        for node in (src, dst):
            if self.node_dead(node, now):
                self._record("dead", src=src, dst=dst, node=node,
                             nbytes=nbytes, label=label, flow=flow)
                return "dead"
        if self.nic_down(src, now) or self.nic_down(dst, now):
            self._record("down", src=src, dst=dst, nbytes=nbytes, label=label,
                         flow=flow)
            return "down"
        rng = self.rng
        for prob, s, d in self._drops:
            if (s is None or s == src) and (d is None or d == dst):
                if rng.random() < prob:
                    self._record("drop", src=src, dst=dst, nbytes=nbytes,
                                 label=label, flow=flow)
                    return "drop"
        for prob, s, d in self._corrupts:
            if (s is None or s == src) and (d is None or d == dst):
                if rng.random() < prob:
                    self._record("corrupt", src=src, dst=dst, nbytes=nbytes,
                                 label=label, flow=flow)
                    return "corrupt"
        return "ok"

    def control_fate(self, src: int, dst: int, label: str = "ctrl") -> str:
        """Fate of a control packet: ``"ok"``, ``"down"``, or ``"dead"``."""
        now = self.env.now
        for node in (src, dst):
            if self.node_dead(node, now):
                self._record("dead", src=src, dst=dst, node=node,
                             nbytes=0, label=label)
                return "dead"
        if self.nic_down(src, now) or self.nic_down(dst, now):
            self._record("down", src=src, dst=dst, nbytes=0, label=label)
            return "down"
        return "ok"

    # -- derating -----------------------------------------------------------
    def slowdown(self, resource: str, node: int) -> float:
        """Combined straggler derate (>= 1.0) for ``resource`` on ``node``."""
        if not self._stragglers:
            return 1.0
        now = self.env.now
        factor = 1.0
        for n, res, f, t0, t1 in self._stragglers:
            if res == resource and (n is None or n == node) \
                    and t0 <= now < t1:
                factor *= f
        return factor

    # -- GPU command faults -------------------------------------------------
    def check_gpu(self, node: int, label: str = "") -> None:
        """Raise a marked :class:`OclError` if a GPU fault fires here."""
        now = self.env.now
        for shot in self._gpu_shots:
            if shot["fired"]:
                continue
            if (shot["node"] is None or shot["node"] == node) \
                    and now >= shot["at"]:
                shot["fired"] = True
                self._raise_gpu(node, shot["code"], label)
        rng = self.rng
        for n, prob, code in self._gpu_rates:
            if (n is None or n == node) and rng.random() < prob:
                self._raise_gpu(node, code, label)

    def _raise_gpu(self, node: int, code: str, label: str) -> None:
        self._record("gpu_fail", node=node, code=code, label=label)
        exc = OclError(code, f"injected GPU fault on node {node}"
                             + (f" ({label})" if label else ""))
        exc.injected = True
        raise exc

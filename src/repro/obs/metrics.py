"""Metrics registry: counters, gauges, and power-of-two histograms.

A :class:`MetricsRegistry` is the quantitative side of observability
(the :class:`~repro.sim.trace.Tracer` is the qualitative side).  It is
a consumer of the probe hooks (:mod:`repro.sim.probe`): attached with
``env.attach(registry)``, it turns each hook call into counter, gauge
and histogram updates, and every metric name is spelled here, in the
hook methods, never at an instrumentation site.  A detached registry
costs nothing.

Names are dotted and low-cardinality by design (``mpi.messages``,
``hw.net.bytes``) — per-lane or per-message names would make snapshots
unbounded and reports undiffable.

Snapshots are plain JSON-able dicts with deterministically sorted keys,
so two runs with the same seed produce byte-identical serializations.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.probe import Probe

__all__ = ["MetricsRegistry", "merge_snapshots"]

#: counters bumped per tolerance record (:meth:`MetricsRegistry.on_fault`),
#: formatted with the record's fields; any other record kind is an
#: injected fault, counted as ``faults.<kind>``
_RECOVERY_COUNTERS = {
    "rank_failed": ("ft.detections",),
    "comm_revoked": ("ft.revokes",),
    "comm_shrunk": ("ft.shrinks",),
    "clmpi_orphaned": ("clmpi.orphaned_flows",),
    "clmpi_degrade": ("clmpi.fallback_steps", "clmpi.fallback.{mode}"),
    "mpi_giveup": (),
}


class MetricsRegistry(Probe):
    """Append-only numeric facts about one run.

    Counters only go up (``inc``); gauges track a last-written value and
    its high-water mark (``gauge``); histograms bucket integer samples
    by power-of-two floor (``observe``) — e.g. a 96 KiB message lands in
    the 65536 bucket.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict[int, int]] = {}

    # -- writers -----------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``; also keeps ``name + ".max"``."""
        self.gauges[name] = value
        peak = name + ".max"
        if value > self.gauges.get(peak, float("-inf")):
            self.gauges[peak] = value

    def observe(self, name: str, value: int) -> None:
        """Add one sample to histogram ``name`` (power-of-two buckets)."""
        bucket = 1 << (value.bit_length() - 1) if value > 0 else 0
        hist = self.histograms.setdefault(name, {})
        hist[bucket] = hist.get(bucket, 0) + 1

    # -- attachment --------------------------------------------------------
    def attach(self, env) -> "MetricsRegistry":
        """``env.attach(self)``; returns self for chaining."""
        return env.attach(self)

    # -- probe hooks ---------------------------------------------------------
    def on_lane_busy(self, kind, lane, label, start, end, category,
                     nbytes=None, flow=0, src=None, dst=None) -> None:
        if kind == "link":
            self.inc(f"hw.{category}.bytes", nbytes)
            self.inc(f"hw.{category}.busy_s", end - start)
        elif kind == "gpu":
            self.inc("gpu.kernels")
            self.inc("gpu.busy_s", end - start)
        elif kind == "host":
            self.inc("host.busy_s", end - start)
        elif kind == "net":
            self.inc("net.messages")
            self.inc("net.bytes", nbytes)

    def on_link_queue(self, link, depth) -> None:
        self.gauge(f"hw.{link}.queue_depth", depth)

    def on_process_started(self, proc) -> None:
        self.inc("sim.processes")

    def on_run(self, scheduled, fired) -> None:
        self.inc("sim.events_scheduled", scheduled)
        self.inc("sim.events_fired", fired)

    def on_event_status(self, ev, status) -> None:
        self.inc(f"ocl.event.{status.name.lower()}")

    def on_event_failed(self, ev, exc) -> None:
        self.inc("ocl.event.failed")

    def on_command_enqueued(self, queue, cmd) -> None:
        self.inc(f"ocl.cmd.{cmd.type.value}")

    def on_mpi_send(self, comm, envelope, completion, matched) -> None:
        self.inc("mpi.messages")
        self.observe("mpi.msg_bytes", envelope.nbytes)
        self.inc(f"mpi.{envelope.protocol}")

    def on_mpi_ack(self, envelope) -> None:
        self.inc("mpi.acks")

    def on_mpi_retry(self, envelope, fate) -> None:
        self.inc("mpi.backoffs")
        self.inc("mpi.retransmits")

    def on_transfer(self, kind, peer, tag, desc) -> None:
        if kind == "send":
            self.inc(f"clmpi.transfer.{desc.mode}")
            self.inc("clmpi.bytes", desc.nbytes)

    def on_fault(self, record) -> None:
        for name in _RECOVERY_COUNTERS.get(record["kind"], ("faults.{kind}",)):
            self.inc(name.format_map(record))

    # -- readers -----------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able, deterministically ordered dump of every series."""
        return {
            "counters": {k: self.counters[k]
                         for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                name: {str(b): hist[b] for b in sorted(hist)}
                for name, hist in sorted(self.histograms.items())
            },
        }


def merge_snapshots(a: Optional[dict], b: Optional[dict]) -> dict:
    """Combine two snapshots: counters and histogram buckets sum,
    gauges keep the max (the interesting gauges are high-water marks)."""
    a = a or {"counters": {}, "gauges": {}, "histograms": {}}
    b = b or {"counters": {}, "gauges": {}, "histograms": {}}
    counters = dict(a.get("counters", {}))
    for k, v in b.get("counters", {}).items():
        counters[k] = counters.get(k, 0) + v
    gauges = dict(a.get("gauges", {}))
    for k, v in b.get("gauges", {}).items():
        gauges[k] = max(gauges.get(k, float("-inf")), v)
    histograms: dict[str, dict[str, int]] = {
        name: dict(hist) for name, hist in a.get("histograms", {}).items()
    }
    for name, hist in b.get("histograms", {}).items():
        tgt = histograms.setdefault(name, {})
        for bucket, count in hist.items():
            tgt[bucket] = tgt.get(bucket, 0) + count
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauges[k] for k in sorted(gauges)},
        "histograms": {name: {b: hist[b] for b in sorted(hist, key=int)}
                       for name, hist in sorted(histograms.items())},
    }

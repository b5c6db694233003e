"""Timeline tracing.

The paper's Figure 4 is a set of host/GPU/network timelines showing which
activities overlap.  The :class:`Tracer` collects interval records from the
hardware and runtime layers so the harness can regenerate those timelines
(as ASCII Gantt charts) and so tests can assert overlap properties
("the second-stage communication starts before the first-stage computation
ends", etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from repro.sim.probe import Probe

__all__ = ["TraceRecord", "Tracer"]

#: Shared immutable mapping used for records without metadata, so the
#: hot ``record()`` path does not allocate a fresh dict per record.
_EMPTY_META: Mapping = MappingProxyType({})


@dataclass(frozen=True)
class TraceRecord:
    """One closed interval of activity on a named lane.

    Attributes
    ----------
    lane:
        Timeline lane, e.g. ``"rank0.host"``, ``"rank0.gpu"``,
        ``"rank0.nic.tx"``.
    label:
        Human-readable activity name (``"jacobi_A"``, ``"halo send"``).
    start, end:
        Virtual-time interval bounds in seconds.
    category:
        Coarse class used for filtering: ``compute`` / ``d2h`` / ``h2d`` /
        ``net`` / ``host`` / ``sync``.
    meta:
        Free-form extras (message size, peer rank, ...).
    flow:
        Causal-chain id linking records across lanes (0 = unlinked).
        All stages of one logical transfer (d2h -> net -> h2d, or an
        MPI send -> recv pair) share a flow id; the exporter turns the
        chain into Chrome/Perfetto flow arrows and the critical-path
        analyzer follows it across lanes.
    span:
        Unique per-tracer record id (1-based, insertion order).
    """

    lane: str
    label: str
    start: float
    end: float
    category: str = "other"
    meta: Mapping = field(default_factory=dict, compare=False)
    flow: int = 0
    span: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "TraceRecord") -> bool:
        """True if the two intervals share a positive-length overlap."""
        return min(self.end, other.end) > max(self.start, other.start)


class Tracer(Probe):
    """Append-only collection of :class:`TraceRecord`.

    Attach one with :meth:`Environment.attach <repro.sim.Environment.
    attach>` and it records every lane-busy interval the probe reports
    (:meth:`on_lane_busy`) and allocates the causal flow ids.
    """

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self._next_span = 0
        self._next_flow = 0

    def new_flow(self) -> int:
        """Allocate a fresh nonzero flow id for a causal chain."""
        self._next_flow += 1
        return self._next_flow

    def on_lane_busy(self, kind, lane, label, start, end, category,
                     nbytes=None, flow=0, src=None, dst=None) -> None:
        if src is None and nbytes is None and dst is None:
            meta = _EMPTY_META
        else:
            meta = {k: v for k, v in (("src", src), ("nbytes", nbytes),
                                      ("dst", dst)) if v is not None}
        self._add(lane, label, start, end, category, meta, flow)

    def record(self, lane: str, label: str, start: float, end: float,
               category: str = "other", flow: int = 0,
               **meta) -> TraceRecord:
        """Append a record and return it."""
        return self._add(lane, label, start, end, category,
                         meta if meta else _EMPTY_META, flow)

    def _add(self, lane, label, start, end, category, meta,
             flow) -> TraceRecord:
        self._next_span += 1
        rec = TraceRecord(lane, label, start, end, category, meta, flow,
                          self._next_span)
        self.records.append(rec)
        return rec

    # -- queries -------------------------------------------------------------
    def lanes(self) -> list[str]:
        """Sorted set of lane names seen so far."""
        return sorted({r.lane for r in self.records})

    def on_lane(self, lane: str) -> list[TraceRecord]:
        """Records for one lane, in start order."""
        return sorted((r for r in self.records if r.lane == lane),
                      key=lambda r: (r.start, r.end))

    def by_category(self, category: str) -> list[TraceRecord]:
        """Records of one category, in start order."""
        return sorted((r for r in self.records if r.category == category),
                      key=lambda r: (r.start, r.end))

    def busy_time(self, lane: str) -> float:
        """Total busy (union) time on a lane, merging overlaps."""
        total = 0.0
        last_end = float("-inf")
        for rec in self.on_lane(lane):
            if rec.start >= last_end:
                total += rec.duration
                last_end = rec.end
            elif rec.end > last_end:
                total += rec.end - last_end
                last_end = rec.end
        return total

    def overlap_time(self, cat_a: str, cat_b: str) -> float:
        """Total time during which categories a and b are both active."""
        ints_a = _merge(sorted((r.start, r.end) for r in self.by_category(cat_a)))
        ints_b = _merge(sorted((r.start, r.end) for r in self.by_category(cat_b)))
        total, i, j = 0.0, 0, 0
        while i < len(ints_a) and j < len(ints_b):
            lo = max(ints_a[i][0], ints_b[j][0])
            hi = min(ints_a[i][1], ints_b[j][1])
            if hi > lo:
                total += hi - lo
            if ints_a[i][1] < ints_b[j][1]:
                i += 1
            else:
                j += 1
        return total

    def span(self) -> tuple[float, float]:
        """(earliest start, latest end) across all records."""
        if not self.records:
            return (0.0, 0.0)
        return (min(r.start for r in self.records),
                max(r.end for r in self.records))

    # -- rendering -------------------------------------------------------------
    def render_gantt(self, width: int = 78,
                     lanes: Optional[Iterable[str]] = None) -> str:
        """ASCII Gantt chart of the recorded intervals (Fig 4 style)."""
        lanes = list(lanes) if lanes is not None else self.lanes()
        lo, hi = self.span()
        if hi <= lo:
            return "(empty trace)"
        scale = width / (hi - lo)
        name_w = max((len(ln) for ln in lanes), default=4)
        out = []
        for lane in lanes:
            row = [" "] * width
            for rec in self.on_lane(lane):
                a = int((rec.start - lo) * scale)
                b = max(a + 1, int((rec.end - lo) * scale))
                ch = _CATEGORY_GLYPH.get(rec.category, "#")
                for k in range(a, min(b, width)):
                    row[k] = ch
            out.append(f"{lane:<{name_w}} |{''.join(row)}|")
        legend = "  ".join(f"{g}={c}" for c, g in _CATEGORY_GLYPH.items())
        span = f"[{lo * 1e3:.3f} ms .. {hi * 1e3:.3f} ms]"
        out.append(f"{'':<{name_w}}  {span}  {legend}")
        return "\n".join(out)


    def flows(self) -> dict[int, list[TraceRecord]]:
        """Records grouped by nonzero flow id, each chain in causal
        (start, end, span) order, keyed in ascending flow-id order."""
        chains: dict[int, list[TraceRecord]] = {}
        for rec in self.records:
            if rec.flow:
                chains.setdefault(rec.flow, []).append(rec)
        return {fid: sorted(chains[fid],
                            key=lambda r: (r.start, r.end, r.span))
                for fid in sorted(chains)}

    def to_chrome_trace(self) -> list[dict]:
        """Export as Chrome-tracing events (load in ``chrome://tracing``
        or Perfetto).  Lanes become threads; virtual seconds become
        microseconds.  Causal chains (nonzero ``flow`` shared by two or
        more records) are emitted as flow events (``ph`` ``s``/``t``/
        ``f``) so the viewer draws arrows between the linked slices."""
        lanes = self.lanes()
        tid = {lane: i for i, lane in enumerate(lanes)}
        events: list[dict] = [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": i,
             "args": {"name": lane}}
            for lane, i in tid.items()
        ]
        for rec in self.records:
            args = {str(k): v for k, v in rec.meta.items()}
            args["span"] = rec.span
            if rec.flow:
                args["flow"] = rec.flow
            events.append({
                "name": rec.label,
                "cat": rec.category,
                "ph": "X",
                "pid": 0,
                "tid": tid[rec.lane],
                "ts": rec.start * 1e6,
                "dur": rec.duration * 1e6,
                "args": args,
            })
        for fid, chain in self.flows().items():
            if len(chain) < 2:
                continue
            for i, rec in enumerate(chain):
                ev = {
                    "name": f"flow{fid}",
                    "cat": "flow",
                    "ph": "s" if i == 0 else (
                        "f" if i == len(chain) - 1 else "t"),
                    "id": fid,
                    "pid": 0,
                    "tid": tid[rec.lane],
                    "ts": rec.start * 1e6,
                }
                if ev["ph"] == "f":
                    ev["bp"] = "e"
                events.append(ev)
        return events

    def save_chrome_trace(self, path) -> None:
        """Write :meth:`to_chrome_trace` output as a JSON file."""
        import json

        with open(path, "w") as fh:
            json.dump({"traceEvents": self.to_chrome_trace()}, fh)


_CATEGORY_GLYPH = {
    "compute": "#",
    "d2h": "v",
    "h2d": "^",
    "net": "=",
    "host": ".",
    "sync": "x",
}


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged

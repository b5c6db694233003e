"""Fig 4 — execution timelines of the overlap behaviours.

The paper's Figure 4 illustrates (a) the hand-optimized implementation
with communication fully hidden, (b) the same implementation when
communication exceeds computation and the blocked host delays the second-
stage communication, and (c) the clMPI implementation releasing commands
without host involvement.  This runner regenerates the three panels as
ASCII Gantt charts from real simulation traces, plus quantitative overlap
statistics used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.himeno import HimenoConfig, run_himeno
from repro.sim.trace import Tracer
from repro.systems import get_system

__all__ = ["run_fig4", "TimelinePanel"]


@dataclass
class TimelinePanel:
    """One Fig 4 panel: a rendered chart plus overlap metrics."""

    label: str
    implementation: str
    nodes: int
    chart: str
    #: seconds during which GPU compute and network are both active
    overlap: float
    #: total network busy time
    net_time: float
    #: total GPU compute time
    compute_time: float
    #: the panel's simulation trace (``fig4 --trace-out`` exports it)
    tracer: Tracer = field(repr=False, compare=False)

    @property
    def overlap_fraction(self) -> float:
        """Fraction of network time hidden behind computation."""
        return self.overlap / self.net_time if self.net_time > 0 else 0.0


def _panel(label: str, system: str, nodes: int, impl: str,
           iterations: int) -> TimelinePanel:
    preset = get_system(system)
    cfg = HimenoConfig(size="M", iterations=iterations)
    res = run_himeno(preset, nodes, impl, cfg, functional=False, trace=True)
    tracer: Tracer = res.tracer
    lanes = [ln for ln in tracer.lanes() if ln.startswith("node0")
             or ln.startswith("node1.nic")]
    chart = tracer.render_gantt(width=72, lanes=lanes)
    return TimelinePanel(
        label=label, implementation=impl, nodes=nodes, chart=chart,
        overlap=tracer.overlap_time("compute", "net"),
        net_time=sum(tracer.busy_time(ln) for ln in tracer.lanes()
                     if ln.endswith(".nic.tx")),
        compute_time=tracer.busy_time("node0.gpu"),
        tracer=tracer,
    )


def run_fig4(system: str = "cichlid", iterations: int = 2,
             verbose: bool = True) -> list[TimelinePanel]:
    """Regenerate the three Fig 4 panels."""
    panels = [
        _panel("(a) hand-optimized, communication hidden (2 nodes)",
               system, 2, "hand-optimized", iterations),
        _panel("(b) hand-optimized, communication exposed (4 nodes)",
               system, 4, "hand-optimized", iterations),
        _panel("(c) clMPI (4 nodes)", system, 4, "clmpi", iterations),
    ]
    if verbose:
        for p in panels:
            print(f"\nFig 4{p.label}")
            print(p.chart)
            print(f"  net busy {p.net_time * 1e3:.2f} ms, GPU busy "
                  f"{p.compute_time * 1e3:.2f} ms, overlap "
                  f"{p.overlap * 1e3:.2f} ms "
                  f"({p.overlap_fraction * 100:.0f}% of net hidden)")
    return panels

"""Instruments for the traced run: per-layer host time and program counters.

Nothing here edits the program.  Host time comes from stdlib cProfile,
grouped by ``repro`` subpackage; exact program counters come from a
:class:`~repro.obs.MetricsRegistry` that :class:`EnvProbe` attaches to
every coroutine :class:`~repro.sim.Environment` by wrapping its
constructor for the length of the run.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import threading
import time
from typing import Optional

#: the layers host time is split into, named after ``repro`` subpackages
LAYERS = ("sim", "sim.vectorized", "hardware", "mpi", "ocl", "clmpi",
          "apps", "harness", "harness.service", "obs")

#: harness modules that make up the sweep service
_SERVICE_MODULES = {"service.py", "queue.py", "federation.py"}

#: counters summed per pass from the attached registries
COUNTER_PREFIXES = ("sim.events_fired", "sim.processes", "mpi.messages",
                    "mpi.eager", "ocl.cmd.", "ocl.event.",
                    "clmpi.transfer.", "clmpi.bytes", "net.bytes",
                    "gpu.kernels")


def layer_of(filename: str, repro_root: str) -> Optional[str]:
    """The layer a source file belongs to; ``"other"`` for a ``repro``
    module outside the ten layers, None for code outside ``repro``."""
    prefix = repro_root + os.sep
    if not filename.startswith(prefix):
        return None
    parts = filename[len(prefix):].split(os.sep)
    if parts[0] == "sim":
        return "sim.vectorized" if parts[-1] == "vectorized.py" else "sim"
    if parts[0] == "harness":
        return ("harness.service" if parts[-1] in _SERVICE_MODULES
                else "harness")
    return parts[0] if parts[0] in LAYERS else "other"


def attribute(stats: dict, repro_root: str) -> tuple[dict, dict]:
    """Split a pstats table into per-layer self seconds and calls in.

    A ``repro`` function's self time belongs to its layer.  Self time
    of anything else (builtins, stdlib, NumPy) is charged to the layers
    that called it, in proportion to the time each call edge spent in
    it, walking up through further non-``repro`` callers by cumulative
    time.  Time no ``repro`` frame reached goes to ``"other"``.

    ``calls_in`` counts calls into each layer from a caller in another
    layer (a non-``repro`` caller counts as the layer it is mostly
    charged to), i.e. the boundary crossings.
    """
    layer = {f: layer_of(f[0], repro_root) for f in stats}
    ancestry: dict = {}

    def charged_to(func, stack: set) -> dict:
        """Fractions of ``func``'s calls that each layer is behind."""
        if layer[func] is not None:
            return {layer[func]: 1.0}
        if func in ancestry:
            return ancestry[func]
        edges = {c: v for c, v in stats[func][4].items()
                 if c in stats and c not in stack}
        weights = {c: v[3] for c, v in edges.items()}
        if sum(weights.values()) <= 0:
            weights = {c: v[0] for c, v in edges.items()}
        total = sum(weights.values())
        out: dict = {}
        if total <= 0:
            out["other"] = 1.0
        else:
            stack.add(func)
            for c, w in weights.items():
                for name, x in charged_to(c, stack).items():
                    out[name] = out.get(name, 0.0) + x * w / total
            stack.discard(func)
        ancestry[func] = out
        return out

    self_s: dict = {}
    calls_in: dict = {}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        own = layer[func]
        if own is not None:
            self_s[own] = self_s.get(own, 0.0) + tt
        else:
            # the edges' own self-time shares are exact for one hop
            edge_tt = {c: v[2] for c, v in callers.items() if c in stats}
            rest = tt - sum(edge_tt.values())
            for c, share in edge_tt.items():
                for name, x in charged_to(c, {func}).items():
                    self_s[name] = self_s.get(name, 0.0) + share * x
            if rest > 0:
                self_s["other"] = self_s.get("other", 0.0) + rest
            continue
        # calls with no recorded caller came from frames already on the
        # stack when profiling started: the benchmark's own
        crossings = nc - sum(v[0] for v in callers.values())
        for c, v in callers.items():
            if c not in stats:
                continue
            dist = charged_to(c, {func})
            if max(dist, key=dist.get) != own:
                crossings += v[0]
        calls_in[own] = calls_in.get(own, 0) + crossings
    return self_s, calls_in


def per_call_ms(stats: dict, module_tail: str, name: str) -> float:
    """Mean cumulative ms per call of the outermost function ``name``
    defined in a file ending with ``module_tail`` (0 if never called)."""
    best = None
    for func, (_cc, nc, _tt, ct, _callers) in stats.items():
        if func[0].endswith(module_tail) and func[2] == name and nc:
            if best is None or ct > best[1]:
                best = (nc, ct)
    return 0.0 if best is None else best[1] / best[0] * 1e3


def builtin_calls(stats: dict, label: str) -> int:
    """Call count of a builtin, e.g. ``<built-in method posix.replace>``."""
    return sum(v[1] for f, v in stats.items() if f[2] == label)


class Profiler:
    """cProfile over the traced passes.

    Single-threaded workloads profile the main thread with a wall
    clock, only while a pass is being timed.  ``threaded=True`` (the
    service) instead profiles every thread started after
    :meth:`install`, each on its own profiler with a per-thread CPU
    clock, so threads blocked waiting charge nothing.
    """

    def __init__(self, threaded: bool = False):
        self.threaded = threaded
        self._main = None if threaded else cProfile.Profile()
        self._threads: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    def install(self) -> None:
        if self.threaded:
            threading.setprofile(self._start_thread)

    def uninstall(self) -> None:
        if self.threaded:
            threading.setprofile(None)

    def _start_thread(self, frame, event, arg) -> None:
        # first profile event of a new thread: swap this hook for a
        # profiler of the thread's own
        prof = cProfile.Profile(time.thread_time)
        with self._lock:
            self._threads.append(prof)
        prof.enable()

    def enable(self) -> None:
        if self._main is not None:
            self._main.enable()

    def disable(self) -> None:
        if self._main is not None:
            self._main.disable()

    def stats(self) -> dict:
        """Merged pstats table (call after every profiled thread ended)."""
        with self._lock:
            profs = ([self._main] if self._main is not None else []) \
                + self._threads
        merged = None
        for prof in profs:
            prof.create_stats()
            if not prof.stats:
                continue
            if merged is None:
                merged = pstats.Stats(prof)
            else:
                merged.add(prof)
        return {} if merged is None else merged.stats


class EnvProbe:
    """Wraps :class:`repro.sim.Environment` construction while active.

    Counts environments per engine (a coroutine environment built while
    a mesoscale point runs means the vectorized engine was bypassed)
    and, with ``attach=True``, gives every coroutine environment a fresh
    :class:`~repro.obs.MetricsRegistry` whose counters :meth:`take`
    sums.
    """

    def __init__(self, attach: bool):
        self.attach = attach
        self.engines: dict[str, int] = {}
        self._registries: list = []

    def __enter__(self) -> "EnvProbe":
        from repro.obs import MetricsRegistry
        from repro.sim import Environment

        self._cls = Environment
        self._orig = orig = Environment.__init__
        probe = self

        @functools.wraps(orig)
        def init(env, *args, **kwargs):
            orig(env, *args, **kwargs)
            probe.engines[env.engine] = probe.engines.get(env.engine, 0) + 1
            if probe.attach and env.engine == "coroutine":
                probe._registries.append(MetricsRegistry().attach(env))

        Environment.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        self._cls.__init__ = self._orig

    def coroutine_envs(self) -> int:
        return self.engines.get("coroutine", 0)

    def take(self) -> dict:
        """Counters summed over the registries attached since the last
        call, restricted to :data:`COUNTER_PREFIXES`."""
        out: dict = {}
        for reg in self._registries:
            for name, value in reg.counters.items():
                if name.startswith(COUNTER_PREFIXES):
                    out[name] = out.get(name, 0) + value
        self._registries.clear()
        return out

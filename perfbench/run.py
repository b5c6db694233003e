"""The repository benchmark: host time of the reproduction, end to end
and per layer.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 35 --trace 0

Runs one workload (see ``workloads.py`` and ``NOTES.md``) as a closed
loop of passes for ``--seconds`` seconds, checks every output against
the digests in ``expected.json``, and prints one line per metric
followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, every
time in reference-host seconds (see ``hostspeed.py``): each pass and
each set-up is scaled by how long a fixed calibration took around it,
so the host's own speed drift cancels.
``--trace 1`` reports the per-layer metrics: it spends half the budget
on plain passes, then runs two passes with a MetricsRegistry on every
coroutine environment, then spends the other half on passes under
cProfile.  Run it from the repository root; it imports the program from
``src/`` and writes only under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REPRO = SRC / "repro"
WORK = ROOT / ".perfbench_work"

#: child processes timed from exec to ready for ``setup_s``
SETUP_SAMPLES = 5
#: passes with program counters attached in a traced run
COUNTED_PASSES = 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper_cold", "paper_warm", "service_sweep",
                             "mesoscale"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def make_workload(name: str, work: Path, expected: dict):
    from workloads import WORKLOADS

    return WORKLOADS[name](name, work, expected[
        "mesoscale" if name == "mesoscale" else "paper"])


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup_probe(name: str) -> None:
    """Child side of ``setup_s``: set up, say so, tear down."""
    work = WORK / f"{name}-probe-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = make_workload(name, work, load_expected())
        wl.setup()
        print("READY", flush=True)
        wl.teardown()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def time_setups(name: str, seed: int, n: int,
                calib: list[float]) -> list[tuple[float, float]]:
    """Process start to ready, in ``n`` fresh interpreters: host seconds
    and the scale to reference-host seconds of each, from calibrations
    taken between the set-ups (appended to ``calib``)."""
    samples = []
    calib.append(hostspeed.sample())
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "READY":
            raise RuntimeError(f"setup probe for {name} failed")
        calib.append(hostspeed.sample())
        samples.append((t1 - t0, hostspeed.REFERENCE_S
                        / statistics.mean(calib[-2:])))
    return samples


def run_passes(wl, rng: random.Random, seconds: float,
               profiler=None, calib: list | None = None) -> list:
    """Closed loop: whole passes until ``seconds`` elapse (at least one);
    each pass visits the grid in a fresh seeded order.  With ``calib``,
    every pass is bracketed by host-speed calibrations (appended to it)
    and gets the ``scale`` to reference-host seconds of their mean."""
    passes = []
    if calib is not None:
        hostspeed.sample()  # warm-up: first use of the calibration code
        calib.append(hostspeed.sample())
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        order = list(range(len(wl.grid)))
        rng.shuffle(order)
        passes.append(wl.run_pass(order, profiler))
        if calib is not None:
            calib.append(hostspeed.sample())
            passes[-1].scale = (hostspeed.REFERENCE_S
                                / statistics.mean(calib[-2:]))
    return passes


def check_identity(passes: list) -> None:
    """Every pass must produce the same outputs as the first, whatever
    its point order and whether it was traced."""
    ref = passes[0].outputs
    for p in passes[1:]:
        for key, value in p.outputs.items():
            if ref.get(key, value) != value:
                p.failed.add(key)


def end_to_end(passes: list, setups: list[tuple[float, float]],
               peak_rss_kb: float, scaled: bool = True) -> dict:
    """The end-to-end metrics, times in reference-host seconds (or, with
    ``scaled=False``, in this host's seconds)."""
    def scale(k: float) -> float:
        return k if scaled else 1.0

    ms = [x * scale(p.scale) for p in passes for x in p.point_ms]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    return {
        "setup_s": (statistics.median(s * scale(k) for s, k in setups),
                    "s", len(setups)),
        "points_per_s": (statistics.median(
            p.attempted / (p.seconds * scale(p.scale)) for p in passes),
            "1/s", len(passes)),
        "point_ms_p50": (quantile(ms, 0.5), "ms", len(ms)),
        "point_ms_p90": (quantile(ms, 0.9), "ms", len(ms)),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB", 1),
        "ok_frac": (1 - failed / attempted, "ratio", attempted),
    }


def per_layer(wl, plain: list, traced: list, profiler, counters: dict,
              spans) -> dict:
    n = len(traced)
    plain_s = statistics.median(p.seconds for p in plain)
    traced_s = statistics.median(p.seconds for p in traced)
    stats = profiler.stats()
    self_s, calls_in = layers.attribute(stats, str(REPRO))
    out: dict = {}
    for layer in layers.LAYERS + ("other",):
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, "s")
        if layer != "other":
            out[f"{layer}.calls_in"] = (calls_in.get(layer, 0) / n,
                                        "count")
    def total(prefix: str) -> float:
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    events, messages = total("sim.events_fired"), total("mpi.messages")
    out.update({
        "sim.events_fired": (events, "count"),
        "sim.processes": (total("sim.processes"), "count"),
        "sim.events_per_host_s": (events / plain_s, "1/s"),
        "mpi.messages": (messages, "count"),
        "mpi.eager_ratio": (total("mpi.eager") / messages
                            if messages else 0.0, "ratio"),
        "mpi.messages_per_host_s": (messages / plain_s, "1/s"),
        "ocl.commands": (total("ocl.cmd."), "count"),
        "ocl.events": (total("ocl.event."), "count"),
        "clmpi.transfers": (total("clmpi.transfer."), "count"),
        "clmpi.bytes": (total("clmpi.bytes"), "B"),
        "hardware.net_bytes": (total("net.bytes"), "B"),
        "hardware.gpu_kernels": (total("gpu.kernels"), "count"),
    })
    hits = sum(p.extras.get("cache.hits", 0) for p in traced)
    looks = hits + sum(p.extras.get("cache.misses", 0) for p in traced)
    out.update({
        "harness.cache.hit_ratio": (hits / looks if looks else 0.0,
                                    "ratio"),
        "harness.cache.get_ms": (layers.per_call_ms(
            stats, "harness/cache.py", "get"), "ms"),
        "harness.cache.put_ms": (layers.per_call_ms(
            stats, "harness/cache.py", "put"), "ms"),
        "harness.cache.replace_calls": (layers.builtin_calls(
            stats, "<built-in method posix.replace>") / n, "count"),
    })
    out.update(service_layer(wl, plain, spans))
    out["sim.vectorized.rank_points_per_s"] = (
        statistics.median(p.extras.get("rank_points", 0) / p.seconds
                          for p in plain), "1/s")
    out["untraced_pass_s"] = (plain_s, "s")
    out["traced_pass_s"] = (traced_s, "s")
    out["trace_overhead"] = (traced_s / plain_s, "ratio")
    return out


def service_layer(wl, plain: list, spans) -> dict:
    """From the plain passes' daemon: its own spans, and the inline
    compute time of the same points."""
    names = ("queue_ms_p50", "run_ms_p50", "compute_frac",
             "attempts_per_point", "journal_bytes_per_point")
    units = ("ms", "ms", "ratio", "count", "B")
    if spans is None:
        return {f"harness.service.{n}": (0.0, u)
                for n, u in zip(names, units)}
    queue_ms, run_ms = spans
    points = sum(p.attempted for p in plain)
    inline = sum(wl.inline_ms.values()) * len(plain)
    values = (quantile(queue_ms, 0.5), quantile(run_ms, 0.5),
              inline / sum(run_ms),
              sum(p.extras["attempts"] for p in plain) / points,
              sum(p.extras["journal_bytes"] for p in plain) / points)
    return {f"harness.service.{n}": (v, u)
            for n, v, u in zip(names, values, units)}


def measure(wl, seed: int, seconds: float, trace: int,
            setup_samples: int) -> dict:
    rng = random.Random(seed)
    if wl.name == "service_sweep":
        wl.reference()
    if not trace:
        calib: list[float] = []
        passes = run_passes(wl, rng, seconds, calib=calib)
        check_identity(passes)
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if wl.threaded:  # the daemon's reaped point workers
            usage += resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss
        wl.teardown()
        setups = time_setups(wl.name, seed, setup_samples, calib)
        return {"metrics": end_to_end(passes, setups, usage),
                "host_metrics": end_to_end(passes, setups, usage, False),
                "passes": passes, "exact": True, "counters": {},
                "calibration": calib}

    plain = run_passes(wl, rng, seconds / 2)
    spans = wl.read_spans() if wl.name == "service_sweep" else None
    # counted passes: a registry on every coroutine environment, no
    # profiler; each pass runs in its own order and must count the same
    counters: list[dict] = []
    counted = []
    with layers.EnvProbe(attach=True) as probe:
        for _ in range(COUNTED_PASSES):
            counted += run_passes(wl, rng, 0)
            counters.append(probe.take())
    # profiled passes: no registries, so detached observers cost what
    # they cost in the timed runs
    profiler = layers.Profiler(threaded=wl.threaded)
    profiler.install()
    try:  # each service pass starts its daemon, so under the profiler
        traced = run_passes(wl, rng, seconds / 2, profiler)
    finally:
        profiler.uninstall()
    wl.teardown()  # the daemon's profiled threads end here
    passes = plain + counted + traced
    check_identity(passes)
    return {"metrics": per_layer(wl, plain, traced, profiler, counters[0],
                                 spans),
            "passes": passes,
            "exact": all(c == counters[0] for c in counters),
            "counters": counters[0]}


def run(workload: str, seed: int, seconds: float, trace: int,
        expected: dict | None = None,
        setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run; adds ``attempted``/``failed`` to the result of
    :func:`measure`."""
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    wl = make_workload(workload, work,
                       load_expected() if expected is None else expected)
    try:
        wl.setup()
        result = measure(wl, seed, seconds, trace, setup_samples)
    finally:
        wl.teardown()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result["attempted"] = sum(p.attempted for p in result["passes"])
    result["failed"] = sum(len(p.failed) for p in result["passes"])
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (REPRO / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {REPRO}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    r = run(args.workload, args.seed, args.seconds, args.trace)
    attempted, failed = r["attempted"], r["failed"]
    print(f"{args.workload}: {len(r['passes'])} passes, {attempted} "
          f"points, {failed} failed (failed_frac "
          f"{failed / attempted:.6f})"
          + ("" if r["exact"] else ", program counters NOT exact"))
    if r.get("calibration"):
        c = statistics.median(r["calibration"])
        print(f"  host speed: calibration median {c:.4f} s over "
              f"{len(r['calibration'])} samples, reference "
              f"{hostspeed.REFERENCE_S} s; the last column is in this "
              f"host's own seconds")
    host = r.get("host_metrics", {})
    for name, (value, unit, *n) in r["metrics"].items():
        count = f"  (n={n[0]})" if n else ""
        raw = f"  host {host[name][0]:.6g}" if name in host else ""
        print(f"  {name:40s} {value:14.6g} {unit}{count}{raw}")
    print(json.dumps({
        "correct": failed == 0 and r["exact"],
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_n) in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

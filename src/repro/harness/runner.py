"""Command-line entry point: ``python -m repro.harness`` / ``clmpi-harness``."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.harness.cache import ResultCache
from repro.harness.fig10 import run_fig10
from repro.harness.fig8 import run_fig8
from repro.harness.fig9 import run_fig9
from repro.harness.table1 import run_table1
from repro.harness.timeline import run_fig4
from repro.sim import POINT_ENGINES

__all__ = ["main"]


def _nodes_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="clmpi-harness",
        description="Regenerate the paper's evaluation tables and figures "
                    "on the simulated clusters.")
    p.add_argument("--cache-stats", action="store_true",
                   help="print result-cache hit/miss counters and exit "
                        "(usable without an experiment)")
    sub = p.add_subparsers(dest="experiment", required=True)

    # Options by capability.  Each experiment takes only the parents it
    # implements, so argparse refuses every other option (exit 2).
    sweep_opts = argparse.ArgumentParser(add_help=False)
    sweep_opts.add_argument("-j", "--jobs", type=int, default=1,
                            help="sweep worker processes (0 = one per "
                                 "CPU; default 1 = serial)")
    sweep_opts.add_argument("--no-cache", action="store_true",
                            help="recompute every point, bypassing "
                                 ".repro_cache/")
    table_opts = argparse.ArgumentParser(add_help=False)
    table_opts.add_argument("--json", metavar="PATH", default=None,
                            help="also write the table as canonical JSON")
    point_opts = argparse.ArgumentParser(add_help=False)
    point_opts.add_argument("--faults", metavar="PATH", default=None,
                            help="JSON fault plan injected into every "
                                 "sweep point (see docs/faults.md)")
    point_opts.add_argument("--fault-seed", type=int, default=None,
                            help="override the plan's RNG seed (distinct "
                                 "seeds give distinct fault histories)")
    point_opts.add_argument("--report", metavar="PATH", default=None,
                            help="write the run's merged RunReport "
                                 "(metrics snapshot, critical path, fault "
                                 "tallies — see docs/observability.md) "
                                 "as JSON")
    point_opts.add_argument("--metrics", action="store_true",
                            help="print the merged metrics snapshot "
                                 "after the run")
    point_opts.add_argument("--engine", default="auto",
                            choices=POINT_ENGINES,
                            help="simulation engine for timing-only "
                                 "points: 'vectorized' batches all ranks "
                                 "into NumPy lanes (byte-identical "
                                 "results, seconds at 1k+ ranks) or "
                                 "refuses the point; 'auto' (default) "
                                 "runs refused points on the coroutine "
                                 "engine")
    point_opts.add_argument("--reps", type=int, default=None,
                            metavar="MAX",
                            help="adaptive repetitions per point, up to "
                                 "MAX (Hunold & Carpen-Amarie); table "
                                 "footers and --report gain mean ± ci "
                                 "stats")
    point_opts.add_argument("--telemetry", metavar="PATH", default=None,
                            help="append lifecycle spans for every sweep "
                                 "point to this JSONL log (same format as "
                                 "the service's telemetry.jsonl — see "
                                 "docs/observability.md)")
    instrumented = [sweep_opts, table_opts, point_opts]

    sub.add_parser("table1", parents=[table_opts],
                   help="Table I: system specifications")

    f8 = sub.add_parser("fig8", parents=instrumented,
                        help="Fig 8: pt2pt sustained bandwidth")
    f8.add_argument("--system", default="cichlid",
                    choices=["cichlid", "ricc"])
    f8.add_argument("--repeats", type=int, default=4)
    f8.add_argument("--ranks", type=int, default=2,
                    help="simulated ranks: even counts > 2 run P/2 "
                         "concurrent pairs (mesoscale sweeps; pair with "
                         "--engine vectorized for 1k-10k ranks)")

    f9 = sub.add_parser("fig9", parents=instrumented,
                        help="Fig 9: Himeno benchmark")
    f9.add_argument("--system", default="cichlid",
                    choices=["cichlid", "ricc"])
    f9.add_argument("--nodes", type=_nodes_list, default=None)
    f9.add_argument("--size", default="M")
    f9.add_argument("--dims", type=_nodes_list, default=None,
                    metavar="MI,MJ,MK",
                    help="explicit grid dims (overrides --size; mesoscale "
                         "node counts need mi >= 2*nodes + 2)")
    f9.add_argument("--iterations", type=int, default=4)
    f9.add_argument("--functional", action="store_true",
                    help="run the NumPy kernels for real (slower)")

    f10 = sub.add_parser("fig10", parents=[sweep_opts, table_opts],
                         help="Fig 10: nanopowder simulation")
    f10.add_argument("--nodes", type=_nodes_list, default=None)
    f10.add_argument("--steps", type=int, default=2)
    f10.add_argument("--functional", action="store_true")

    f4 = sub.add_parser("fig4", help="Fig 4: overlap timelines")
    f4.add_argument("--system", default="cichlid",
                    choices=["cichlid", "ricc"])
    f4.add_argument("--trace-out", metavar="PATH", default=None,
                    help="also export panel (c)'s trace as a Chrome-"
                         "tracing JSON with causal flow arrows "
                         "(chrome://tracing / Perfetto)")

    tn = sub.add_parser("tune", parents=[sweep_opts, table_opts],
                        help="empirically auto-tune the transfer "
                             "policy (§V.B extension)")
    tn.add_argument("--system", default="ricc",
                    choices=["cichlid", "ricc"])

    sub.add_parser("all", parents=[sweep_opts],
                   help="run every experiment at default settings")

    # -- sweep service (docs/service.md) ------------------------------------
    sv = sub.add_parser("serve",
                        help="run the persistent sweep-service daemon "
                             "(journaled queue, shared store, reaped "
                             "workers — see docs/service.md)")
    sv.add_argument("--root", default=".repro_service",
                    help="service state dir (journal + shared store); "
                         "default .repro_service")
    sv.add_argument("--socket", default=None,
                    help="unix socket path (default ROOT/service.sock)")
    sv.add_argument("--port", type=int, default=None,
                    help="also listen on 127.0.0.1:PORT (minimal HTTP "
                         "and JSON-lines; 0 = pick a free port)")
    sv.add_argument("-j", "--jobs", type=int, default=2,
                    help="concurrent point-worker slots (default 2; "
                         "0 = pure coordinator, computes nothing "
                         "itself and only leases points to federation "
                         "agents)")
    sv.add_argument("--point-timeout", type=float, default=300.0,
                    metavar="SECONDS",
                    help="wall-clock budget per point attempt before the "
                         "worker is reaped (default 300; 0 = no limit)")
    sv.add_argument("--retries", type=int, default=2,
                    help="extra attempts after a timeout/killed worker "
                         "(default 2)")
    sv.add_argument("--backoff", type=float, default=0.1,
                    metavar="SECONDS",
                    help="initial retry backoff, doubling per retry "
                         "(default 0.1)")
    sv.add_argument("--store-budget", type=int, default=None,
                    metavar="BYTES",
                    help="LRU-evict the shared store beyond this size "
                         "(default: unbounded)")
    sv.add_argument("--lease-ttl", type=float, default=30.0,
                    metavar="SECONDS",
                    help="federation lease time-to-live: an agent that "
                         "does not renew within this window loses the "
                         "point back to the queue (default 30)")
    sv.add_argument("--drain-grace", type=float, default=30.0,
                    metavar="SECONDS",
                    help="on SIGTERM, wait up to this long for in-"
                         "flight points and live leases before "
                         "journaling and exiting 0 (default 30)")

    ag = sub.add_parser("agent",
                        help="run a federation worker agent against a "
                             "coordinator daemon (docs/service.md, "
                             "'Federation')")
    ag.add_argument("--socket", default=None,
                    help="the coordinator's unix socket")
    ag.add_argument("--tcp", default=None, metavar="HOST:PORT",
                    help="the coordinator's TCP address (for agents on "
                         "other hosts)")
    ag.add_argument("--name", default=None,
                    help="stable agent id (default: host+pid); reusing "
                         "the name across restarts lets the agent "
                         "reclaim its journaled leases")
    ag.add_argument("--slots", type=int, default=1,
                    help="points computed concurrently (default 1)")
    ag.add_argument("--poll", type=float, default=0.05,
                    metavar="SECONDS",
                    help="idle poll interval when the queue is empty "
                         "(default 0.05)")
    ag.add_argument("--once", action="store_true",
                    help="exit when the coordinator's queue is fully "
                         "drained instead of polling forever")

    sm = sub.add_parser("submit",
                        help="submit a sweep to a running service daemon")
    sm.add_argument("kind", help="job kind (bandwidth, himeno, "
                                 "nanopowder, chaos) or any kind with "
                                 "--worker")
    sm.add_argument("--socket", required=True,
                    help="the daemon's unix socket")
    sm.add_argument("--specs", required=True, metavar="PATH",
                    help="JSON file holding the list of spec dicts")
    sm.add_argument("--worker", default=None, metavar="MOD:FN",
                    help="explicit worker dotted path (overrides the "
                         "kind's built-in worker)")
    sm.add_argument("--reps", type=int, default=None, metavar="MAX",
                    help="adaptive repetitions per point, up to MAX "
                         "(Hunold & Carpen-Amarie; results/report gain "
                         "stats.* fields)")
    sm.add_argument("--timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="per-point timeout override for this job")
    sm.add_argument("--wait", action="store_true",
                    help="block until the job finishes and print its "
                         "results as JSON")

    st = sub.add_parser("status",
                        help="show a service daemon's jobs (or one job)")
    st.add_argument("--socket", required=True,
                    help="the daemon's unix socket")
    st.add_argument("job", nargs="?", default=None,
                    help="job id (default: list all jobs + stats)")

    tp = sub.add_parser("top",
                        help="live one-screen view of a service daemon "
                             "(progress bars, ETAs, last errors)")
    tp.add_argument("--socket", required=True,
                    help="the daemon's unix socket")
    tp.add_argument("--interval", type=float, default=1.0,
                    metavar="SECONDS",
                    help="refresh period (default 1.0)")
    tp.add_argument("--once", action="store_true",
                    help="render a single frame and exit (no ANSI "
                         "screen clearing; for scripts and tests)")
    return p


def _print_cache_stats() -> None:
    cache = ResultCache()
    stats = cache.read_stats()
    print(f"cache dir: {cache.root}")
    print(f"entries:   {cache.entry_count()}")
    print(f"hits:      {stats['hits']}")
    print(f"misses:    {stats['misses']}")
    print(f"corrupt:   {stats['corrupt_deleted']} (deleted on read), "
          f"{stats['corrupt_replaced']} (healed by a concurrent writer)")
    print(f"evicted:   {stats['evicted']} (LRU, shared-store budget)")
    breakdown = cache.engine_breakdown()
    if breakdown:
        per = ", ".join(f"{eng}: {n}"
                        for eng, n in sorted(breakdown.items()))
        print(f"by engine: {per}")
    _print_telemetry_stats()


def _print_telemetry_stats() -> None:
    """Lifetime span-log counters from the service root's sidecar
    (``$REPRO_SERVICE_ROOT``, default ``.repro_service``)."""
    import os
    from pathlib import Path

    from repro.obs.telemetry import (TELEMETRY_STATS_NAME,
                                     read_telemetry_stats)

    root = Path(os.environ.get("REPRO_SERVICE_ROOT", ".repro_service"))
    sidecar = root / TELEMETRY_STATS_NAME
    if not sidecar.exists():
        return
    t = read_telemetry_stats(sidecar)
    print(f"telemetry: {t['spans_written']} span(s) written, "
          f"{t['rotations']} log rotation(s) ({sidecar})")


def _load_faults(args) -> Optional[dict]:
    """Resolve --faults/--fault-seed into a JSON-able plan dict."""
    if args.faults is None:
        if args.fault_seed is not None:
            raise SystemExit("--fault-seed requires --faults PATH")
        return None
    from repro.faults import FaultPlan

    plan = FaultPlan.load(args.faults)
    if args.fault_seed is not None:
        plan = plan.with_seed(args.fault_seed)
    return plan.to_dict()


def _point_options(args) -> dict:
    """fig8/fig9's point-instrumentation keywords from their options."""
    faults = _load_faults(args)
    telemetry = None
    if args.telemetry:
        from repro.obs.telemetry import Telemetry
        telemetry = Telemetry(args.telemetry)
    return {"faults": faults, "report": args.report,
            "show_metrics": args.metrics, "engine": args.engine,
            "measure": (None if args.reps is None
                        else {"max_reps": args.reps}),
            "telemetry": telemetry}


def _write_json(table, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(table.to_json() + "\n")
        print(f"JSON written to {path}")


def _service_main(args) -> int:
    """The serve/submit/status subcommands (see docs/service.md)."""
    import json

    from repro.harness.service import ServiceClient, serve

    if args.experiment == "serve":
        import signal

        timeout = args.point_timeout if args.point_timeout > 0 else None
        service = serve(args.root, socket_path=args.socket,
                        tcp_port=args.port, jobs=args.jobs,
                        point_timeout_s=timeout, retries=args.retries,
                        backoff_s=args.backoff,
                        store_budget_bytes=args.store_budget,
                        lease_ttl_s=args.lease_ttl)

        def _graceful(signum, frame):
            # SIGTERM = graceful drain: stop issuing work, wait
            # bounded, journal, exit 0 (docs/service.md, "Federation")
            def _drain_and_stop():
                service.drain(grace_s=args.drain_grace)
                service.stop()
            import threading
            threading.Thread(target=_drain_and_stop,
                             daemon=True).start()

        signal.signal(signal.SIGTERM, _graceful)
        service.run_forever()
        return 0

    if args.experiment == "agent":
        import signal
        import threading

        from repro.harness.federation import run_agent

        if not args.socket and not args.tcp:
            raise SystemExit("agent needs --socket or --tcp HOST:PORT")
        tcp = None
        if args.tcp:
            host, _, port = args.tcp.rpartition(":")
            if not host or not port.isdigit():
                raise SystemExit(f"bad --tcp address {args.tcp!r}; "
                                 "expected HOST:PORT")
            tcp = (host, int(port))
        stop = threading.Event()
        signal.signal(signal.SIGTERM, lambda s, f: stop.set())
        summary = run_agent(socket_path=args.socket, tcp=tcp,
                            name=args.name, slots=args.slots,
                            poll_s=args.poll, once=args.once,
                            stop_event=stop, verbose=True)
        return 0 if summary is not None else 1

    if args.experiment == "top":
        from repro.harness.top import run_top
        return run_top(args.socket, interval_s=args.interval,
                       once=args.once)

    client = ServiceClient(args.socket)
    if args.experiment == "submit":
        with open(args.specs) as fh:
            specs = json.load(fh)
        if not isinstance(specs, list):
            raise SystemExit(f"{args.specs} must hold a JSON list of "
                             "spec objects")
        options: dict = {}
        if args.worker:
            options["worker"] = args.worker
        if args.reps is not None:
            options["measure"] = {"max_reps": args.reps}
        if args.timeout is not None:
            options["timeout_s"] = args.timeout
        job = client.submit(args.kind, specs, options)
        print(f"submitted {job['job']}: {job['total']} point(s)")
        if args.wait:
            outcome = client.wait(job["job"])
            print(json.dumps(outcome["results"], sort_keys=True,
                             indent=2))
            return 1 if outcome["errors"] else 0
        return 0

    # status
    if args.job:
        job = client.status(args.job)
        print(json.dumps(job, sort_keys=True, indent=2))
        return 0
    for job in client.jobs():
        print(f"{job['job']}  {job['status']:8s} "
              f"{job['completed']}/{job['total']} done, "
              f"{job['errors']} error(s), "
              f"{job['retried_points']} retried")
    stats = client.stats()
    print(f"workers: {stats['workers']}, inflight: "
          f"{stats['inflight_points']}, deduped: "
          f"{stats['deduped_points']}, store entries: "
          f"{stats['store']['entries']}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # ``--cache-stats`` works standalone (no experiment required), so it
    # is handled before argparse enforces the subcommand.
    if "--cache-stats" in argv:
        _print_cache_stats()
        return 0
    args = build_parser().parse_args(argv)
    if args.experiment in ("serve", "agent", "submit", "status", "top"):
        return _service_main(args)
    if args.experiment == "table1":
        _write_json(run_table1(), args.json)
        return 0
    if args.experiment == "fig4":
        panels = run_fig4(system=args.system)
        if args.trace_out:
            panels[-1].tracer.save_chrome_trace(args.trace_out)
            print(f"\nChrome trace written to {args.trace_out}")
        return 0
    jobs = args.jobs
    cache = None if args.no_cache else ResultCache()
    if args.experiment in ("fig8", "fig9"):
        point = _point_options(args)
        if args.experiment == "fig8":
            table = run_fig8(system=args.system, repeats=args.repeats,
                             ranks=args.ranks, jobs=jobs, cache=cache,
                             **point)
        else:
            dims = tuple(args.dims) if args.dims else None
            if dims is not None and len(dims) != 3:
                raise SystemExit("--dims needs exactly three values: "
                                 "MI,MJ,MK")
            table = run_fig9(system=args.system, nodes=args.nodes,
                             size=args.size, dims=dims,
                             iterations=args.iterations,
                             functional=args.functional,
                             jobs=jobs, cache=cache, **point)
        _write_json(table, args.json)
        if point["telemetry"] is not None:
            point["telemetry"].close()
            print(f"telemetry spans written to {args.telemetry}")
    elif args.experiment == "fig10":
        _write_json(run_fig10(nodes=args.nodes, steps=args.steps,
                              functional=args.functional,
                              jobs=jobs, cache=cache), args.json)
    elif args.experiment == "tune":
        from repro.clmpi.autotune import tune_policy
        from repro.harness.report import Table
        from repro.systems import get_system
        report = tune_policy(get_system(args.system), jobs=jobs,
                             cache=cache)
        table = Table(f"Auto-tuned transfer policy for {report.system}",
                      ["message size", "winner", "block", "MB/s"])
        for nbytes, (mode, blk, bw) in sorted(report.winners.items()):
            table.add(f"{nbytes // 1024} KiB", mode,
                      "-" if blk is None else f"{blk // 1024} KiB",
                      round(bw / 1e6, 1))
        print(table.render())
        print(f"small-message engine: {report.policy.small_mode}; "
              f"pipeline threshold: "
              f"{report.policy.pipeline_threshold / 2**20:.2f} MiB")
        _write_json(table, args.json)
    elif args.experiment == "all":
        run_table1()
        run_fig8(system="cichlid", jobs=jobs, cache=cache, engine="auto")
        run_fig8(system="ricc", jobs=jobs, cache=cache, engine="auto")
        run_fig9(system="cichlid", jobs=jobs, cache=cache, engine="auto")
        run_fig9(system="ricc", jobs=jobs, cache=cache, engine="auto")
        run_fig10(jobs=jobs, cache=cache)
        run_fig4()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

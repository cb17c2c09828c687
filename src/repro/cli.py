"""Command-line interface: drive the reproduction from a terminal.

Subcommands mirror what an NVO user (or the paper's reader) would do::

    python -m repro clusters                 # the portal's pick-list
    python -m repro analyze A3526            # one Figure 5 session
    python -m repro campaign                 # the full §5 run
    python -m repro dressler A2029           # Figure 7, in ASCII
    python -m repro registry                 # Table 1
    python -m repro explain A3526 A3526-0001.txt   # provenance of a file
    python -m repro analyze A3526 --trace run.jsonl --report
    python -m repro telemetry report run.jsonl     # timeline + critical path
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import MAX_WORKERS, SHARD_MAX_WORKERS, SHARDS, SLOTS_PER_JOB
from repro.telemetry.slo import LATENCY_TARGET_S


def _telemetry_begin(args: argparse.Namespace) -> bool:
    """Enable telemetry when any collection flag (or the env var) asks."""
    from repro import telemetry

    wanted = bool(args.trace or args.metrics or args.report or telemetry.env_enabled())
    if wanted:
        telemetry.enable()
    return wanted


def _telemetry_end(args: argparse.Namespace, active: bool) -> None:
    """Export whatever the run collected, then switch telemetry off."""
    if not active:
        return
    from repro import telemetry

    telemetry.disable()
    tracer = telemetry.get_tracer()
    if args.trace:
        tracer.export_jsonl(args.trace)
        print(f"trace: {len(tracer)} span(s) -> {args.trace}")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(telemetry.prometheus_text())
        print(f"metrics -> {args.metrics}")
    if args.report:
        from repro.telemetry.report import render_report, render_resilience_summary

        print()
        print(render_report(tracer.spans()), end="")
        resilience = render_resilience_summary(telemetry.get_registry())
        if resilience:
            print()
            print(resilience, end="")


def _add_telemetry_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="collect a span trace and export it as JSONL",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="export run metrics in Prometheus text format",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the telemetry run report after the command",
    )


def _env(clusters=None):
    from repro.portal.demo import build_demo_environment
    from repro.sky.registry_data import demonstration_cluster

    if clusters:
        return build_demo_environment(clusters=[demonstration_cluster(name) for name in clusters])
    return build_demo_environment()


def cmd_clusters(_: argparse.Namespace) -> int:
    from repro.sky.registry_data import DEMONSTRATION_CLUSTERS

    print(f"{'name':<8s} {'ra':>9s} {'dec':>8s} {'z':>7s} {'members':>8s}")
    for cluster in DEMONSTRATION_CLUSTERS:
        print(
            f"{cluster.name:<8s} {cluster.center.ra:>9.3f} {cluster.center.dec:>8.3f} "
            f"{cluster.redshift:>7.4f} {cluster.n_galaxies:>8d}"
        )
    return 0


def cmd_registry(_: argparse.Namespace) -> int:
    from repro.services.registry import default_registry

    print(f"{'Data Center':<58s} {'Collection':<46s} Interfaces")
    for center, collection, interfaces in default_registry().table_rows():
        print(f"{center:<58s} {collection:<46s} {interfaces}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    traced = _telemetry_begin(args)
    env = _env([args.cluster])
    t0 = time.time()
    session = env.portal.run_analysis(args.cluster)
    elapsed = time.time() - t0
    merged = session.merged
    assert merged is not None
    valid = sum(1 for r in merged if r["valid"])
    print(
        f"{args.cluster}: {len(merged)} galaxies, {valid} valid measurements, "
        f"{session.n_context_images} context images, {elapsed:.1f}s wall"
    )
    if args.table:
        print(f"\n{'id':<14s} {'C':>6s} {'A':>7s} {'mu':>8s} {'valid':>6s}")
        for row in merged:
            c = f"{row['concentration']:.2f}" if row["concentration"] is not None else "-"
            a = f"{row['asymmetry']:.3f}" if row["asymmetry"] is not None else "-"
            mu = f"{row['surface_brightness']:.2f}" if row["surface_brightness"] is not None else "-"
            print(f"{row['id']:<14s} {c:>6s} {a:>7s} {mu:>8s} {str(row['valid']):>6s}")
    _telemetry_end(args, traced)
    return 0


def cmd_campaign(_: argparse.Namespace) -> int:
    from repro.portal.campaign import run_campaign

    env = _env()
    t0 = time.time()
    report = run_campaign(env)
    print(report.totals_table())
    print(f"\nwall time: {time.time() - t0:.1f}s; pools: {', '.join(report.pools_used())}")
    ok = [r.analysis.rediscovered for r in report.records if r.analysis]
    print(f"Dressler relation rediscovered in {sum(ok)}/{len(ok)} clusters")
    if not report.succeeded:
        failed = report.failed_clusters
        print(
            f"\nerror: {len(failed)} cluster(s) did not complete "
            f"({report.failed_nodes} failed node(s), "
            f"{report.unrunnable_nodes} unrunnable):",
            file=sys.stderr,
        )
        print(report.failure_summary(), file=sys.stderr)
        return 1
    return 0


def cmd_dressler(args: argparse.Namespace) -> int:
    from repro.portal.analysis import analyze_morphology_catalog
    from repro.portal.visualize import ascii_overlay

    env = _env([args.cluster])
    session = env.portal.run_analysis(args.cluster)
    analysis = analyze_morphology_catalog(session.merged, session.cluster)
    print(analysis.summary())
    print()
    print(ascii_overlay(session.merged, session.cluster))
    return 0


def cmd_bands(args: argparse.Namespace) -> int:
    """Compare morphology across synthetic filters for one cluster."""
    import numpy as np

    from repro.morphology.pipeline import galmorph
    from repro.sky.cluster import MorphType
    from repro.sky.imaging import CutoutFactory
    from repro.sky.registry_data import demonstration_cluster

    cluster = demonstration_cluster(args.cluster)
    print(f"{args.cluster}: mean asymmetry / concentration by band and class\n")
    print(f"{'band':<5s} {'A(late)':>8s} {'A(early)':>9s} {'C(late)':>8s} {'C(early)':>9s}")
    for band in ("g", "r", "i"):
        factory = CutoutFactory(cluster, band=band)
        late_a, early_a, late_c, early_c = [], [], [], []
        for member in factory.members():
            result = galmorph(
                factory.render_cutout(member.galaxy_id),
                redshift=member.redshift,
                pix_scale=0.4 / 3600.0,
            )
            if not result.valid:
                continue
            late = member.morph in (MorphType.SPIRAL, MorphType.IRREGULAR)
            (late_a if late else early_a).append(result.asymmetry)
            (late_c if late else early_c).append(result.concentration)
        print(
            f"{band:<5s} {np.mean(late_a):>8.3f} {np.mean(early_a):>9.3f} "
            f"{np.mean(late_c):>8.2f} {np.mean(early_c):>9.2f}"
        )
    print("\nstar-forming structure is brighter in the blue: A(g) > A(r) > A(i) for late types")
    return 0


def cmd_dynamics(args: argparse.Namespace) -> int:
    from repro.portal.dynamics import analyze_dynamics

    env = _env([args.cluster])
    session = env.portal.run_analysis(args.cluster)
    state = analyze_dynamics(session.merged, session.cluster, n_shuffles=args.shuffles)
    print(state.summary())
    return 0


def cmd_overlay(args: argparse.Namespace) -> int:
    from repro.portal.overlay import build_overlay, write_overlay

    env = _env([args.cluster])
    session = env.portal.run_analysis(args.cluster)
    product = build_overlay(session.merged, session.cluster)
    paths = write_overlay(product, args.outdir)
    for role, path in paths.items():
        print(f"{role:>8s}: {path}")
    print("load the two FITS layers plus the .reg file in DS9/Aladin for Figure 7")
    return 0


def cmd_telemetry_report(args: argparse.Namespace) -> int:
    """Render the run report from a trace JSONL."""
    from repro.telemetry.report import render_report
    from repro.telemetry.tracing import load_trace_jsonl

    spans = load_trace_jsonl(args.trace_file)
    if args.trace_id:
        spans = [s for s in spans if s.get("trace") == args.trace_id]
        if not spans:
            print(
                f"error: no spans with trace id {args.trace_id!r} in "
                f"{args.trace_file}",
                file=sys.stderr,
            )
            return 1
    print(render_report(spans), end="")
    return 0


def cmd_queue(args: argparse.Namespace) -> int:
    """Render the journal's replayed queue state."""
    import json

    from repro.scheduler import JobJournal, merge_states

    if args.fleet_dir:
        from pathlib import Path

        paths = sorted(Path(args.fleet_dir).glob("journal-*.jsonl"))
        if not paths:
            print(f"error: no journal-*.jsonl under {args.fleet_dir}", file=sys.stderr)
            return 2
        state = merge_states(JobJournal(p).replay() for p in paths)
        args.journal = args.fleet_dir
    else:
        state = JobJournal(args.journal).replay()
    if args.json:
        counts: dict[str, int] = {}
        for record in state.jobs.values():
            counts[record.state.value] = counts.get(record.state.value, 0) + 1
        payload = {
            "journal": str(args.journal),
            "jobs": [record.view() for record in state.jobs.values()],
            "counts": counts,
            "queued": counts.get("queued", 0),
            "running": counts.get("running", 0),
            "drained": counts.get("queued", 0) + counts.get("running", 0) == 0,
            "usage": state.usage,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not state.jobs:
        print(f"queue is empty ({args.journal})")
        return 0
    print(
        f"{'seq':>4s} {'job id':<22s} {'user':<10s} {'cluster':<10s} "
        f"{'prio':>4s} {'shard':<6s} {'state':<10s} {'cache':>5s} error"
    )
    counts: dict[str, int] = {}
    for record in state.jobs.values():
        counts[record.state.value] = counts.get(record.state.value, 0) + 1
        print(
            f"{record.seq:>4d} {record.job_id:<22s} {record.spec.user:<10s} "
            f"{record.spec.cluster:<10s} {record.spec.priority:>4d} "
            f"{record.shard or '-':<6s} "
            f"{record.state.value:<10s} {'yes' if record.cache_hit else '-':>5s} "
            f"{record.error or ''}"
        )
    summary = ", ".join(f"{state_}={n}" for state_, n in sorted(counts.items()))
    print(f"\n{len(state.jobs)} job(s): {summary}")
    if state.usage:
        usage = ", ".join(
            f"{user}={cost:.2f}" for user, cost in sorted(state.usage.items())
        )
        print(f"charged usage (slot-seconds): {usage}")
    return 0


def _serve_until_interrupted(run) -> int:
    """``asyncio.run(run())`` with SIGTERM routed to the Ctrl-C shutdown.

    Supervisors, container runtimes and ``timeout`` send SIGTERM, not
    SIGINT.  Like Ctrl-C it cancels the main task, so ``async with stack``
    unwinds (in-flight responses drain, fleet workers are joined) before
    the process exits 0.  A stack that cannot start — another writer
    holds its journal — is one ``error:`` line and exit 2.
    """
    import asyncio
    import signal

    from repro.core.errors import SchedulerError

    async def main() -> None:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        await run()

    try:
        asyncio.run(main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("\nshutdown complete")
    except SchedulerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_serve_http(args: argparse.Namespace) -> int:
    """Run the asyncio portal serving tier until interrupted."""
    import asyncio

    from repro.serve import build_serving_stack
    from repro.serve.harness import ready_line

    async def _run() -> None:
        stack = build_serving_stack(
            journal_path=args.journal,
            host=args.host,
            port=args.port,
            max_workers=args.max_workers,
            slots_per_job=args.slots_per_job,
            observability=args.observe,
            access_log_path=args.access_log,
            latency_target_s=args.latency_target,
        )
        async with stack:
            # Machine-readable first line: with --port 0 the kernel picks
            # the port, and harnesses parse this instead of guessing.
            print(ready_line(stack), flush=True)
            print(
                f"portal serving tier on {stack.server.url} "
                f"(journal: {args.journal or 'in-memory'}, "
                f"{stack.manager.leases.total_slots} pool slots)"
            )
            endpoints = "/cone /sia /jobs /queue /health /metrics"
            if args.observe:
                endpoints += " /debug/requests /debug/slo /debug/trace/{id}"
                print(f"observability plane enabled; watch with: repro top --url {stack.server.url}")
            print(f"endpoints: {endpoints}")
            await asyncio.Event().wait()  # serve until Ctrl-C / SIGTERM

    return _serve_until_interrupted(_run)


def cmd_serve_fleet(args: argparse.Namespace) -> int:
    """Run the sharded serving tier: HTTP front door + worker fleet."""
    import asyncio

    from repro.serve.harness import build_fleet_serving_stack, ready_line

    async def _run() -> None:
        stack = build_fleet_serving_stack(
            args.data_dir,
            shards=args.shards,
            host=args.host,
            port=args.port,
            max_workers=args.max_workers,
            slots_per_job=args.slots_per_job,
            observability=args.observe,
        )
        async with stack:
            print(ready_line(stack), flush=True)
            print(
                f"sharded portal tier on {stack.server.url} "
                f"({args.shards} shard worker(s), "
                f"state: {args.data_dir})"
            )
            print("endpoints: /cone /sia /jobs /queue /health /metrics")
            await asyncio.Event().wait()  # serve until Ctrl-C / SIGTERM

    return _serve_until_interrupted(_run)


def cmd_shard(args: argparse.Namespace) -> int:
    """Shard topology introspection (``repro shard map``)."""
    import json

    from repro.shard.ring import ConsistentHashRing
    from repro.shard.tiling import DEFAULT_LEVEL, tile_for_cluster, tiles_at_level
    from repro.sky.registry_data import DEMONSTRATION_CLUSTERS

    names = tuple(f"s{i}" for i in range(args.shards))
    ring = ConsistentHashRing(names)
    rows = []
    for cluster in (c.name for c in DEMONSTRATION_CLUSTERS):
        tile = tile_for_cluster(cluster)
        rows.append((cluster, tile.tile_id, ring.node_for(tile.tile_id)))
    tiles = [t.tile_id for t in tiles_at_level()]
    counts: dict[str, int] = {name: 0 for name in names}
    for tile_id in tiles:
        counts[ring.node_for(tile_id)] += 1
    if args.json:
        print(json.dumps({
            "shards": list(names),
            "level": DEFAULT_LEVEL,
            "tiles": len(tiles),
            "tile_counts": counts,
            "skew": ring.skew(tiles),
            "clusters": [
                {"cluster": c, "tile": t, "shard": s} for c, t, s in rows
            ],
        }, indent=2, sort_keys=True))
        return 0
    print(f"{'cluster':<12s} {'tile':<10s} shard")
    for cluster, tile_id, shard in rows:
        print(f"{cluster:<12s} {tile_id:<10s} {shard}")
    spread = ", ".join(f"{name}={counts[name]}" for name in names)
    print(
        f"\n{len(tiles)} tile(s) at level {DEFAULT_LEVEL} over {len(names)} "
        f"shard(s): {spread} (max/mean skew {ring.skew(tiles):.2f})"
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Open-loop load generation against a running serving tier."""
    import asyncio
    import json
    import urllib.parse

    from repro.serve.loadgen import SCENARIOS, demo_cluster_targets, run_scenario

    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    scenarios = []
    for name in names:
        factory = SCENARIOS[name]
        scenarios.append(factory() if args.requests is None else factory(requests=args.requests))
    targets = demo_cluster_targets()
    parsed = urllib.parse.urlsplit(args.url)
    host, port = parsed.hostname or "127.0.0.1", parsed.port or 80

    async def _run() -> list:
        return [await run_scenario(host, port, scenario, targets) for scenario in scenarios]

    reports = asyncio.run(_run())
    for report in reports:
        print(report.summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([r.as_dict() for r in reports], fh, indent=2, sort_keys=True)
        print(f"report -> {args.out}")
    failures = sum(len(r.failures) for r in reports)
    mismatches = sum(len(r.id_mismatches) for r in reports)
    if failures:
        detail = "5xx, transport, or id echo" if mismatches else "5xx or transport"
        print(f"error: {failures} request(s) failed ({detail})", file=sys.stderr)
        return 1
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a serving tier's /debug surface."""
    from repro.serve.top import run_top

    try:
        return run_top(args.url, once=args.once)
    except KeyboardInterrupt:
        return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection campaign + recovery invariant (the chaos harness)."""
    import json

    from repro.faults.chaos import run_chaos_campaign, run_sharded_chaos_campaign

    traced = _telemetry_begin(args)
    try:
        if args.profile == "worker-crash":
            # worker-crash only exists sharded: the fault IS a shard death.
            report = run_sharded_chaos_campaign()
        else:
            report = run_chaos_campaign(profile=args.profile, clusters=args.cluster or None)
    except ValueError as exc:  # unknown profile: list the valid ones
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    _telemetry_end(args, traced)
    if report.recoverable and not report.recovered:
        print("error: recovery invariant violated", file=sys.stderr)
    if not report.recoverable and not report.graceful:
        print("error: degradation was not graceful (wedged jobs)", file=sys.stderr)
    return report.exit_code()


def cmd_explain(args: argparse.Namespace) -> int:
    env = _env([args.cluster])
    env.portal.run_analysis(args.cluster)
    print(env.vds.provenance.lineage_text(args.lfn))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SC'03 NVO Galaxy Morphology reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("clusters", help="list the demonstration clusters").set_defaults(fn=cmd_clusters)
    sub.add_parser("registry", help="print Table 1 (data centers and interfaces)").set_defaults(fn=cmd_registry)

    p = sub.add_parser("analyze", help="run the full portal flow for one cluster")
    p.add_argument("cluster")
    p.add_argument("--table", action="store_true", help="print the per-galaxy results")
    _add_telemetry_options(p)
    p.set_defaults(fn=cmd_analyze)

    sub.add_parser("campaign", help="run the full eight-cluster §5 campaign").set_defaults(fn=cmd_campaign)

    p = sub.add_parser("telemetry", help="trace/metrics tooling")
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    tr = tsub.add_parser("report", help="render a run report from a trace JSONL")
    tr.add_argument("trace_file", help="trace JSONL path")
    tr.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="only report spans of this trace (as returned in X-Trace-Id)",
    )
    tr.set_defaults(fn=cmd_telemetry_report)

    p = sub.add_parser("dressler", help="Figure 7 analysis + ASCII overlay")
    p.add_argument("cluster")
    p.set_defaults(fn=cmd_dressler)

    p = sub.add_parser("bands", help="morphology across the synthetic g/r/i filters")
    p.add_argument("cluster")
    p.set_defaults(fn=cmd_bands)

    p = sub.add_parser("dynamics", help="velocity dispersion + DS substructure test")
    p.add_argument("cluster")
    p.add_argument("--shuffles", type=int, default=300)
    p.set_defaults(fn=cmd_dynamics)

    p = sub.add_parser("overlay", help="write the Figure 7 FITS + region layers")
    p.add_argument("cluster")
    p.add_argument("--outdir", default="overlay-products")
    p.set_defaults(fn=cmd_overlay)

    p = sub.add_parser("queue", help="show the workload manager's queue state")
    p.add_argument("--journal", default="scheduler-journal.jsonl")
    p.add_argument(
        "--fleet-dir", default=None, metavar="DIR",
        help="replay every shard journal (journal-*.jsonl) under a fleet state dir",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable queue state (the load harness polls this)",
    )
    p.set_defaults(fn=cmd_queue)

    p = sub.add_parser(
        "serve-http",
        help="run the asyncio HTTP portal tier (Cone/SIA queries, job submit/status)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    p.add_argument(
        "--journal", default=None,
        help="JSONL journal path, read by repro queue; one writer at a time; "
             "default in-memory",
    )
    p.add_argument("--max-workers", type=int, default=MAX_WORKERS, help="concurrent campaigns")
    p.add_argument("--slots-per-job", type=int, default=SLOTS_PER_JOB, help="pool slots leased per job")
    p.add_argument(
        "--observe", action="store_true",
        help="enable the live observability plane (/debug surface, tracing, SLO burn)",
    )
    p.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="append a JSONL access-log line per request (implies nothing unless --observe)",
    )
    p.add_argument(
        "--latency-target", type=float, default=LATENCY_TARGET_S, metavar="SECONDS",
        help=f"p-latency SLO threshold for the burn tracker (default {LATENCY_TARGET_S}s)",
    )
    p.set_defaults(fn=cmd_serve_http)

    p = sub.add_parser(
        "serve-fleet",
        help="run the sharded serving tier: HTTP front door + per-shard worker processes",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    p.add_argument("--shards", type=int, default=SHARDS, help="worker processes (one journal + RLS partition each)")
    p.add_argument(
        "--data-dir", default="fleet-state",
        help="directory for shard journals and the shared signature store",
    )
    p.add_argument("--max-workers", type=int, default=SHARD_MAX_WORKERS, help="concurrent jobs per shard")
    p.add_argument("--slots-per-job", type=int, default=SLOTS_PER_JOB, help="pool slots leased per job")
    p.add_argument(
        "--observe", action="store_true",
        help="enable the live observability plane (/debug surface, tracing, SLO burn)",
    )
    p.set_defaults(fn=cmd_serve_fleet)

    p = sub.add_parser("shard", help="spatial-sharding topology tools")
    ssub = p.add_subparsers(dest="shard_command", required=True)
    sm = ssub.add_parser("map", help="tile + shard placement for clusters")
    sm.add_argument(
        "--shards", type=int, default=SHARDS, help="ring size to place tiles on"
    )
    sm.add_argument("--json", action="store_true", help="machine-readable map")
    sm.set_defaults(fn=cmd_shard)

    p = sub.add_parser(
        "loadgen",
        help="open-loop load generator: Poisson/herd/slow-client scenarios + SLO report",
    )
    p.add_argument(
        "--scenario", default="all", choices=("steady", "herd", "slow", "all"),
    )
    p.add_argument(
        "--url", required=True,
        help="base URL of the serving tier to load (repro serve-http / serve-fleet)",
    )
    p.add_argument("--requests", type=int, default=None, help="override per-scenario request count")
    p.add_argument("--out", default=None, metavar="PATH", help="write the JSON report here")
    p.set_defaults(fn=cmd_loadgen)

    p = sub.add_parser(
        "top",
        help="live ANSI dashboard over a serving tier's /debug surface",
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="base URL of a tier started with repro serve-http --observe",
    )
    p.add_argument(
        "--once", action="store_true",
        help="render a single frame without clearing the screen, then exit",
    )
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "chaos",
        help="run a fault-injection campaign and assert the recovery invariant",
    )
    p.add_argument(
        "--profile", default="recoverable",
        help=(
            "fault profile (recoverable, degraded-archives, grid-down, "
            "slow-site, worker-crash)"
        ),
    )
    p.add_argument(
        "--cluster", action="append", default=[], metavar="NAME",
        help="cluster to run (repeatable; default: a small two-cluster set; "
             "ignored by worker-crash, which runs its own 20 generated clusters "
             "on a fleet)",
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    _add_telemetry_options(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("explain", help="provenance of a logical file after an analysis")
    p.add_argument("cluster")
    p.add_argument("lfn")
    p.set_defaults(fn=cmd_explain)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

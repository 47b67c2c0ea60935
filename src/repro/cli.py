"""Command-line entry point: ``repro-fbf <command> [options]``.

Every subcommand draws from one shared flag vocabulary (built by the
``_add_*_flags`` helpers, so the spellings cannot drift):

* ``--scale {quick,full}`` — grid size;
* ``--workers`` — the *simulated* SOR worker count, everywhere;
* ``--engine-workers`` — process-pool fan-out: an int, ``0`` for
  in-process serial, or ``auto`` for ``os.cpu_count()``;
* ``--errors`` / ``--seed`` / ``--cache-mbs`` — workload overrides.

Examples::

    repro-fbf fig8 --scale quick
    repro-fbf bench all --scale quick --engine-workers auto
    repro-fbf cluster --scale quick
    repro-fbf obs fig8 --scale full --jsonl obs.jsonl
    repro-fbf trace --code tip --p 7 --errors 100 --out trace.txt
    repro-fbf info --code star --p 5
    repro-fbf serve --synthetic 0 --port 7777 --metrics-port 9100
    repro-fbf advise --port 7777
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .bench import (
    EXPERIMENT_NAMES,
    FULL,
    QUICK,
    Scale,
    ablation_demotion,
    ablation_scheme,
    fig8_hit_ratio,
    fig9_read_ops,
    fig10_response_time,
    fig11_reconstruction_time,
    figure_report,
    table4_overhead,
    table4_report,
    table5_max_improvement,
    table5_report,
)
from .codes.registry import available_codes, make_code
from .obs import emit
from .workloads import ErrorTraceConfig, generate_errors, write_trace

__all__ = ["main", "build_parser"]

EXPERIMENTS = (
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table4",
    "table5",
    "ablation-scheme",
    "ablation-demotion",
)


# -- shared flag vocabulary ----------------------------------------------------

def _add_scale_flag(p: argparse.ArgumentParser, default: str = "full") -> None:
    p.add_argument(
        "--scale", choices=("quick", "full"), default=default,
        help=f"grid size (default: {default})",
    )


def _add_workload_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--errors", type=int, help="override: number of partial stripe errors")
    p.add_argument("--seed", type=int, help="override: workload seed")
    p.add_argument(
        "--workers", type=int, default=None,
        help="override: simulated SOR worker count",
    )
    p.add_argument(
        "--cache-mbs", type=str,
        help="override: comma-separated cache sizes in MB (e.g. 8,16,32)",
    )


def _add_engine_flags(p: argparse.ArgumentParser, default_workers: str = "auto") -> None:
    p.add_argument(
        "--engine-workers", default=None, metavar="N",
        help="process-pool size: an int, 0 = in-process serial, or 'auto' "
             f"= os.cpu_count() (default: {default_workers})",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="persistent result cache directory",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache",
    )
    p.add_argument(
        "--stackdist", choices=("exact", "sampled"), default="exact",
        help="plain-LRU stack-distance profile: exact Fenwick or SHARDS "
             "sampling at --shards-rate (approximate rows, O(sample) "
             "memory; default: exact)",
    )
    p.add_argument(
        "--shards-rate", type=float, default=0.01, metavar="R",
        help="SHARDS spatial sampling rate in (0, 1] for "
             "--stackdist sampled (default: 0.01)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fbf",
        description="Reproduce the FBF (ICPP 2017) evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for exp in EXPERIMENTS:
        p = sub.add_parser(exp, help=f"run the {exp} experiment")
        _add_scale_flag(p, default="full")
        _add_workload_flags(p)

    b = sub.add_parser(
        "bench",
        help="run a named experiment through the parallel sweep engine",
    )
    b.add_argument(
        "experiment",
        choices=(*EXPERIMENT_NAMES, "all"),
        help="which sweep to run ('all' = every experiment)",
    )
    _add_scale_flag(b, default="quick")
    _add_workload_flags(b)
    _add_engine_flags(b, default_workers="auto")
    b.add_argument(
        "--out", default=".",
        help="directory for BENCH_<experiment>.json (default: .)",
    )
    b.add_argument(
        "--check-serial", action="store_true",
        help="also run every cell on the per-point golden path (batch=False: "
             "per-point replay, and the DES for timed cells) and fail if any "
             "simulated column diverges",
    )
    b.add_argument(
        "--show", action="store_true",
        help="print the experiment's figure/table report, not just timings",
    )

    o = sub.add_parser(
        "obs",
        help="run one experiment with observability on and summarize "
             "kernel/engine/bench metrics",
    )
    o.add_argument(
        "experiment", nargs="?", default="fig8", choices=EXPERIMENT_NAMES,
        help="which sweep to observe (default: fig8)",
    )
    _add_scale_flag(o, default="quick")
    _add_workload_flags(o)
    _add_engine_flags(o, default_workers="0")
    o.add_argument(
        "--jsonl", metavar="PATH",
        help="also write the metrics as a JSON-lines artifact",
    )
    o.add_argument(
        "--prometheus", metavar="PATH",
        help="also write the metrics in Prometheus text format",
    )
    o.add_argument(
        "--no-kernel-probe", action="store_true",
        help="skip the small DES probe that feeds kernel-layer metrics "
             "when the grid did not run the event kernel (hit-ratio grids, "
             "and DES grids served by the fork-join replay)",
    )

    t = sub.add_parser("trace", help="generate a partial-stripe-error trace file")
    t.add_argument("--code", default="tip", choices=available_codes())
    t.add_argument("--p", type=int, default=7)
    t.add_argument("--errors", type=int, default=100)
    t.add_argument("--seed", type=int, default=42)
    t.add_argument("--out", default="-", help="output path (default stdout)")

    i = sub.add_parser("info", help="describe a code layout")
    i.add_argument("--code", default="tip", choices=available_codes())
    i.add_argument("--p", type=int, default=5)

    r = sub.add_parser("replay", help="replay a trace file against all policies")
    r.add_argument("trace", help="trace file from the `trace` command")
    r.add_argument("--code", default="tip", choices=available_codes())
    r.add_argument("--p", type=int, default=7)
    r.add_argument("--blocks", type=int, default=64, help="total cache blocks")
    r.add_argument("--workers", type=int, default=8,
                   help="simulated SOR worker count")

    m = sub.add_parser(
        "mttdl", help="reliability impact of a reconstruction-time improvement"
    )
    m.add_argument("--disks", type=int, default=8)
    m.add_argument("--mtbf-hours", type=float, default=1_000_000.0)
    m.add_argument("--baseline-hours", type=float, required=True,
                   help="repair time under the baseline policy")
    m.add_argument("--improved-hours", type=float, required=True,
                   help="repair time under FBF")

    lrc = sub.add_parser("lrc", help="FBF on LRC(k,l,g) — the footnote-3 extension")
    lrc.add_argument("--k", type=int, default=12)
    lrc.add_argument("--l", type=int, default=2)
    lrc.add_argument("--g", type=int, default=2)
    lrc.add_argument("--events", type=int, default=150)
    lrc.add_argument("--seed", type=int, default=17)
    lrc.add_argument("--blocks", type=str, default="8,16,32,64")

    v = sub.add_parser(
        "verify",
        help="payload-verified recovery across every code/p/scheme (correctness grid)",
    )
    v.add_argument("--errors", type=int, default=10)
    v.add_argument("--seed", type=int, default=7)

    cl = sub.add_parser(
        "cluster",
        help="rack-aware recovery scenario: EC decode vs replication, "
             "healthy and with a limplocked node",
    )
    cl.add_argument("--code", default="tip", choices=available_codes())
    cl.add_argument("--p", type=int, default=7)
    _add_scale_flag(cl, default="quick")
    cl.add_argument("--errors", type=int, help="override: number of partial stripe errors")
    cl.add_argument("--seed", type=int, help="override: workload seed")

    rb = sub.add_parser("rebuild", help="whole-disk rebuild read savings (ref [22])")
    rb.add_argument("--code", default="tip", choices=available_codes())
    rb.add_argument("--p", type=int, default=11)
    rb.add_argument("--stripes", type=int, default=20)
    rb.add_argument("--workers", type=int, default=8,
                    help="simulated SOR worker count")

    rep = sub.add_parser("report", help="regenerate every figure/table into a directory")
    rep.add_argument("--out", default="fbf-report", help="output directory")
    _add_scale_flag(rep, default="full")
    _add_workload_flags(rep)
    _add_engine_flags(rep, default_workers="0")

    s = sub.add_parser(
        "serve",
        help="run the always-on cache advisor: ingest an error stream, "
             "answer advise queries, export serve.* metrics",
    )
    s.add_argument("--code", default="tip", choices=available_codes())
    s.add_argument("--p", type=int, default=7)
    s.add_argument(
        "--scheme", choices=("typical", "fbf", "greedy"), default="fbf",
        help="recovery scheme the advisor replays under (default: fbf)",
    )
    s.add_argument(
        "--workers", type=int, default=32,
        help="simulated SOR worker count per evaluation (default: 32)",
    )
    s.add_argument(
        "--policies", type=str, default=None,
        help="comma-separated candidate policies (default: fifo,lru,lfu,arc,fbf)",
    )
    s.add_argument(
        "--cache-mbs", type=str, default=None,
        help="comma-separated candidate cache sizes in MB "
             "(default: 2,4,8,16,32,64)",
    )
    s.add_argument(
        "--window-events", type=int, default=192,
        help="sliding evaluation window, in events (default: 192)",
    )
    s.add_argument(
        "--batch-events", type=int, default=24,
        help="ingest batch size between evaluations (default: 24)",
    )
    s.add_argument(
        "--queue-limit", type=int, default=1024,
        help="bounded ingest queue; overflow is shed and counted "
             "(default: 1024)",
    )
    s.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint file: resumed on start, rewritten periodically "
             "and on drain",
    )
    s.add_argument(
        "--checkpoint-every", type=int, default=8,
        help="batches between checkpoints (0 = only on shutdown; default: 8)",
    )
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument(
        "--port", type=int, default=0,
        help="ingest/query TCP port (0 = ephemeral, printed on start)",
    )
    s.add_argument(
        "--metrics-port", type=int, default=0,
        help="Prometheus /metrics port (0 = ephemeral, printed on start)",
    )
    s.add_argument(
        "--stdin", action="store_true",
        help="also ingest JSON-lines records from stdin, a pipe or a file "
             "(EOF drains and exits)",
    )
    s.add_argument(
        "--synthetic", type=int, default=None, metavar="N",
        help="drive the server with N synthetic load batches (0 = endless)",
    )
    s.add_argument(
        "--synthetic-seed", type=int, default=42,
        help="seed for the synthetic load generator (default: 42)",
    )
    s.add_argument(
        "--synthetic-interval", type=float, default=0.05, metavar="SECS",
        help="pause between synthetic batches (default: 0.05)",
    )

    a = sub.add_parser(
        "advise",
        help="query a running advisor: which policy/capacity should this "
             "array run?",
    )
    a.add_argument("--host", default="127.0.0.1")
    a.add_argument("--port", type=int, required=True,
                   help="the advisor's ingest/query port")
    a.add_argument("--code", default=None, choices=available_codes(),
                   help="array code of the asking deployment (default: "
                        "the server's)")
    a.add_argument("--p", type=int, default=None)
    a.add_argument("--workers", type=int, default=None,
                   help="evaluate at this SOR fan-out instead of the "
                        "server default")
    a.add_argument("--timeout", type=float, default=30.0)

    c = sub.add_parser(
        "check",
        help="run simlint (domain static analysis) over source trees",
    )
    c.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    c.add_argument(
        "--select", type=str, default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    c.add_argument(
        "--list-rules", action="store_true",
        help="describe every rule and exit",
    )
    c.add_argument(
        "--format", dest="fmt", choices=("text", "json", "sarif"),
        default="text", help="diagnostic output format (default: text)",
    )
    c.add_argument(
        "--jobs", "-j", type=int, default=0,
        help="parallel analysis processes (0 = auto)",
    )
    c.add_argument(
        "--no-cache", action="store_true",
        help="disable the per-file analysis cache",
    )
    c.add_argument(
        "--cache-dir", default=None,
        help="directory for the analysis cache (default: ./.simlint_cache.json)",
    )
    c.add_argument(
        "--baseline", default=None,
        help="baseline file of accepted findings (default: the committed one)",
    )
    c.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, including baselined ones",
    )
    c.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings and re-check",
    )
    c.add_argument(
        "--update-api-manifest", action="store_true",
        help="rewrite the repro.api surface manifest (API001) and re-check",
    )
    return parser


# -- flag resolution -----------------------------------------------------------

def _resolve_scale(args: argparse.Namespace) -> tuple[str, Scale]:
    """(scale name, Scale with workload overrides applied)."""
    name = args.scale
    scale = QUICK if name == "quick" else FULL
    overrides: dict = {}
    if args.errors is not None:
        overrides["n_errors"] = args.errors
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if args.cache_mbs:
        overrides["cache_mbs"] = tuple(
            float(x) for x in args.cache_mbs.split(",") if x.strip()
        )
    return name, replace(scale, **overrides) if overrides else scale


def _engine_config(
    args: argparse.Namespace,
    default_workers: int | str = "auto",
    default_cache: bool = False,
):
    """Build the EngineConfig shared by bench/report/obs from their flags."""
    from .bench import EngineConfig, default_cache_dir

    workers: int | str | None = args.engine_workers
    if workers is None:
        workers = default_workers
    if workers != "auto":
        workers = int(workers)
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir:
        cache_dir = args.cache_dir
    else:
        cache_dir = default_cache_dir() if default_cache else None
    return EngineConfig(
        workers=workers,
        cache_dir=cache_dir,
        stackdist=getattr(args, "stackdist", "exact"),
        shards_rate=getattr(args, "shards_rate", 0.01),
    )


_BENCH_METRICS = {
    "fig8": ("hit_ratio", "Figure 8: cache hit ratio", ".4f"),
    "fig9": ("disk_reads", "Figure 9: disk reads (TIP)", "d"),
    "fig10": ("avg_response_time", "Figure 10: average response time (s)", ".5f"),
    "fig11": ("reconstruction_time", "Figure 11: reconstruction time (s, TIP)", ".3f"),
    "ablation-scheme": ("hit_ratio", "Ablation: recovery scheme (hit ratio)", ".4f"),
    "ablation-demotion": ("hit_ratio", "Ablation: demotion on hit (hit ratio)", ".4f"),
}


def _run_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .api.v2.bench import GridRequest, run_grid
    from .bench import (
        EngineConfig,
        bench_summary,
        experiment_grid,
        rows_equivalent,
        write_bench_json,
    )

    scale_name, scale = _resolve_scale(args)
    engine = _engine_config(args, default_workers="auto", default_cache=True)
    names = list(EXPERIMENT_NAMES) if args.experiment == "all" else [args.experiment]

    divergent: list[str] = []
    for name in names:
        grid = experiment_grid(name, scale)
        result = run_grid(GridRequest(points=tuple(grid), engine=engine))
        extra: dict[str, object] = {}
        if args.check_serial:
            serial = run_grid(
                GridRequest(
                    points=tuple(grid),
                    engine=EngineConfig(workers=0, cache_dir=None, batch=False),
                )
            )
            # Simulated metrics must match bit for bit; the measured
            # overhead columns legitimately vary (see DESIGN §9).
            identical = rows_equivalent(serial.points, result.points)
            extra["serial_identical"] = identical
            extra["serial_wall_s"] = serial.wall_s
            if not identical:
                divergent.append(name)
        emit(bench_summary(name, scale_name, result))
        if args.check_serial:
            status = "DIVERGED" if name in divergent else "identical"
            emit(f"{'serial check':>14} {status} "
                 f"(serial wall {extra['serial_wall_s']:.2f} s)")
        if args.show and name in _BENCH_METRICS:
            metric, title, spec = _BENCH_METRICS[name]
            emit()
            emit(figure_report(result.points, metric, title, spec))
        elif args.show and name == "table4":
            emit()
            emit(table4_report(result.points))
        elif args.show and name == "cluster":
            from .bench import cluster_report

            emit()
            emit(cluster_report(result.points))
        path = write_bench_json(
            Path(args.out) / f"BENCH_{name.replace('-', '_')}.json",
            name,
            scale_name,
            result,
            extra,
        )
        emit(f"{'bench json':>14} {path}")
        emit()
    if divergent:
        emit(f"parallel/serial outputs DIVERGED for: {', '.join(divergent)}")
        return 1
    return 0


def _run_cluster(args: argparse.Namespace) -> int:
    """The rack-aware scenario with the full per-run detail (DESIGN §15).

    The ``cluster`` bench grid reports the SweepPoint columns; this
    subcommand additionally surfaces the measured bottleneck link, its
    utilization, and the nodes the fail-slow detector flags.
    """
    from .sim.cluster import ClusterSpec, run_cluster_recovery

    scale = QUICK if args.scale == "quick" else FULL
    n_errors = args.errors if args.errors is not None else scale.n_errors
    seed = args.seed if args.seed is not None else scale.seed
    emit(f"cross-rack recovery on a 3x3 rack cluster, 1 MB chunks "
         f"({args.code} p={args.p}, {n_errors} errors, seed {seed})")
    head = (f"{'state':>8} {'mode':>5} {'policy':>7} {'hit':>8} "
            f"{'xrack(MB)':>10} {'recover(s)':>11} {'p99(s)':>8} "
            f"{'bottleneck':>13} {'util':>5}  suspects")
    emit(head)
    emit("-" * len(head))
    for limplock in (False, True):
        for redundancy, policy in (
            ("ec", "fbf"), ("ec", "lru"), ("ec", "arc"), ("rep", "rep")
        ):
            spec = ClusterSpec(
                redundancy=redundancy,
                code=args.code,
                p=args.p,
                policy=policy if redundancy == "ec" else "fbf",
                n_errors=n_errors,
                seed=seed,
                workers=min(scale.workers, 8),
                limplock=limplock,
            )
            rep = run_cluster_recovery(spec)
            state = "limplock" if limplock else "healthy"
            suspects = ",".join(str(n) for n in rep.limplock_suspects) or "-"
            emit(f"{state:>8} {rep.redundancy:>5} {rep.policy:>7} "
                 f"{rep.hit_ratio:>8.4f} {rep.cross_rack_mb:>10.1f} "
                 f"{rep.recovery_time:>11.3f} {rep.p99_response_time:>8.4f} "
                 f"{rep.bottleneck:>13} {rep.bottleneck_utilization:>5.2f}  "
                 f"{suspects}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The always-on advisor service (DESIGN §17)."""
    import asyncio

    from .serve import AdvisorServer, ServeConfig, SyntheticSource
    from .serve.server import StdinUnreadable

    kwargs: dict = dict(
        code=args.code,
        p=args.p,
        scheme_mode=args.scheme,
        workers=args.workers,
        window_events=args.window_events,
        batch_events=args.batch_events,
        queue_limit=args.queue_limit,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
    )
    if args.policies:
        kwargs["policies"] = tuple(
            x.strip() for x in args.policies.split(",") if x.strip()
        )
    if args.cache_mbs:
        kwargs["cache_mbs"] = tuple(
            float(x) for x in args.cache_mbs.split(",") if x.strip()
        )
    try:
        config = ServeConfig(**kwargs)
    except ValueError as exc:
        emit(f"invalid serve configuration: {exc}", stream=sys.stderr)
        return 2

    async def run() -> None:
        server = AdvisorServer(
            config,
            host=args.host,
            port=args.port,
            metrics_port=args.metrics_port,
            read_stdin=args.stdin,
        )
        await server.start()
        emit(
            f"advisor for {config.code} p={config.p} serving on "
            f"{args.host}:{server.port} "
            f"(metrics http://{args.host}:{server.metrics_port}/metrics)"
            + (" [resumed from checkpoint]" if server.resumed else "")
        )
        feeder = None
        if args.synthetic is not None:
            source = SyntheticSource(
                config.code,
                config.p,
                seed=args.synthetic_seed,
                chunk=config.batch_events,
            )

            async def feed() -> None:
                n = args.synthetic if args.synthetic > 0 else None
                for batch in source.batches(n):
                    if server._stop.is_set():
                        return
                    server.feed(batch)
                    await asyncio.sleep(args.synthetic_interval)

            feeder = asyncio.ensure_future(feed())
        try:
            await server.serve_forever()
        finally:
            if feeder is not None:
                feeder.cancel()
        emit(f"drained; final stats: {server.stats()}")

    try:
        asyncio.run(run())
    except StdinUnreadable as exc:
        emit(f"serve --stdin: {exc}", stream=sys.stderr)
        return 2
    return 0


def _run_advise(args: argparse.Namespace) -> int:
    """One ``advise`` round trip against a running advisor."""
    import asyncio
    import json

    async def query() -> dict:
        reader, writer = await asyncio.open_connection(args.host, args.port)
        request: dict = {"op": "advise"}
        if args.code is not None:
            request["code"] = args.code
        if args.p is not None:
            request["p"] = args.p
        if args.workers is not None:
            request["workers"] = args.workers
        writer.write(json.dumps(request).encode("utf-8") + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), args.timeout)
        writer.close()
        await writer.wait_closed()
        return json.loads(line)

    try:
        answer = asyncio.run(query())
    except (OSError, asyncio.TimeoutError) as exc:
        emit(f"advise failed: cannot reach {args.host}:{args.port} ({exc})",
             stream=sys.stderr)
        return 1
    if not answer.get("ok"):
        emit(f"advise refused: {answer.get('error')}", stream=sys.stderr)
        return 1
    advice = answer["advice"]
    emit(json.dumps(advice, indent=2, sort_keys=True))
    emit(
        f"run {advice['policy']} at {advice['cache_mb']:g} MB "
        f"({advice['capacity_blocks']} blocks): hit ratio "
        f"{advice['hit_ratio']:.4f} over the last "
        f"{advice['window_events']} events "
        f"(confidence {advice['confidence']:.2f})",
        stream=sys.stderr,
    )
    return 0


def _kernel_probe(scale: Scale) -> None:
    """A small DES run so kernel-layer metrics are populated.

    The hit-ratio grids never enter the event kernel, and the fork-join
    replay serves the batched DES grids without it; ``repro-fbf obs``
    runs this probe (unless ``--no-kernel-probe``) when a grid left no
    ``kernel.runs``, so the summary's kernel section reflects a real
    dispatch loop rather than ``(no data)``.  The probe is tiny and
    fixed-shape; only the workload seed follows the selected scale.
    """
    from .engine import make_backend
    from .engine.timed import run_timed_replay
    from .sim import SimConfig

    backend = make_backend("tip", 7)
    events = backend.generate_events(8, scale.seed)
    run_timed_replay(backend, events, SimConfig(workers=4))


def _run_obs(args: argparse.Namespace) -> int:
    from . import obs
    from .bench import bench_summary, experiment_grid, run_grid

    scale_name, scale = _resolve_scale(args)
    engine = _engine_config(args, default_workers=0, default_cache=False)
    if engine.resolved_workers() > 0:
        emit(
            "note: obs state is process-local; pooled workers only feed "
            "the bench layer. Use --engine-workers 0 for full coverage."
        )
    grid = experiment_grid(args.experiment, scale)
    registry = obs.enable(fresh=True)
    result = run_grid(grid, engine)
    if not args.no_kernel_probe and "kernel.runs" not in registry.snapshot()["counters"]:
        _kernel_probe(scale)
    obs.disable()
    emit(bench_summary(args.experiment, scale_name, result))
    emit()
    emit(obs.render_summary(registry.snapshot()))
    if args.jsonl:
        emit(f"wrote {obs.write_jsonl(registry, args.jsonl)}")
    if args.prometheus:
        emit(f"wrote {obs.write_prometheus(registry, args.prometheus)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command

    if cmd == "info":
        layout = make_code(args.code, args.p)
        emit(layout.description or layout.name)
        emit(
            f"{layout.num_disks} disks, {layout.rows} rows, "
            f"{len(layout.data_cells)} data cells, "
            f"{len(layout.parity_cells)} parity cells, "
            f"{len(layout.chains)} chains"
        )
        emit(layout.ascii_grid())
        return 0

    if cmd == "check":
        from .checks import run_check

        select = None
        if args.select:
            select = [part.strip() for part in args.select.split(",") if part.strip()]
        return run_check(
            args.paths,
            select=select,
            list_rules=args.list_rules,
            fmt=args.fmt,
            jobs=args.jobs,
            no_cache=args.no_cache,
            cache_dir=args.cache_dir,
            baseline=args.baseline,
            no_baseline=args.no_baseline,
            update_baseline=args.update_baseline,
            update_api_manifest=args.update_api_manifest,
        )

    if cmd == "bench":
        return _run_bench(args)

    if cmd == "serve":
        return _run_serve(args)

    if cmd == "advise":
        return _run_advise(args)

    if cmd == "obs":
        return _run_obs(args)

    if cmd == "cluster":
        return _run_cluster(args)

    if cmd == "verify":
        from .sim import SimConfig, run_reconstruction

        failures = 0
        emit(f"{'code':>12} {'p':>3} {'scheme':>8} {'chunks':>7} {'mismatch':>9}")
        for code in available_codes():
            for p in (5, 7):
                layout = make_code(code, p)
                errs = generate_errors(
                    layout, ErrorTraceConfig(n_errors=args.errors, seed=args.seed)
                )
                for scheme in ("typical", "fbf", "greedy"):
                    rep = run_reconstruction(
                        layout, errs,
                        SimConfig(workers=4, verify_payloads=True,
                                  scheme_mode=scheme),
                    )
                    ok = rep.payload_mismatches == 0
                    failures += not ok
                    emit(f"{layout.name:>12} {p:>3} {scheme:>8} "
                         f"{rep.payload_chunks_verified:>7d} "
                         f"{rep.payload_mismatches:>9d}")
        emit("\nall recoveries bit-exact ✓" if failures == 0
             else f"\n{failures} configurations FAILED verification")
        return 0 if failures == 0 else 1

    if cmd == "rebuild":
        from .sim import SimConfig, rebuild_read_savings, run_disk_rebuild

        layout = make_code(args.code, args.p)
        emit(f"{layout.name} p={args.p}: per-stripe unique reads to rebuild each disk")
        emit(f"{'disk':>5} {'typical':>8} {'greedy':>8} {'saved':>7}")
        for disk in range(layout.num_disks):
            s = rebuild_read_savings(layout, disk, "greedy")
            emit(f"{disk:>5} {s.typical_unique_reads:>8} "
                 f"{s.scheme_unique_reads:>8} {s.read_reduction:>7.1%}")
        emit(f"\ntimed rebuild of disk 0 ({args.stripes} stripes, "
             f"{args.workers} workers, FBF cache):")
        for scheme in ("typical", "greedy"):
            rep = run_disk_rebuild(
                layout, 0, args.stripes,
                SimConfig(workers=args.workers, scheme_mode=scheme),
            )
            emit(f"  {scheme:8s} reads={rep.disk_reads:6d} "
                 f"time={rep.reconstruction_time:.3f}s")
        return 0

    if cmd == "report":
        from .bench import write_full_report

        _, scale = _resolve_scale(args)
        engine = _engine_config(args, default_workers=0, default_cache=False)
        paths = write_full_report(scale, args.out, engine)
        emit(f"wrote {len(paths)} reports to {args.out}/")
        for path in paths:
            emit(f"  {path.name}")
        return 0

    if cmd == "replay":
        from .cache.registry import available_policies
        from .engine import PlanCache, make_backend, simulate_trace
        from .workloads import read_trace

        backend = make_backend(args.code, args.p)
        errors = read_trace(args.trace)
        plans = PlanCache(backend)
        emit(f"{len(errors)} errors from {args.trace}; {backend.code_label} "
             f"p={args.p}, {args.blocks} blocks over {args.workers} workers")
        emit(f"{'policy':>8} {'hit ratio':>10} {'disk reads':>11}")
        for policy in sorted(available_policies()):
            res = simulate_trace(
                backend, errors, policy=policy,
                capacity_blocks=args.blocks, workers=args.workers,
                plan_cache=plans,
            )
            emit(f"{policy:>8} {res.hit_ratio:>10.4f} {res.disk_reads:>11d}")
        return 0

    if cmd == "mttdl":
        from .analysis import wov_improvement

        cmp = wov_improvement(
            args.disks, args.mtbf_hours, args.baseline_hours, args.improved_hours
        )
        emit(f"window of vulnerability: {args.baseline_hours:.3f}h -> "
             f"{args.improved_hours:.3f}h ({cmp.wov_reduction_percent:.1f}% smaller)")
        emit(f"MTTDL: {cmp.baseline_mttdl_hours:.3e}h -> "
             f"{cmp.improved_mttdl_hours:.3e}h "
             f"({cmp.mttdl_gain_factor:.2f}x)")
        return 0

    if cmd == "lrc":
        from .engine import PlanCache, make_backend, simulate_trace

        backend = make_backend(f"lrc({args.k},{args.l},{args.g})")
        events = backend.generate_events(args.events, args.seed)
        plans = PlanCache(backend)
        blocks_list = [int(x) for x in args.blocks.split(",") if x.strip()]
        policies = ("fifo", "lru", "lfu", "arc", "fbf")
        emit(f"{backend.code_label}: {len(events)} failure batches, 4 workers")
        emit(f"{'blocks':>7} " + " ".join(f"{p:>8}" for p in policies))
        for blocks in blocks_list:
            row = [f"{blocks:>7}"]
            for policy in policies:
                res = simulate_trace(
                    backend, events, policy=policy, capacity_blocks=blocks,
                    workers=4, plan_cache=plans,
                )
                row.append(f"{res.hit_ratio:>8.4f}")
            emit(" ".join(row))
        return 0

    if cmd == "trace":
        layout = make_code(args.code, args.p)
        errors = generate_errors(
            layout, ErrorTraceConfig(n_errors=args.errors, seed=args.seed)
        )
        meta = {"code": args.code, "p": str(args.p), "seed": str(args.seed)}
        if args.out == "-":
            write_trace(sys.stdout, errors, metadata=meta)
        else:
            write_trace(args.out, errors, metadata=meta)
            emit(f"wrote {len(errors)} errors to {args.out}")
        return 0

    _, scale = _resolve_scale(args)
    if cmd == "fig8":
        emit(figure_report(fig8_hit_ratio(scale), "hit_ratio",
                           "Figure 8: cache hit ratio during reconstruction"))
    elif cmd == "fig9":
        emit(figure_report(fig9_read_ops(scale), "disk_reads",
                           "Figure 9: disk reads during reconstruction (TIP)", "d"))
    elif cmd == "fig10":
        emit(figure_report(fig10_response_time(scale), "avg_response_time",
                           "Figure 10: average response time (s)", ".5f"))
    elif cmd == "fig11":
        emit(figure_report(fig11_reconstruction_time(scale), "reconstruction_time",
                           "Figure 11: reconstruction time (s, TIP)", ".3f"))
    elif cmd == "table4":
        emit(table4_report(table4_overhead(scale)))
    elif cmd == "table5":
        emit(table5_report(table5_max_improvement(scale)))
    elif cmd == "ablation-scheme":
        emit(figure_report(ablation_scheme(scale), "hit_ratio",
                           "Ablation: recovery scheme selection (hit ratio)"))
    elif cmd == "ablation-demotion":
        emit(figure_report(ablation_demotion(scale), "hit_ratio",
                           "Ablation: demote-on-hit vs sticky (hit ratio)"))
    else:  # pragma: no cover - argparse guards this
        raise SystemExit(f"unknown command {cmd}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

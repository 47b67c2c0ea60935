"""The two sweep workloads: ``replay-grid`` (Fig. 8) and ``timed-grid`` (Fig. 10).

Each timed pass runs in a fresh process, as a user's ``repro-fbf bench``
invocation would: cold memos, no result cache, the default in-process
``EngineConfig``.  The parent only spawns, waits and compares.

Run as a script this module is that child process::

    python perfbench/grids.py measure replay-grid 3 out.json

Modes: ``setup`` stops just before the first ``run_grid`` call,
``measure`` runs the grid, ``trace`` runs it under the layer wrappers of
:mod:`tracer`, and ``reference`` computes the golden rows through the
per-point path (``batch=False``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, hostspeed, settings  # noqa: E402

WORKLOADS = ("replay-grid", "timed-grid")


# -- the grids (child side) -----------------------------------------------------

def grid_points(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's cells in canonical order.

    Each (code, p) group replays its own failure trace, seeded with
    ``seed * 1000 + group index``.  Independent traces make the grid's
    total work vary far less from seed to seed than one trace shared by
    every group would (about 4% against 11% between quartiles over ten
    seeds of the timed grid), so the timings compare across seeds.
    """
    from dataclasses import replace

    from repro.api.v2.bench import FULL, QUICK, Scale, experiment_grid

    if workload == "replay-grid":
        scale = FULL
        if smoke:
            scale = Scale(n_errors=40, workers=16, cache_mbs=(2, 8), codes=("tip",),
                          ps_main=(7,))
        points = experiment_grid("fig8", scale)
    elif workload == "timed-grid":
        scale = QUICK
        if smoke:
            scale = Scale(n_errors=8, workers=8, cache_mbs=(4, 16), codes=("tip",),
                          ps_main=(7,), policies=("lru", "fbf"))
        points = experiment_grid("fig10", scale) + experiment_grid("cluster", scale)
    else:
        raise ValueError(f"unknown grid workload {workload!r}")
    index: dict[str, int] = {}
    for point in points:
        index.setdefault(group_key(point), len(index))
    return [replace(p, seed=seed * 1000 + index[group_key(p)]) for p in points]


def group_key(point) -> str:
    """Cells sharing a failure trace: one (code, p) group per experiment."""
    prefix = "cluster-" if point.kind == "cluster" else ""
    return f"{prefix}{point.code}-{point.p}"


def _row_record(row) -> list:
    return list(row.simulated_key())


def _child(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one grid process of the benchmark")
    parser.add_argument("mode", choices=("setup", "measure", "trace", "reference"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--groups", default=None,
                        help="comma-separated code-p group keys to keep")
    parser.add_argument("--engine-workers", type=int, default=0)
    args = parser.parse_args(argv)
    common.require_program()

    from repro.api.v2 import bench

    points = grid_points(args.workload, args.seed, args.smoke)
    if args.groups:
        keep = set(args.groups.split(","))
        points = [p for p in points if group_key(p) in keep]
    engine = bench.EngineConfig(
        workers=args.engine_workers, batch=args.mode != "reference"
    )
    request = bench.GridRequest(points=tuple(points), engine=engine)
    tracer = None
    if args.mode == "trace":
        from perfbench import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready_at = time.time()
    out: dict = {"ready_at": ready_at}
    # Set-up and timed passes sample the host's speed; a traced pass is
    # not rescaled, and the golden path is not timed.
    probe = hostspeed.Probe() if args.mode in ("setup", "measure") else None
    progress = None
    if probe is not None:
        last = time.perf_counter()

        def progress(done: int, total: int) -> None:
            nonlocal last
            if time.perf_counter() - last >= settings.PROBE_EVERY_S:
                probe.sample(settings.PROBE_S)
                last = time.perf_counter()

    if args.mode == "setup":
        for _ in range(settings.SETUP_PROBES):
            probe.sample(settings.PROBE_S)
    else:
        if tracer is not None:
            tracer.enter("(root)")
        t0 = time.perf_counter()
        c0 = time.process_time()
        result = bench.run_grid(request, on_progress=progress)
        out["cpu_s"] = time.process_time() - c0
        out["wall_s"] = time.perf_counter() - t0
        if probe is not None:
            out["wall_s"] -= probe.seconds
            if not probe.units:  # a pass shorter than the sampling interval
                probe.sample(settings.PROBE_S)
        if tracer is not None:
            tracer.exit()
            out["trace"] = tracer.dump()
        out["rows"] = [_row_record(row) for row in result.points]
        out["groups"] = [group_key(p) for p in points]
        out["n_errors"] = [p.n_errors for p in points]
        out["cell_s"] = [t.seconds for t in result.timings]
        out["peak_rss_mb"] = common.peak_rss_mb()
    if probe is not None:
        out["slowdown"] = probe.slowdown()
        out["probe_samples"] = len(probe.units)
    common.write_json(Path(args.out), out)
    return 0


# -- references ------------------------------------------------------------------

def digest(rows: list) -> str:
    """Short SHA-256 of a group's simulated columns, in cell order."""
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def by_group(out: dict) -> dict[str, list]:
    """A process's rows, grouped by (code, p) in cell order."""
    groups: dict[str, list] = {}
    for key, row in zip(out["groups"], out["rows"]):
        groups.setdefault(key, []).append(row)
    return groups


def group_digests(out: dict) -> dict:
    return {key: digest(rows) for key, rows in by_group(out).items()}


def reference_path(workload: str, smoke: bool = False) -> Path:
    """Committed digests; there are none for the smoke-sized grids."""
    name = f"{workload}-smoke" if smoke else workload
    return common.BENCH_DIR / "reference" / f"{name}.json"


def load_reference(path: Path) -> dict:
    """``{seed: {group: digest}}`` from a committed reference file."""
    if not path.is_file():
        return {}
    return {int(k): v for k, v in common.read_json(path)["seeds"].items()}


class Golden:
    """Golden rows, recomputed through the per-point path on demand."""

    def __init__(self, workload: str, seed: int, smoke: bool, timeout: float):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.timeout = timeout
        self.rows: dict[str, list] | None = None
        self.seconds = 0.0

    def group(self, key: str) -> list | None:
        if self.rows is None:
            t0 = time.perf_counter()
            out = spawn_child("reference", self.workload, self.seed, self.smoke,
                              self.timeout, engine_workers=2)
            self.seconds = time.perf_counter() - t0
            self.rows = by_group(out) if out is not None else {}
        return self.rows.get(key)


def count_failures(out: dict, points, reference: dict | None, golden: Golden) -> int:
    """Cells of ``points`` whose simulated columns differ from the reference.

    The expected cells come from the parent's own ``points``, so a cell
    the pass never returned fails.  A group whose digest matches the
    committed reference passes whole.  Otherwise every cell is compared
    with the golden rows; if they all agree, the committed digest itself
    disagrees, and the whole group counts as failed because nothing
    vouches for it.
    """
    returned = by_group(out)
    failed = 0
    for key, size in Counter(group_key(p) for p in points).items():
        rows = returned.get(key, [])
        if len(rows) != size:
            failed += size
            continue
        expected = None if reference is None else reference.get(key)
        if expected is not None and digest(rows) == expected:
            continue
        gold = golden.group(key)
        if gold is None or len(gold) != len(rows):
            failed += len(rows)
            continue
        bad = sum(1 for a, b in zip(rows, gold) if a != b)
        if bad == 0 and expected is not None:
            bad = len(rows)
        failed += bad
    return failed


# -- the parent side --------------------------------------------------------------

def spawn_child(mode: str, workload: str, seed: int, smoke: bool, timeout: float,
                groups=None, engine_workers: int = 0):
    """Run one child; returns its output (None if it failed)."""
    path = common.OUT_DIR / "tmp" / f"{workload}-{seed}-{mode}-{time.time_ns()}.json"
    argv = [sys.executable, str(Path(__file__).resolve()), mode, workload, str(seed),
            str(path)]
    if smoke:
        argv.append("--smoke")
    if groups:
        argv += ["--groups", ",".join(groups)]
    if engine_workers:
        argv += ["--engine-workers", str(engine_workers)]
    spawned_at = time.time()
    proc = common.start(argv)
    code = common.reap(proc, timeout)
    if code != 0 or not path.is_file():
        common.log(f"{workload}: {mode} process exited with {code}")
        return None
    out = common.read_json(path)
    path.unlink()
    out["setup_s"] = out["ready_at"] - spawned_at
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one grid workload; returns the result document."""
    timeout = 170.0
    reference = load_reference(reference_path(workload, smoke)).get(seed)
    golden = Golden(workload, seed, smoke, timeout)
    points = grid_points(workload, seed, smoke)
    if trace:
        return _run_traced(workload, seed, smoke, points, reference, golden, timeout)

    passes = []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        # Another pass only if it should end within --seconds: the median
        # of several passes is steadier than one pass on a host whose
        # speed drifts, and a pass longer than the budget still runs once.
        elapsed = time.perf_counter() - t_start
        if passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        out = spawn_child("measure", workload, seed, smoke, timeout)
        attempted += len(points)
        if out is None:  # a pass that crashed fails all its cells, and would again
            failed += len(points)
            break
        passes.append(out)
    setups = list(passes)
    while passes and len(setups) < settings.SETUP_SAMPLES:
        out = spawn_child("setup", workload, seed, smoke, timeout)
        if out is None:
            break
        setups.append(out)
    for out in passes:
        failed += count_failures(out, points, reference, golden)
    if not passes:
        return {"attempted": attempted, "failed": failed, "metrics": {}, "passes": []}

    raw = _timings(passes, setups, lambda out: 1.0)
    metrics = _timings(passes, setups, lambda out: out["slowdown"])
    metrics["peak_rss_mb"] = statistics.median(out["peak_rss_mb"] for out in passes)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw_metrics": raw,
        "passes": [
            {k: out[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "slowdown",
                                 "probe_samples")}
            for out in passes
        ],
        "setup_samples": [(out["setup_s"], out["slowdown"]) for out in setups],
        "cell_samples": sum(len(out["cell_s"]) for out in passes),
        "golden_recompute_s": golden.seconds,
        "reference_shipped": reference is not None,
    }


def _timings(passes: list, setups: list, slowdown) -> dict:
    """The timing metrics, each time divided by its process's ``slowdown``.

    The cell-time percentiles are medians over the passes of each pass's
    percentile.  A batched group's cells share one time, so a pass's p95
    is the time of its slowest group or two, which a host hiccup moves;
    the median over passes leaves out a pass that met one.
    """
    def cell_ms(out: dict, q: float) -> float:
        return common.percentile([s * 1000.0 / slowdown(out) for s in out["cell_s"]], q)

    return {
        "cells_per_s": statistics.median(
            len(out["rows"]) * slowdown(out) / out["wall_s"] for out in passes),
        "latency_p50_ms": statistics.median(cell_ms(out, 0.50) for out in passes),
        "latency_p95_ms": statistics.median(cell_ms(out, 0.95) for out in passes),
        "events_per_s": statistics.median(
            sum(out["n_errors"]) * slowdown(out) / out["wall_s"] for out in passes),
        "setup_s": statistics.median(out["setup_s"] / slowdown(out) for out in setups),
    }


def _run_traced(workload, seed, smoke, points, reference, golden, timeout) -> dict:
    keys = {group_key(p) for p in points}
    baseline_groups = [f"{c}-{p}" for c, p in settings.OVERHEAD_GROUPS
                       if f"{c}-{p}" in keys] or [group_key(points[0])]
    chosen = set(baseline_groups)
    base_points = [p for p in points if group_key(p) in chosen]
    base = spawn_child("measure", workload, seed, smoke, timeout, groups=baseline_groups)
    traced = spawn_child("trace", workload, seed, smoke, timeout)
    attempted = len(points) + len(base_points)
    if base is None or traced is None:
        return {"attempted": attempted, "failed": attempted, "metrics": {}}
    failed = count_failures(traced, points, reference, golden)
    failed += count_failures(base, base_points, reference, golden)
    # The traced rows must equal the untraced ones, cell for cell.
    traced_rows = by_group(traced)
    for key, rows in by_group(base).items():
        if traced_rows.get(key) != rows:
            failed += len(rows)
    traced_s = sum(s for g, s in zip(traced["groups"], traced["cell_s"]) if g in chosen)
    base_s = sum(base["cell_s"])
    from perfbench import layers

    metrics = layers.grid_metrics(traced["trace"])
    metrics["trace.overhead_ratio"] = traced_s / base_s if base_s > 0 else 0.0
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "trace": traced["trace"],
        "traced_wall_s": traced["wall_s"],
        "baseline_groups": baseline_groups,
        "reference_shipped": reference is not None,
    }


if __name__ == "__main__":
    sys.exit(_child())

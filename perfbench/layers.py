"""Metric catalogue: every metric the benchmark prints, with unit and direction.

``END_TO_END`` is printed by an untraced run (``--trace 0``) and
``PER_LAYER`` by a traced one (``--trace 1``), for every workload; a
layer a workload does not exercise reads 0.  ``BENCHMARK.json`` at the
repository root lists the same names, units and directions.
"""

from __future__ import annotations

#: (name, unit, better, bound)
END_TO_END = (
    ("cells_per_s", "cells/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("events_per_s", "events/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better)
PER_LAYER = (
    ("bench.engine.self_s", "s", "lower"),
    ("bench.engine.tasks", "count", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("workloads.events", "count", "lower"),
    ("codes.plan_build_s", "s", "lower"),
    ("codes.plans_built", "count", "lower"),
    ("engine.plan_cache.hit_ratio", "ratio", "higher"),
    ("engine.stream.intern_s", "s", "lower"),
    ("engine.stream.requests", "count", "lower"),
    ("engine.grid_pass.self_s", "s", "lower"),
    ("engine.grid_pass.cells", "count", "lower"),
    ("engine.stackdist.self_s", "s", "lower"),
    ("cache.self_s", "s", "lower"),
    ("cache.requests", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("engine.timed.self_s", "s", "lower"),
    ("engine.timed.calls", "count", "lower"),
    ("sim.kernel.self_s", "s", "lower"),
    ("sim.kernel.events", "count", "lower"),
    ("sim.kernel.events_per_s", "1/s", "higher"),
    ("sim.controller.self_s", "s", "lower"),
    ("sim.controller.chunks_recovered", "count", "lower"),
    ("sim.controller.plan_s", "s", "lower"),
    ("sim.cache_sim.self_s", "s", "lower"),
    ("sim.cache_sim.requests", "count", "lower"),
    ("sim.cache_sim.hit_ratio", "ratio", "higher"),
    ("sim.disk.self_s", "s", "lower"),
    ("sim.disk.accesses", "count", "lower"),
    ("sim.disk.busy_vs", "sim_s", "lower"),
    ("sim.disk.queue_wait_vs", "sim_s", "lower"),
    ("sim.topology.self_s", "s", "lower"),
    ("sim.topology.transfers", "count", "lower"),
    ("sim.topology.cross_rack_mb", "MB", "lower"),
    ("serve.ingest.records", "count", "higher"),
    ("serve.ingest.shed", "count", "lower"),
    ("serve.ingest.invalid", "count", "lower"),
    ("serve.ingest.batches", "count", "lower"),
    ("serve.evaluate.count", "count", "lower"),
    ("serve.evaluate.mean_ms", "ms", "lower"),
    ("serve.evaluate.per_advise", "ratio", "lower"),
    ("serve.grid_pass.share", "ratio", "lower"),
    ("serve.advise.server_ms", "ms", "lower"),
    ("serve.loop_wait_ms", "ms", "lower"),
    ("serve.checkpoint.writes", "count", "lower"),
    ("serve.checkpoint.bytes", "bytes", "lower"),
    ("loadgen.late_p95_ms", "ms", "lower"),
    ("loadgen.staleness_p95_events", "events", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_layers(trace: dict) -> dict:
    """Per-layer metrics read off one :class:`tracer.Tracer` dump."""
    self_s = trace["self_s"].get
    calls = trace["calls"].get
    counts = trace["counts"].get
    total_s = trace["total_s"].get
    gets = calls("engine.tracesim", 0)
    built = calls("codes", 0)
    return {
        "bench.engine.self_s": self_s("bench.engine", 0.0),
        "bench.engine.tasks": calls("bench.engine.task", 0),
        "workloads.self_s": self_s("workloads", 0.0),
        "workloads.events": counts("workloads.events", 0),
        "codes.plan_build_s": self_s("codes", 0.0),
        "codes.plans_built": built,
        "engine.plan_cache.hit_ratio": _ratio(gets - built, gets),
        "engine.stream.intern_s": self_s("engine.stream.intern", 0.0),
        "engine.stream.requests": counts("engine.stream.requests", 0),
        "engine.grid_pass.self_s": self_s("engine.grid_pass", 0.0),
        "engine.grid_pass.cells": counts("engine.grid_pass.cells", 0),
        "engine.stackdist.self_s": self_s("engine.stackdist", 0.0),
        "cache.self_s": self_s("cache", 0.0),
        "cache.requests": counts("cache.requests", 0),
        "cache.hit_ratio": _ratio(counts("cache.hits", 0), counts("cache.requests", 0)),
        "engine.timed.self_s": self_s("engine.timed", 0.0),
        "engine.timed.calls": calls("engine.timed", 0),
        "sim.kernel.self_s": self_s("sim.kernel", 0.0),
        "sim.kernel.events": counts("sim.kernel.events", 0),
        "sim.kernel.events_per_s": _ratio(
            counts("sim.kernel.events", 0), total_s("sim.kernel", 0.0)
        ),
        "sim.controller.self_s": self_s("sim.controller", 0.0),
        "sim.controller.chunks_recovered": counts("sim.controller.chunks_recovered", 0),
        "sim.controller.plan_s": counts("sim.controller.plan_s", 0.0),
        "sim.cache_sim.self_s": self_s("sim.cache_sim", 0.0),
        "sim.cache_sim.requests": counts("sim.cache_sim.requests", 0),
        "sim.cache_sim.hit_ratio": _ratio(
            counts("sim.cache_sim.hits", 0), counts("sim.cache_sim.requests", 0)
        ),
        "sim.disk.self_s": self_s("sim.disk", 0.0),
        "sim.disk.accesses": counts("sim.disk.accesses", 0),
        "sim.disk.busy_vs": counts("sim.disk.busy_vs", 0.0),
        "sim.disk.queue_wait_vs": counts("sim.disk.queue_wait_vs", 0.0),
        "sim.topology.self_s": self_s("sim.topology", 0.0),
        "sim.topology.transfers": counts("sim.topology.transfers", 0),
        "sim.topology.cross_rack_mb": counts("sim.topology.cross_rack_bytes", 0) / 2**20,
    }


def grid_metrics(trace: dict) -> dict:
    """Every per-layer metric for a grid workload (serve layers read 0).

    The unattributed remainder is the time outside every layer that does
    a cell's work: the root's own time plus the bench engine's, whose
    ``run_grid`` and task spans enclose all the others and so keep
    whatever code between them no layer claims.
    """
    self_s = trace["self_s"].get
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics.update(traced_layers(trace))
    metrics["trace.unattributed_share"] = _ratio(
        self_s("(root)", 0.0) + self_s("bench.engine", 0.0),
        trace["total_s"].get("(root)", 0.0),
    )
    return metrics

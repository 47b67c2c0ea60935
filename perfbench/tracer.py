"""Layer spans for the traced run, recorded from the benchmark's own wrappers.

:func:`install` replaces each layer's public entry points with wrappers
that open a span on entry and close it on return.  A layer's *self* time
is its spans' duration minus the part covered by spans nested inside
them, so the self times of all layers and the root add up to the traced
interval.  Generator entry points (the simulator's processes) are timed
on each resumption, so ``Environment.run`` keeps only the kernel's own
dispatch time.

Counts come from the same boundaries, or from the program's own counters
on the objects a cell creates (disks, caches, controllers, topologies,
environments), read when the bench-engine task that created them ends.

Spans are aggregated in memory and written out once, by :meth:`dump`.
The wrappers are installed only in the process that runs the traced
pass: they are never imported by an untimed or timed measurement.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    """Self-time accounting over a stack of open spans."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [layer, start, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.instances: dict[str, list] = defaultdict(list)
        self.open: dict[str, int] = defaultdict(int)  # open spans per layer
        self.cache_depth = 0
        self.task_depth = 0

    def enter(self, layer: str) -> None:
        self.open[layer] += 1
        self.stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, covered = self.stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - covered
        if self.stack:
            self.stack[-1][2] += duration
        self.open[layer] -= 1
        if not self.open[layer]:  # outermost span of its layer: count it once
            self.total_s[layer] += duration

    # -- reading the program's own counters ---------------------------------

    def harvest(self) -> None:
        """Fold the counters of every object a finished task created."""
        inst = self.instances
        counts = self.counts
        for env in inst.pop("env", ()):
            counts["sim.kernel.events"] += env._counter
        for ctl in inst.pop("controller", ()):
            counts["sim.controller.chunks_recovered"] += ctl.chunks_recovered
            counts["sim.controller.plan_s"] += ctl.overhead.total
        for cache in inst.pop("timed_cache", ()):
            counts["sim.cache_sim.requests"] += cache.log.count
            counts["sim.cache_sim.hits"] += cache.policy.stats.hits
        for disk in inst.pop("disk", ()):
            stats = disk.stats
            counts["sim.disk.accesses"] += stats.reads + stats.writes
            counts["sim.disk.busy_vs"] += stats.busy_time
            counts["sim.disk.queue_wait_vs"] += stats.queue_wait
        for topo in inst.pop("topology", ()):
            counts["sim.topology.transfers"] += topo.transfers
            counts["sim.topology.cross_rack_bytes"] += topo.cross_rack_bytes

    def dump(self) -> dict:
        self.harvest()
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _call_wrapper(tracer: Tracer, layer: str, fn, after=None):
    enter, exit_, calls = tracer.enter, tracer.exit, tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[layer] += 1
        enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _drive(tracer: Tracer, layer: str, gen):
    """Run ``gen`` one resumption at a time, each inside a ``layer`` span."""
    enter, exit_ = tracer.enter, tracer.exit
    value = None
    error = None
    while True:
        enter(layer)
        try:
            if error is None:
                yielded = gen.send(value)
            else:
                pending, error = error, None
                yielded = gen.throw(pending)
        except StopIteration as stop:
            exit_()
            return stop.value
        except BaseException:
            exit_()
            raise
        exit_()
        try:
            value = yield yielded
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into the process, as the kernel meant
            error, value = exc, None


def _gen_wrapper(tracer: Tracer, layer: str, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[layer] += 1
        return _drive(tracer, layer, fn(*args, **kwargs))

    return wrapper


def _wrap(tracer: Tracer, layer: str, fn, after=None):
    if inspect.isgeneratorfunction(fn):
        return _gen_wrapper(tracer, layer, fn)
    return _call_wrapper(tracer, layer, fn, after)


def _patch_method(tracer, cls, name, layer, after=None) -> None:
    setattr(cls, name, _wrap(tracer, layer, cls.__dict__[name], after))


def _patch_function(tracer, module, name, layer, after=None) -> None:
    """Replace ``module.name`` and every ``repro`` module's alias of it."""
    original = getattr(module, name)
    wrapper = _wrap(tracer, layer, original, after)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _register(tracer: Tracer, cls, kind: str) -> None:
    original = cls.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        tracer.instances[kind].append(self)

    cls.__init__ = init


def _cache_wrapper(tracer: Tracer, fn):
    """Policy ``request``/``request_many``: the outermost call counts."""
    enter, exit_, counts = tracer.enter, tracer.exit, tracer.counts

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        stats = self.stats
        outer = tracer.cache_depth == 0
        if outer:
            hits0, misses0 = stats.hits, stats.misses
        tracer.cache_depth += 1
        enter("cache")
        try:
            return fn(self, *args, **kwargs)
        finally:
            exit_()
            tracer.cache_depth -= 1
            if outer:
                hits = stats.hits - hits0
                counts["cache.requests"] += hits + stats.misses - misses0
                counts["cache.hits"] += hits

    return wrapper


def _task_wrapper(tracer: Tracer, fn):
    """``compute_point``/``compute_group``: a bench-engine task."""
    enter, exit_, calls = tracer.enter, tracer.exit, tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls["bench.engine.task"] += 1
        tracer.task_depth += 1
        enter("bench.engine")
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()
            tracer.task_depth -= 1
            if tracer.task_depth == 0:
                tracer.harvest()

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points in this process."""
    from repro.bench import engine as bench_engine
    from repro.cache.arc import ARCCache
    from repro.cache.fifo import FIFOCache
    from repro.cache.lfu import LFUCache
    from repro.cache.lru import LRUCache
    from repro.core.fbf_cache import FBFCache
    from repro.engine import stackdist, stream, timed, tracesim
    from repro.engine.backends import XORBackend
    from repro.serve import advisor
    from repro.sim import array, cache_sim, controller, disk, kernel, topology

    counts = tracer.counts

    def count_events(args, result):
        counts["workloads.events"] += len(result)

    def count_requests(args, result):
        counts["engine.stream.requests"] += result.total_requests

    def count_cells(args, result):
        counts["engine.grid_pass.cells"] += len(result)

    _patch_function(tracer, bench_engine, "run_grid", "bench.engine")
    for name in ("compute_point", "compute_group"):
        wrapper = _task_wrapper(tracer, getattr(bench_engine, name))
        setattr(bench_engine, name, wrapper)
    _patch_method(tracer, XORBackend, "generate_events", "workloads", count_events)
    _patch_method(tracer, XORBackend, "build_plan", "codes")
    _patch_method(tracer, tracesim.PlanCache, "get", "engine.tracesim")
    _patch_function(tracer, stream, "intern_stream", "engine.stream.intern", count_requests)
    _patch_method(tracer, stream.StreamInterner, "extend", "engine.stream.intern")
    _patch_method(
        tracer, stream.StreamInterner, "window", "engine.stream.intern", count_requests
    )
    _patch_function(tracer, stream, "simulate_grid_pass", "engine.grid_pass", count_cells)
    for name in ("__init__", "hits_at"):
        _patch_method(tracer, stackdist.StackDistanceProfile, name, "engine.stackdist")
    patched = set()
    for cls in (FIFOCache, LRUCache, LFUCache, ARCCache, FBFCache):
        for name in ("request", "request_many"):
            owner = next(k for k in cls.__mro__ if name in k.__dict__)
            if (owner, name) not in patched:
                patched.add((owner, name))
                setattr(owner, name, _cache_wrapper(tracer, owner.__dict__[name]))
    _patch_function(tracer, timed, "run_timed_replay", "engine.timed")
    _patch_method(tracer, kernel.Environment, "run", "sim.kernel")
    _patch_method(tracer, controller.RAIDController, "plan_for", "sim.controller")
    _patch_method(tracer, controller.RAIDController, "recover_error", "sim.controller")
    _patch_method(tracer, cache_sim.TimedBufferCache, "get_chunk", "sim.cache_sim")
    _patch_method(tracer, array.DiskArray, "read_chunk", "sim.disk")
    _patch_method(tracer, array.DiskArray, "write_spare_chunk", "sim.disk")
    _patch_method(tracer, disk.Disk, "access", "sim.disk")
    _patch_method(tracer, topology.ClusterTopology, "transfer", "sim.topology")
    _patch_method(tracer, advisor.CacheAdvisor, "evaluate", "serve.advisor")
    _patch_method(tracer, advisor.CacheAdvisor, "ingest", "serve.advisor")
    _register(tracer, kernel.Environment, "env")
    _register(tracer, controller.RAIDController, "controller")
    _register(tracer, cache_sim.TimedBufferCache, "timed_cache")
    _register(tracer, disk.Disk, "disk")
    _register(tracer, topology.ClusterTopology, "topology")

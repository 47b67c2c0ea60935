"""The unified timed replay over the event kernel, one per repo.

Generalizes the serial/SOR batch reconstruction of
:mod:`repro.sim.reconstruction` to any
:class:`~repro.engine.backend.CodeBackend`: the backend supplies the
array geometry (XOR codes map cells onto a ``rows x disks`` grid, LRC
blocks onto a flat one-block-per-disk layout), the recovery plans and
the optional verifying datapath; the event kernel, disks, timed buffer
cache and controller are shared.

``repro.sim.run_reconstruction`` is now a thin layout-flavoured wrapper
over :func:`run_timed_replay`.

The :mod:`repro.sim` imports are deferred into the function body:
``repro.sim.reconstruction`` imports this module, so module-level
imports would cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..core.policy import CachePolicy
from .backend import CodeBackend
from .tracesim import effective_partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.reconstruction import ReconstructionReport, SimConfig

__all__ = ["run_timed_replay"]


def run_timed_replay(
    backend: CodeBackend,
    events: Sequence[Any],
    config: "SimConfig | None" = None,
    policy_factory: Callable[[int], CachePolicy] | None = None,
) -> "ReconstructionReport":
    """Simulate timed recovery of ``events`` under ``config`` via ``backend``.

    The cache is split among the SOR workers by
    :func:`~repro.engine.tracesim.effective_partition`, the untimed
    replay's rule: ``min(workers, len(events))`` workers, each with an
    equal slice, and :class:`ValueError` when a non-zero cache has fewer
    blocks than that.  ``policy_factory`` overrides the registry lookup
    (useful for custom policies); it receives the per-worker capacity in
    blocks.  The backend's scheme label wins over ``config.scheme_mode``
    (the config field parameterises the XOR convenience wrapper, which
    builds the backend from it).
    """
    from ..cache.registry import make_policy
    from ..sim.cache_sim import TimedBufferCache
    from ..sim.controller import RAIDController
    from ..sim.kernel import Environment
    from ..sim.reconstruction import (
        ClusterStats,
        ReconstructionReport,
        SimConfig,
        _worker,
        build_array,
    )
    from ..sim.topology import HeartbeatMonitor, build_topology

    if config is None:
        config = SimConfig()
    if not events:
        raise ValueError("no events to recover")
    events = sorted(events)
    workers, per_worker_blocks = effective_partition(
        config.cache_blocks_total, config.workers, len(events)
    )
    if config.sanitize:
        # Imported here: repro.checks imports the kernel, which would
        # cycle at module import time.
        from ..checks.sanitizer import SanitizedEnvironment

        env: Environment = SanitizedEnvironment()
    else:
        env = Environment()
    geometry = backend.make_geometry(
        chunk_size=config.chunk_bytes, stripes=config.array_stripes
    )
    topology = None
    heartbeats = None
    if config.topology is not None:
        topology = build_topology(env, config.topology)
        if config.topology.heartbeat_period > 0:
            heartbeats = HeartbeatMonitor(
                topology,
                master=config.topology.controller_node,
                period=config.topology.heartbeat_period,
                miss_threshold=config.topology.heartbeat_miss_threshold,
            )
            heartbeats.start()
    array = build_array(env, geometry, config, topology=topology)
    response_histogram = None
    if config.response_quantiles:
        from ..obs.metrics import Histogram

        # One histogram shared across all worker caches, so the report's
        # p99 covers every chunk request of the run.
        response_histogram = Histogram("sim.cache.response_time")
    datapath = None
    if config.verify_payloads:
        datapath = backend.make_datapath(
            payload_size=config.payload_size, seed=config.payload_seed
        )
    controller = RAIDController(
        env,
        array,
        xor_time_per_chunk=config.xor_time_per_chunk,
        parallel_chain_reads=config.parallel_chain_reads,
        datapath=datapath,
        backend=backend,
    )

    caches: list[TimedBufferCache] = []
    procs = []
    for w in range(workers):
        if policy_factory is not None:
            policy = policy_factory(per_worker_blocks)
        else:
            policy = make_policy(config.policy, per_worker_blocks, **config.policy_kwargs)
        cache = TimedBufferCache(
            env, policy, array, hit_time=config.hit_time, sanitize=config.sanitize,
            response_histogram=response_histogram,
        )
        caches.append(cache)
        mine = events[w::workers]  # SOR round-robin stripe assignment
        procs.append(
            env.process(
                _worker(env, controller, cache, mine, config.respect_arrival_times),
                name=f"sor-worker-{w}",
            )
        )
    env.run(env.all_of(procs))
    recon_time = env.now
    if config.respect_arrival_times:
        recon_time -= min(e.time for e in events)

    hits = sum(c.policy.stats.hits for c in caches)
    misses = sum(c.policy.stats.misses for c in caches)
    cluster_stats = None
    if topology is not None:
        cluster_stats = ClusterStats(
            racks=len(topology.racks),
            nodes=len(topology.nodes),
            transfers=topology.transfers,
            cross_rack_bytes=topology.cross_rack_bytes,
            intra_rack_bytes=topology.intra_rack_bytes,
            link_utilization=topology.link_utilization(recon_time),
            heartbeat_rtt_max=(
                tuple(sorted(heartbeats.rtt_max.items())) if heartbeats else ()
            ),
            nodes_declared_dead=(
                tuple(sorted(heartbeats.detected_at.items())) if heartbeats else ()
            ),
            limplock_suspects=topology.limplock_suspects(),
        )
    return ReconstructionReport(
        policy=config.policy if policy_factory is None else getattr(
            caches[0].policy, "name", "custom"
        ),
        scheme_mode=backend.scheme_label,
        code=backend.code_label,
        p=backend.p,
        n_errors=len(events),
        chunks_recovered=controller.chunks_recovered,
        reconstruction_time=recon_time,
        avg_response_time=(
            sum(c.log.total for c in caches) / max(1, sum(c.log.count for c in caches))
        ),
        max_response_time=max(c.log.max for c in caches),
        total_requests=sum(c.log.count for c in caches),
        cache_hits=hits,
        cache_misses=misses,
        disk_reads=sum(c.log.disk_reads for c in caches),
        disk_writes=array.total_writes,
        overhead_mean_s=controller.overhead.mean,
        overhead_total_s=controller.overhead.total,
        plan_cache_hits=controller.overhead.plan_cache_hits,
        payload_chunks_verified=datapath.chunks_verified if datapath else 0,
        payload_mismatches=datapath.mismatches if datapath else 0,
        disk_stats=tuple(
            (d.stats.busy_time, d.stats.queue_wait, d.stats.accesses)
            for d in array.disks
        ),
        p99_response_time=(
            response_histogram.quantile(0.99) if response_histogram is not None else None
        ),
        cluster=cluster_stats,
    )

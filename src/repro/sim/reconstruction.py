"""Serial and SOR-parallel reconstruction of partial stripe error batches.

The paper extends Stripe-Oriented Reconstruction (SOR) to partial stripe
recovery: multiple worker processes each repair a subset of the failed
stripes, and "each process is allocated with a small part of cache" — so
the total buffer cache is partitioned evenly across workers.  Workers
contend for the shared disks, which the event kernel resolves through the
per-disk FIFO queues.

:func:`run_reconstruction` is the main entry point: it assembles the whole
stack (array, per-worker caches, controller, workers), runs the event loop
to completion, and returns a :class:`ReconstructionReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Sequence

from ..codes.layout import CodeLayout
from ..core.policy import CachePolicy
from ..core.scheme import SchemeMode
from ..utils import parse_size
from .array import ArrayGeometry, DiskArray, FlatGeometry
from .cache_sim import TimedBufferCache
from .controller import RAIDController
from .disk import FixedLatencyModel
from .kernel import Environment

if TYPE_CHECKING:  # annotation-only: sim stays level with workloads' consumers
    from ..workloads.errors import PartialStripeError
    from .topology import TopologySpec

__all__ = ["SimConfig", "ClusterStats", "ReconstructionReport", "run_reconstruction"]


@dataclass(frozen=True)
class ClusterStats:
    """Traffic and health snapshot of one topology-backed run."""

    racks: int
    nodes: int
    transfers: int
    cross_rack_bytes: int
    intra_rack_bytes: int
    #: per-link ``(name, utilization)`` over the run, nics then uplinks.
    link_utilization: tuple[tuple[str, float], ...] = ()
    #: worst heartbeat RTT per node id (empty if the monitor was off).
    #: RTT outliers alone cannot isolate a fail-slow node under link
    #: congestion — the limplock detection gap; see ``limplock_suspects``.
    heartbeat_rtt_max: tuple[tuple[int, float], ...] = ()
    #: nodes the heartbeat monitor declared dead, with detection vtime.
    nodes_declared_dead: tuple[tuple[int, float], ...] = ()
    #: nodes whose nic counters show traffic served well below nominal
    #: rate (:meth:`repro.sim.topology.ClusterTopology.limplock_suspects`).
    limplock_suspects: tuple[int, ...] = ()

    @property
    def bottleneck(self) -> str:
        """Name of the busiest link ('' when idle)."""
        if not self.link_utilization:
            return ""
        name, util = max(self.link_utilization, key=lambda nu: nu[1])
        return name if util > 0 else ""


@dataclass(frozen=True)
class SimConfig:
    """All knobs of one reconstruction simulation.

    Defaults mirror the paper's methodology: 32 KB chunks, 0.5 ms buffer
    access, 10 ms disk access, the FBF chain-selection scheme, parallel
    (SOR) reconstruction with the cache partitioned across workers.
    """

    policy: str = "fbf"
    cache_size: int | str = "2MB"
    chunk_size: int | str = "32KB"
    scheme_mode: SchemeMode = "fbf"
    workers: int = 8
    hit_time: float = 0.0005
    disk_latency: float = 0.010
    #: "fixed" (the paper's 10 ms constant) or "hdd" (seek+rotate+transfer).
    disk_model: str = "fixed"
    #: request ordering on each disk: "fcfs" (queue-depth-1 FIFO), or
    #: "sstf"/"scan" (seek-aware; only meaningful with disk_model="hdd").
    disk_scheduler: str = "fcfs"
    xor_time_per_chunk: float = 1e-5
    parallel_chain_reads: bool = True
    #: if True, an error may not start recovery before its arrival time
    #: (online recovery); if False the batch is repaired back-to-back.
    respect_arrival_times: bool = False
    array_stripes: int = 100_000
    #: carry real payloads and scrub-check every rebuilt chunk against
    #: ground truth (slower; see :mod:`repro.sim.datapath`).
    verify_payloads: bool = False
    payload_size: int = 64
    payload_seed: int = 0
    policy_kwargs: dict = field(default_factory=dict)
    #: run under the invariant sanitizer: every cache request is checked
    #: against FBF's Algorithm 1 (single residency, demotion order,
    #: capacity accounting) and the event kernel asserts order stability.
    sanitize: bool = False
    #: place the array on a rack-aware cluster: disks attach to nodes and
    #: chunk traffic charges link bandwidth.  None (and the degenerate
    #: one-node spec) reproduces the single-controller rows bit-identically.
    topology: "TopologySpec | None" = None
    #: record per-request response times in a histogram so the report can
    #: carry p99 (degraded-mode tail reporting); off by default.
    response_quantiles: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.disk_model not in ("fixed", "hdd"):
            raise ValueError(f"disk_model must be 'fixed' or 'hdd', got {self.disk_model!r}")
        if self.disk_scheduler not in ("fcfs", "sstf", "scan"):
            raise ValueError(
                f"disk_scheduler must be fcfs/sstf/scan, got {self.disk_scheduler!r}"
            )

    @property
    def cache_bytes(self) -> int:
        return parse_size(self.cache_size)

    @property
    def chunk_bytes(self) -> int:
        return parse_size(self.chunk_size)

    @property
    def cache_blocks_total(self) -> int:
        return self.cache_bytes // self.chunk_bytes


@dataclass
class ReconstructionReport:
    """Everything the paper's figures read off one simulation run."""

    policy: str
    scheme_mode: str
    code: str
    p: int
    n_errors: int
    chunks_recovered: int
    #: simulated seconds from start to the last spare write (Figure 11).
    reconstruction_time: float
    #: mean simulated response time per chunk request (Figure 10).
    avg_response_time: float
    max_response_time: float
    total_requests: int
    cache_hits: int
    cache_misses: int
    #: disk reads issued during recovery (Figure 9).
    disk_reads: int
    disk_writes: int
    #: mean wall-clock seconds to compute one recovery plan (Table IV).
    overhead_mean_s: float
    overhead_total_s: float
    plan_cache_hits: int
    #: payload verification counters (0 unless ``verify_payloads``).
    payload_chunks_verified: int = 0
    payload_mismatches: int = 0
    #: per-disk (busy seconds, queue-wait seconds, accesses).
    disk_stats: tuple[tuple[float, float, int], ...] = ()
    #: 99th-percentile response time (None unless ``response_quantiles``).
    #: None defaults keep `report_a == report_b` golden comparisons exact.
    p99_response_time: float | None = None
    #: cluster traffic snapshot (None unless a topology was configured).
    cluster: "ClusterStats | None" = None

    #: wall-clock measured columns (Table IV plan-computation overhead) —
    #: excluded from simulated-identity comparisons, like the bench rows'
    #: MEASURED_FIELDS (DESIGN.md §9 determinism contract).
    MEASURED_FIELDS = ("overhead_mean_s", "overhead_total_s")

    def simulated_dict(self, exclude: tuple[str, ...] = ()) -> dict:
        """Simulated-only fields, for bit-identity checks across runs."""
        from dataclasses import fields

        skip = set(self.MEASURED_FIELDS) | set(exclude)
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in skip
        }

    def disk_utilization(self) -> tuple[float, ...]:
        """Fraction of the run each disk spent servicing requests."""
        if self.reconstruction_time <= 0:
            return tuple(0.0 for _ in self.disk_stats)
        return tuple(
            busy / self.reconstruction_time for busy, _, _ in self.disk_stats
        )

    @property
    def hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def overhead_percent(self) -> float:
        """Temporal overhead as % of per-error reconstruction time (Table IV)."""
        if self.reconstruction_time <= 0 or self.n_errors == 0:
            return 0.0
        per_error_recon = self.reconstruction_time / self.n_errors
        return 100.0 * self.overhead_mean_s / per_error_recon


def build_array(
    env: Environment,
    geometry: ArrayGeometry | FlatGeometry,
    config: SimConfig,
    topology=None,
) -> DiskArray:
    """Assemble the disk bank described by ``config``.

    ``topology`` (a built :class:`~repro.sim.topology.ClusterTopology`)
    attaches the disks to cluster nodes and routes chunk traffic over
    the links; the controller lives on the spec's home node."""
    home = 0
    if topology is not None and config.topology is not None:
        home = config.topology.controller_node
    if config.disk_model == "fixed" and config.disk_scheduler == "fcfs":
        return DiskArray(
            env, geometry,
            disk_model_factory=lambda i: FixedLatencyModel(config.disk_latency),
            topology=topology, home_node=home,
        )
    from .disk import SeekRotateTransferModel
    from .scheduling import ScheduledDisk, make_scheduler

    def model(i: int):
        if config.disk_model == "hdd":
            return SeekRotateTransferModel(seed=i)
        return FixedLatencyModel(config.disk_latency)

    return DiskArray(
        env, geometry,
        disk_factory=lambda e, i: ScheduledDisk(
            e, i, model(i), make_scheduler(config.disk_scheduler)
        ),
        topology=topology, home_node=home,
    )


def _worker(
    env: Environment,
    controller: RAIDController,
    cache: TimedBufferCache,
    errors: Sequence[PartialStripeError],
    respect_arrival_times: bool,
) -> Generator:
    recover = controller.recover_error
    if not respect_arrival_times:
        # Batch mode repairs back-to-back: no arrival check per error.
        for error in errors:
            yield from recover(error, cache)
        return
    timeout = env.timeout
    for error in errors:
        # Only wait for arrivals still in the future — an arrival time at
        # or before ``now`` must not cost a redundant zero-delay event.
        delay = error.time - env.now
        if delay > 0:
            yield timeout(delay)
        yield from recover(error, cache)


def run_reconstruction(
    layout: CodeLayout,
    errors: Sequence[PartialStripeError],
    config: SimConfig = SimConfig(),
    policy_factory: Callable[[int], CachePolicy] | None = None,
) -> ReconstructionReport:
    """Simulate recovery of ``errors`` on ``layout`` under ``config``.

    XOR-world convenience wrapper: builds an :class:`~repro.engine.
    backends.XORBackend` from ``(layout, config.scheme_mode)`` and runs
    the unified :func:`repro.engine.timed.run_timed_replay`.
    ``policy_factory`` overrides the registry lookup (useful for custom
    policies); it receives the per-worker capacity in blocks.
    """
    from ..engine.backends import XORBackend
    from ..engine.timed import run_timed_replay

    backend = XORBackend(layout, config.scheme_mode)
    return run_timed_replay(backend, errors, config, policy_factory)

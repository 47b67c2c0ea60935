"""The timed buffer cache sitting between the controller and the array.

Wraps any replacement policy from :mod:`repro.cache` (or FBF) and charges
the paper's service times: a cache hit costs ``hit_time`` (0.5 ms), a miss
goes to the disk array (10 ms under the default disk model, plus any
queueing delay).  Per-request response times are recorded for the paper's
"average response time" metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from ..codes.layout import Cell
from ..core.policy import CachePolicy
from .array import DiskArray
from .kernel import Environment

if TYPE_CHECKING:  # annotation-only: sim must not import obs at runtime
    from ..obs.metrics import Histogram

__all__ = ["ResponseLog", "TimedBufferCache"]


@dataclass
class ResponseLog:
    """Aggregated response-time statistics (no per-request list kept)."""

    count: int = 0
    total: float = 0.0
    max: float = 0.0
    disk_reads: int = 0
    #: optional :class:`repro.obs.metrics.Histogram` for quantiles
    #: (p99 degraded-mode reporting); may be shared across workers.
    histogram: "Histogram | None" = None

    def record(self, elapsed: float, was_hit: bool) -> None:
        self.count += 1
        self.total += elapsed
        if elapsed > self.max:
            self.max = elapsed
        if not was_hit:
            self.disk_reads += 1
        histogram = self.histogram
        if histogram is not None:
            histogram.observe(elapsed)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class TimedBufferCache:
    """A buffer cache with simulated access times.

    One instance per reconstruction worker under the paper's SOR
    parallelism (each worker gets a slice of the cache), or one shared
    instance in serial mode.
    """

    def __init__(
        self,
        env: Environment,
        policy: CachePolicy,
        array: DiskArray,
        hit_time: float = 0.0005,
        sanitize: bool = False,
        response_histogram: "Histogram | None" = None,
    ):
        if hit_time < 0:
            raise ValueError(f"hit_time must be >= 0, got {hit_time}")
        self.env = env
        if sanitize:
            # Imported here: repro.checks imports the kernel, which would
            # cycle through repro.sim at module import time.
            from ..checks.sanitizer import SimSanitizer

            policy = SimSanitizer(policy)
        self.policy = policy
        self.array = array
        self.hit_time = hit_time
        self.log = ResponseLog(histogram=response_histogram)

    def get_chunk(
        self, stripe: int, cell: Cell, priority: int | None = None
    ) -> Generator:
        """Process generator: obtain one chunk through the cache."""
        env = self.env
        start = env.now
        hit = self.policy.request((stripe, cell), priority=priority)
        if hit:
            yield env.timeout(self.hit_time)
        else:
            yield from self.array.read_chunk(stripe, cell)
        self.log.record(env.now - start, hit)

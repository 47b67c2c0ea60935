"""A buffer cache in front of the functional array.

:class:`CachedRAIDArray` wraps a :class:`~repro.array.raid.RAIDArray`
with any replacement policy from :mod:`repro.cache`: chunk reads go
through the cache, and partial stripe repair feeds the policy the FBF
priority hints from the recovery plan — the whole paper, functional
edition.  Useful to *count* (rather than simulate) the disk reads a
policy saves on real repairs.
"""

from __future__ import annotations

import numpy as np

from ..codes.layout import Cell
from ..core.policy import CachePolicy
from ..core.priorities import PriorityDictionary
from ..core.scheme import SchemeMode, generate_plan
from .raid import RAIDArray, RepairReport

__all__ = ["CachedRAIDArray"]


class CachedRAIDArray:
    """Read-through chunk cache over a functional RAID array.

    The cache stores chunk payloads keyed by ``(stripe, cell)``.  Writes
    update the cached copy when present (write-through) and invalidate
    nothing else — parity cells patched by the write path are refreshed
    too, keeping cache and disks coherent at all times.
    """

    def __init__(self, array: RAIDArray, policy: CachePolicy):
        self.array = array
        self.policy = policy
        self._contents: dict[tuple[int, Cell], np.ndarray] = {}
        self.disk_reads = 0

    # -- internal --------------------------------------------------------------
    def _evict_orphans(self) -> None:
        """Drop cached payloads whose keys the policy evicted."""
        for key in [k for k in self._contents if k not in self.policy]:
            del self._contents[key]

    def _get(self, stripe: int, cell: Cell, priority: int | None = None) -> np.ndarray:
        key = (stripe, cell)
        hit = self.policy.request(key, priority=priority)
        if hit:
            return self._contents[key].copy()
        payload = self.array.read_cell(stripe, cell)
        self.disk_reads += 1
        if key in self.policy:  # capacity 0 -> never resident
            self._contents[key] = payload.copy()
        self._evict_orphans()
        return payload

    # -- public I/O --------------------------------------------------------------
    def read(self, logical: int) -> np.ndarray:
        stripe, cell = self.array._cell_of(logical)
        try:
            return self._get(stripe, cell)
        except Exception:
            return self.array.read(logical)  # degraded path, uncached

    def write(self, logical: int, payload: np.ndarray) -> None:
        stripe, cell = self.array._cell_of(logical)
        self.array.write(logical, payload)
        # refresh any cached copies this write touched (data + parities)
        for key in list(self._contents):
            k_stripe, k_cell = key
            if k_stripe == stripe:
                self._contents[key] = self.array.read_cell(k_stripe, k_cell)

    # -- repair ---------------------------------------------------------------
    def repair_partial_stripe(
        self, stripe: int, mode: SchemeMode = "fbf"
    ) -> RepairReport:
        """Chain repair fetching through the cache with FBF priorities."""
        failed = sorted(self.array._failed_cells(stripe))
        if not failed:
            return RepairReport(stripe=stripe, repaired_cells=(),
                                chunks_read=0, scheme_mode=mode)
        plan = generate_plan(self.array.layout, failed, mode)
        priorities = PriorityDictionary(plan)
        reads = 0
        for assignment in plan.assignments:
            out = np.zeros(self.array.chunk_size, dtype=np.uint8)
            for other in assignment.reads:
                out ^= self._get(stripe, other, priorities.lookup(other))
                reads += 1
            cell = assignment.failed_cell
            self.array.disks[cell[1]].repair_chunk(
                self.array._offset(stripe, cell), out
            )
        return RepairReport(
            stripe=stripe,
            repaired_cells=tuple(a.failed_cell for a in plan.assignments),
            chunks_read=reads,
            scheme_mode=mode,
        )

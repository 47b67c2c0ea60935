"""First-In First-Out replacement."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

from ..core.policy import Key, SimpleCachePolicy

__all__ = ["FIFOCache"]


class FIFOCache(SimpleCachePolicy):
    """Evicts the block that has been resident longest, ignoring accesses."""

    __slots__ = ("_blocks",)

    name = "fifo"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._blocks: OrderedDict[Key, None] = OrderedDict()

    def __contains__(self, key: Key) -> bool:
        return key in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def _clear(self) -> None:
        self._blocks.clear()

    def _on_hit(self, key: Key) -> None:
        pass  # arrival order is unaffected by hits

    def _admit(self, key: Key, priority: int | None) -> None:
        self._blocks[key] = None

    def _evict(self) -> Key:
        victim, _ = self._blocks.popitem(last=False)
        return victim

    def request_many(
        self, keys: Sequence[Key], priorities: Iterable[int] | None = None
    ) -> bytearray:
        # Grid replay hot path, via admission indices instead of the
        # OrderedDict: because hits never reorder a FIFO, the cache
        # content is always the ``capacity`` most recent admissions, so
        # residency is one integer compare against the admission counter.
        # The OrderedDict is rebuilt at the end to keep request()/len()
        # and introspection consistent afterwards.
        blocks = self._blocks
        capacity = self.capacity
        stats = self.stats
        if capacity == 0:
            stats.misses += len(keys)
            return bytearray(len(keys))
        admitted: dict[Key, int] = {}
        for idx, key in enumerate(blocks):  # oldest first = admission order
            admitted[key] = idx
        total = len(admitted)
        floor = total - capacity
        get = admitted.get
        flags = bytearray(len(keys))
        hits = misses = 0
        for key in keys:
            idx = get(key)
            if idx is not None and idx >= floor:
                flags[hits + misses] = 1
                hits += 1
            else:
                misses += 1
                admitted[key] = total
                total += 1
                floor += 1
        stats.hits += hits
        stats.misses += misses
        stats.evictions += max(0, total - capacity)
        blocks.clear()
        resident = sorted(
            (idx, key) for key, idx in admitted.items() if idx >= total - capacity
        )
        for _, key in resident:
            blocks[key] = None
        return flags

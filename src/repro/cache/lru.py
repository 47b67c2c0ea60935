"""Least-Recently-Used replacement (Mattson et al., 1970)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

from ..core.policy import Key, SimpleCachePolicy

__all__ = ["LRUCache"]


class LRUCache(SimpleCachePolicy):
    """Evicts the block whose last access is oldest."""

    __slots__ = ("_blocks",)

    name = "lru"

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
        self._blocks.move_to_end(key)

    def _admit(self, key: Key, priority: int | None) -> None:
        self._blocks[key] = None

    def _evict(self) -> Key:
        victim, _ = self._blocks.popitem(last=False)
        return victim

    def request_many(
        self, keys: Sequence[Key], priorities: Iterable[int] | None = None
    ) -> bytearray:
        # The request() flow inlined with everything in locals (grid
        # replay hot path); priorities are ignored, as in _admit.
        blocks = self._blocks
        capacity = self.capacity
        stats = self.stats
        if capacity == 0:
            stats.misses += len(keys)
            return bytearray(len(keys))
        move = blocks.move_to_end
        pop = blocks.popitem
        flags = bytearray(len(keys))
        hits = misses = evictions = 0
        for key in keys:
            if key in blocks:
                flags[hits + misses] = 1
                hits += 1
                move(key)
            else:
                misses += 1
                if len(blocks) >= capacity:
                    pop(last=False)
                    evictions += 1
                blocks[key] = None
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        return flags

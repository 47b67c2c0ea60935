"""Least-Frequently-Used replacement (Aho, Denning & Ullman, 1971).

Implemented with the classic O(1) frequency-bucket structure: blocks live
in per-frequency ordered dicts; the minimum populated frequency is tracked
so eviction pops the least-recently-used block of the lowest frequency.
Frequency state is discarded on eviction (plain LFU, no persistence).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

from ..core.policy import Key, SimpleCachePolicy

__all__ = ["LFUCache"]


class LFUCache(SimpleCachePolicy):
    """Evicts the block with the fewest accesses (LRU among ties)."""

    __slots__ = ("_freq_of", "_buckets", "_min_freq")

    name = "lfu"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._freq_of: dict[Key, int] = {}
        self._buckets: dict[int, OrderedDict[Key, None]] = {}
        self._min_freq = 0

    def __contains__(self, key: Key) -> bool:
        return key in self._freq_of

    def __len__(self) -> int:
        return len(self._freq_of)

    def _clear(self) -> None:
        self._freq_of.clear()
        self._buckets.clear()
        self._min_freq = 0

    def _bucket(self, freq: int) -> OrderedDict[Key, None]:
        return self._buckets.setdefault(freq, OrderedDict())

    def _on_hit(self, key: Key) -> None:
        freq = self._freq_of[key]
        bucket = self._buckets[freq]
        del bucket[key]
        if not bucket:
            del self._buckets[freq]
            if self._min_freq == freq:
                self._min_freq = freq + 1
        self._freq_of[key] = freq + 1
        self._bucket(freq + 1)[key] = None

    def _admit(self, key: Key, priority: int | None) -> None:
        self._freq_of[key] = 1
        self._bucket(1)[key] = None
        self._min_freq = 1

    def _evict(self) -> Key:
        bucket = self._buckets[self._min_freq]
        victim, _ = bucket.popitem(last=False)
        if not bucket:
            del self._buckets[self._min_freq]
            # _min_freq is refreshed on the next admit (which sets it to 1).
        del self._freq_of[victim]
        return victim

    def request_many(
        self, keys: Sequence[Key], priorities: Iterable[int] | None = None
    ) -> bytearray:
        # request()/_on_hit/_admit/_evict inlined with the bucket maps in
        # locals (grid replay hot path); same frequency-bucket updates in
        # the same order, so decisions match the per-request path.
        freq_of = self._freq_of
        buckets = self._buckets
        capacity = self.capacity
        stats = self.stats
        if capacity == 0:
            stats.misses += len(keys)
            return bytearray(len(keys))
        get_freq = freq_of.get
        get_bucket = buckets.get
        min_freq = self._min_freq  # mirrored in a local, written back below
        flags = bytearray(len(keys))
        hits = misses = evictions = 0
        for key in keys:
            freq = get_freq(key)
            if freq is not None:
                flags[hits + misses] = 1
                hits += 1
                bucket = buckets[freq]
                del bucket[key]
                if not bucket:
                    del buckets[freq]
                    if min_freq == freq:
                        min_freq = freq + 1
                freq = freq + 1
                freq_of[key] = freq
                up = get_bucket(freq)
                if up is None:
                    up = buckets[freq] = OrderedDict()
                up[key] = None
            else:
                misses += 1
                if len(freq_of) >= capacity:
                    bucket = buckets[min_freq]
                    victim, _ = bucket.popitem(last=False)
                    if not bucket:
                        del buckets[min_freq]
                    del freq_of[victim]
                    evictions += 1
                freq_of[key] = 1
                ones = get_bucket(1)
                if ones is None:
                    ones = buckets[1] = OrderedDict()
                ones[key] = None
                min_freq = 1
        self._min_freq = min_freq
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        return flags

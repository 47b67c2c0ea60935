"""LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD 1993).

Evicts the block whose K-th most recent reference is furthest in the past;
blocks with fewer than K references have infinite backward K-distance and
are evicted first (LRU among themselves), as in the original paper.  A
bounded *retained information* table keeps reference history for evicted
blocks so that a block re-admitted shortly after eviction does not restart
from scratch.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from ..core.policy import Key, SimpleCachePolicy

__all__ = ["LRUKCache"]

_INF = float("inf")


class LRUKCache(SimpleCachePolicy):
    """LRU-K with retained history (default K=2)."""

    __slots__ = ("k", "retained", "_clock", "_hist", "_resident", "_ghost_hist")

    name = "lru2"

    def __init__(self, capacity: int, k: int = 2, retained: int | None = None):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        super().__init__(capacity)
        self.k = k
        #: how many evicted blocks keep their history (paper's RIP table).
        self.retained = capacity if retained is None else retained
        self._clock = 0
        self._hist: dict[Key, deque[int]] = {}
        self._resident: OrderedDict[Key, None] = OrderedDict()  # LRU tiebreak
        self._ghost_hist: OrderedDict[Key, deque[int]] = OrderedDict()

    def __contains__(self, key: Key) -> bool:
        return key in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def _clear(self) -> None:
        self._clock = 0
        self._hist.clear()
        self._resident.clear()
        self._ghost_hist.clear()

    def _touch(self, key: Key) -> None:
        self._clock += 1
        hist = self._hist.setdefault(key, deque(maxlen=self.k))
        hist.append(self._clock)

    def _on_hit(self, key: Key) -> None:
        self._touch(key)
        self._resident.move_to_end(key)

    def _admit(self, key: Key, priority: int | None) -> None:
        if key in self._ghost_hist:
            self._hist[key] = self._ghost_hist.pop(key)
        self._touch(key)
        self._resident[key] = None

    def _kth_distance(self, key: Key) -> float:
        hist = self._hist[key]
        if len(hist) < self.k:
            return _INF
        return self._clock - hist[0]

    def _evict(self) -> Key:
        # Max backward K-distance wins; LRU order breaks ties (the resident
        # dict is kept in recency order, so the first max found is LRU-most).
        victim = None
        victim_dist = -1.0
        for key in self._resident:  # iteration order = LRU -> MRU
            dist = self._kth_distance(key)
            if dist > victim_dist:
                victim, victim_dist = key, dist
        assert victim is not None
        del self._resident[victim]
        self._ghost_hist[victim] = self._hist.pop(victim)
        while len(self._ghost_hist) > self.retained:
            self._ghost_hist.popitem(last=False)
        return victim

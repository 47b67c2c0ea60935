"""Adaptive Replacement Cache (Megiddo & Modha, FAST 2003).

A faithful implementation of the published algorithm: two resident lists
(``T1`` recency, ``T2`` frequency), two ghost lists (``B1``, ``B2``)
remembering recently evicted keys, and the adaptation target ``p`` that
continuously rebalances recency versus frequency based on which ghost list
takes hits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

from ..core.policy import CachePolicy, Key

__all__ = ["ARCCache"]


class ARCCache(CachePolicy):
    """The full ARC algorithm (Figure 4 of the paper)."""

    __slots__ = ("_t1", "_t2", "_b1", "_b2", "_p")

    name = "arc"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._t1: OrderedDict[Key, None] = OrderedDict()
        self._t2: OrderedDict[Key, None] = OrderedDict()
        self._b1: OrderedDict[Key, None] = OrderedDict()
        self._b2: OrderedDict[Key, None] = OrderedDict()
        self._p = 0.0

    # -- introspection ----------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._t1 or key in self._t2

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    @property
    def target_p(self) -> float:
        """Current adaptation target (size aimed for T1)."""
        return self._p

    def _clear(self) -> None:
        self._t1.clear()
        self._t2.clear()
        self._b1.clear()
        self._b2.clear()
        self._p = 0.0

    # -- algorithm ----------------------------------------------------------
    def _replace(self, in_b2: bool) -> None:
        """Demote one resident block to the appropriate ghost list."""
        t1_len = len(self._t1)
        if t1_len >= 1 and (t1_len > self._p or (in_b2 and t1_len == self._p)):
            victim, _ = self._t1.popitem(last=False)
            self._b1[victim] = None
        else:
            victim, _ = self._t2.popitem(last=False)
            self._b2[victim] = None
        self.stats.evictions += 1

    def request(self, key: Key, priority: int | None = None) -> bool:
        if self.capacity == 0:
            self.stats.misses += 1
            return False
        c = self.capacity
        # Case I: hit in T1 or T2 -> promote to T2 MRU.
        if key in self._t1:
            del self._t1[key]
            self._t2[key] = None
            self.stats.hits += 1
            return True
        if key in self._t2:
            self._t2.move_to_end(key)
            self.stats.hits += 1
            return True
        # Case II: ghost hit in B1 -> favour recency.
        if key in self._b1:
            delta = max(len(self._b2) / len(self._b1), 1.0)
            self._p = min(float(c), self._p + delta)
            self._replace(in_b2=False)
            del self._b1[key]
            self._t2[key] = None
            self.stats.misses += 1
            return False
        # Case III: ghost hit in B2 -> favour frequency.
        if key in self._b2:
            delta = max(len(self._b1) / len(self._b2), 1.0)
            self._p = max(0.0, self._p - delta)
            self._replace(in_b2=True)
            del self._b2[key]
            self._t2[key] = None
            self.stats.misses += 1
            return False
        # Case IV: full miss.
        l1 = len(self._t1) + len(self._b1)
        l2 = len(self._t2) + len(self._b2)
        if l1 == c:
            if len(self._t1) < c:
                self._b1.popitem(last=False)
                self._replace(in_b2=False)
            else:
                self._t1.popitem(last=False)
                self.stats.evictions += 1
        elif l1 < c and l1 + l2 >= c:
            if l1 + l2 == 2 * c:
                self._b2.popitem(last=False)
            self._replace(in_b2=False)
        self._t1[key] = None
        self.stats.misses += 1
        return False

    def request_many(
        self, keys: Sequence[Key], priorities: Iterable[int] | None = None
    ) -> bytearray:
        # request()/_replace inlined with the four lists and ``p`` in
        # locals (grid replay hot path).  Same case order and the same
        # adaptation arithmetic as request(), so decisions match the
        # per-request path exactly.
        stats = self.stats
        if self.capacity == 0:
            stats.misses += len(keys)
            return bytearray(len(keys))
        c = self.capacity
        t1, t2, b1, b2 = self._t1, self._t2, self._b1, self._b2
        p = self._p
        flags = bytearray(len(keys))
        hits = misses = evictions = 0
        for key in keys:
            if key in t1:
                del t1[key]
                t2[key] = None
                flags[hits + misses] = 1
                hits += 1
                continue
            if key in t2:
                t2.move_to_end(key)
                flags[hits + misses] = 1
                hits += 1
                continue
            if key in b1:
                p = min(float(c), p + max(len(b2) / len(b1), 1.0))
                t1_len = len(t1)  # _replace(in_b2=False)
                if t1_len >= 1 and t1_len > p:
                    victim, _ = t1.popitem(last=False)
                    b1[victim] = None
                else:
                    victim, _ = t2.popitem(last=False)
                    b2[victim] = None
                evictions += 1
                del b1[key]
                t2[key] = None
                misses += 1
                continue
            if key in b2:
                p = max(0.0, p - max(len(b1) / len(b2), 1.0))
                t1_len = len(t1)  # _replace(in_b2=True)
                if t1_len >= 1 and t1_len >= p:
                    victim, _ = t1.popitem(last=False)
                    b1[victim] = None
                else:
                    victim, _ = t2.popitem(last=False)
                    b2[victim] = None
                evictions += 1
                del b2[key]
                t2[key] = None
                misses += 1
                continue
            l1 = len(t1) + len(b1)
            l2 = len(t2) + len(b2)
            if l1 == c:
                if len(t1) < c:
                    b1.popitem(last=False)
                    t1_len = len(t1)  # _replace(in_b2=False)
                    if t1_len >= 1 and t1_len > p:
                        victim, _ = t1.popitem(last=False)
                        b1[victim] = None
                    else:
                        victim, _ = t2.popitem(last=False)
                        b2[victim] = None
                else:
                    t1.popitem(last=False)
                evictions += 1
            elif l1 < c and l1 + l2 >= c:
                if l1 + l2 == 2 * c:
                    b2.popitem(last=False)
                t1_len = len(t1)  # _replace(in_b2=False)
                if t1_len >= 1 and t1_len > p:
                    victim, _ = t1.popitem(last=False)
                    b1[victim] = None
                else:
                    victim, _ = t2.popitem(last=False)
                    b2[victim] = None
                evictions += 1
            t1[key] = None
            misses += 1
        self._p = p
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        return flags

"""Multi-Queue replacement (Zhou, Philbin & Li, USENIX ATC 2001).

MQ keeps ``m`` LRU queues; a block with reference count ``f`` lives in
queue ``min(log2(f), m-1)``, so frequently-hit blocks climb queues and
one-shot blocks stay at the bottom.  Two mechanisms keep it honest:

* **expiry** — every resident block carries ``expire_time = now +
  life_time``; when the LRU head of a queue has expired it is demoted one
  queue (long-idle hot blocks cool down level by level);
* **Qout ghost** — a bounded FIFO of evicted keys with their reference
  counts, so a block readmitted soon after eviction resumes its old
  frequency instead of restarting at 1.

An instructive baseline next to FBF: both are multi-queue schemes, but MQ
ranks blocks by *observed* access frequency while FBF ranks them by
*known future* references from the recovery plan — MQ has to see the
rereference it is trying to keep, FBF does not.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.policy import CachePolicy, Key

__all__ = ["MQCache"]


class MQCache(CachePolicy):
    """The MQ algorithm with the paper's queue/expiry/ghost structure."""

    __slots__ = (
        "n_queues",
        "life_time",
        "qout_capacity",
        "_clock",
        "_queues",
        "_level",
        "_freq",
        "_expire",
        "_qout",
    )

    name = "mq"

    def __init__(
        self,
        capacity: int,
        n_queues: int = 8,
        life_time: int = 128,
        qout_factor: int = 4,
    ):
        if n_queues < 1:
            raise ValueError(f"n_queues must be >= 1, got {n_queues}")
        if life_time < 1:
            raise ValueError(f"life_time must be >= 1, got {life_time}")
        if qout_factor < 0:
            raise ValueError(f"qout_factor must be >= 0, got {qout_factor}")
        super().__init__(capacity)
        self.n_queues = n_queues
        self.life_time = life_time
        self.qout_capacity = qout_factor * capacity
        self._clock = 0
        self._queues: list[OrderedDict[Key, None]] = [
            OrderedDict() for _ in range(n_queues)
        ]
        self._level: dict[Key, int] = {}
        self._freq: dict[Key, int] = {}
        self._expire: dict[Key, int] = {}
        self._qout: OrderedDict[Key, int] = OrderedDict()  # key -> saved freq

    # -- introspection --------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._level

    def __len__(self) -> int:
        return len(self._level)

    def level_of(self, key: Key) -> int:
        """Queue index of a resident block (test/debug hook)."""
        return self._level[key]

    def _clear(self) -> None:
        for q in self._queues:
            q.clear()
        self._level.clear()
        self._freq.clear()
        self._expire.clear()
        self._qout.clear()
        self._clock = 0

    # -- mechanics ----------------------------------------------------------
    @staticmethod
    def _queue_for(freq: int, n_queues: int) -> int:
        level = freq.bit_length() - 1  # floor(log2(freq))
        return min(level, n_queues - 1)

    def _place(self, key: Key, freq: int) -> None:
        level = self._queue_for(freq, self.n_queues)
        self._queues[level][key] = None
        self._level[key] = level
        self._freq[key] = freq
        self._expire[key] = self._clock + self.life_time

    def _remove(self, key: Key) -> None:
        level = self._level.pop(key)
        del self._queues[level][key]
        del self._freq[key]
        del self._expire[key]

    def _adjust_expired(self) -> None:
        """Demote any queue head whose lifetime ran out (paper's Adjust)."""
        for level in range(self.n_queues - 1, 0, -1):
            q = self._queues[level]
            while q:
                head = next(iter(q))
                if self._expire[head] >= self._clock:
                    break
                del q[head]
                self._queues[level - 1][head] = None
                self._level[head] = level - 1
                self._expire[head] = self._clock + self.life_time

    def _evict(self) -> None:
        for q in self._queues:
            if q:
                victim, _ = q.popitem(last=False)
                freq = self._freq.pop(victim)
                del self._level[victim]
                del self._expire[victim]
                if self.qout_capacity:
                    self._qout[victim] = freq
                    while len(self._qout) > self.qout_capacity:
                        self._qout.popitem(last=False)
                self.stats.evictions += 1
                return
        raise RuntimeError("evict on empty cache")  # pragma: no cover

    # -- request ---------------------------------------------------------------
    def request(self, key: Key, priority: int | None = None) -> bool:
        self._clock += 1
        if key in self._level:
            self.stats.hits += 1
            freq = self._freq[key]
            self._remove(key)
            self._place(key, freq + 1)
            self._adjust_expired()
            return True
        self.stats.misses += 1
        if self.capacity == 0:
            return False
        if len(self._level) >= self.capacity:
            self._evict()
        freq = self._qout.pop(key, 0) + 1
        self._place(key, freq)
        self._adjust_expired()
        return False

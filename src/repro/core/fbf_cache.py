"""The Favorable Block First replacement policy (paper §III-A, Algorithm 1).

Three LRU queues, one per priority.  A fetched chunk is attached to the
queue matching its priority (``Queue3`` for chunks shared by three or more
selected parity chains, ``Queue2`` for two, ``Queue1`` for one).  The two
rules that distinguish FBF:

* **Replacement** — when space is needed, evict from ``Queue1`` first,
  then ``Queue2``, then ``Queue3`` (each popping its LRU end).  High
  priority chunks stay resident even if they have not been touched for a
  while (paper Figure 7).
* **Demotion on hit** — a hit consumes one of the chunk's expected
  rereferences, so the chunk steps down one queue: Queue3 → Queue2 →
  Queue1; hits in Queue1 just refresh recency (paper Figure 6).

Priorities arrive per request as the ``priority`` hint (the simulators
look them up in the current :class:`~repro.core.priorities.PriorityDictionary`);
requests without a hint default to priority 1, matching the paper's
handling of application I/O during reconstruction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

from .policy import CachePolicy, Key
from .priorities import MAX_PRIORITY

__all__ = ["FBFCache"]


class FBFCache(CachePolicy):
    """Favorable Block First: priority queues with demote-on-hit.

    Two ablation knobs beyond the paper's Algorithm 1:

    * ``demote_on_hit=False`` — sticky priorities (chunks never leave
      their original queue);
    * ``n_queues`` — more than the paper's three queues, so chunks with
      share counts above 3 (STAR's adjusters) can be ranked among
      themselves instead of saturating at Queue3.  Hints above
      ``n_queues`` are capped as priorities above 3 are in the paper.
    """

    __slots__ = ("demote_on_hit", "n_queues", "_queues", "_queue_of")

    name = "fbf"

    def __init__(
        self,
        capacity: int,
        demote_on_hit: bool = True,
        n_queues: int = MAX_PRIORITY,
    ):
        if n_queues < 1:
            raise ValueError(f"n_queues must be >= 1, got {n_queues}")
        super().__init__(capacity)
        self.demote_on_hit = demote_on_hit
        self.n_queues = n_queues
        # queue index 1..n_queues; each OrderedDict is LRU-first -> MRU-last.
        self._queues: dict[int, OrderedDict[Key, None]] = {
            q: OrderedDict() for q in range(1, n_queues + 1)
        }
        self._queue_of: dict[Key, int] = {}

    # -- introspection -------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._queue_of

    def __len__(self) -> int:
        return len(self._queue_of)

    def queue_of(self, key: Key) -> int:
        """Which queue (1..3) the block currently sits in."""
        return self._queue_of[key]

    def queue_contents(self, priority: int) -> tuple[Key, ...]:
        """Keys of one queue, LRU to MRU (test/debug hook)."""
        return tuple(self._queues[priority])

    def _clear(self) -> None:
        for q in self._queues.values():
            q.clear()
        self._queue_of.clear()

    # -- algorithm ------------------------------------------------------------
    def _normalize_priority(self, priority: int | None) -> int:
        if priority is None:
            return 1
        if not isinstance(priority, int):
            raise TypeError(f"priority must be an int, got {priority!r}")
        if priority < 1:
            raise ValueError(f"priority must be >= 1, got {priority}")
        return min(priority, self.n_queues)

    def _attach(self, key: Key, queue: int) -> None:
        self._queues[queue][key] = None
        self._queue_of[key] = queue

    def _detach(self, key: Key) -> int:
        queue = self._queue_of.pop(key)
        del self._queues[queue][key]
        return queue

    def _evict(self) -> Key:
        # Replacement policy: Queue1 first, then Queue2, then Queue3, ...
        for queue in range(1, self.n_queues + 1):
            q = self._queues[queue]
            if q:
                victim, _ = q.popitem(last=False)
                del self._queue_of[victim]
                self.stats.evictions += 1
                return victim
        raise RuntimeError("evict called on an empty cache")  # pragma: no cover

    def request(self, key: Key, priority: int | None = None) -> bool:
        if key in self._queue_of:
            self.stats.hits += 1
            queue = self._queue_of[key]
            if self.demote_on_hit and queue > 1:
                self._detach(key)
                self._attach(key, queue - 1)
            else:
                # Queue1 hit: push to the MRU end (Algorithm 1 PushToEnd).
                self._queues[queue].move_to_end(key)
            return True
        self.stats.misses += 1
        if self.capacity == 0:
            return False
        if len(self._queue_of) >= self.capacity:
            self._evict()
        self._attach(key, self._normalize_priority(priority))
        return False

    def request_many(
        self, keys: Sequence[Key], priorities: Iterable[int] | None = None
    ) -> bytearray:
        # request()/_attach/_detach/_evict inlined with the queue maps in
        # locals (grid replay hot path): same demote-on-hit, same
        # Queue1-first eviction scan, same priority normalization — the
        # grid-pass property tests pin it to the per-request path.
        queue_of = self._queue_of
        capacity = self.capacity
        stats = self.stats
        demote = self.demote_on_hit
        n_queues = self.n_queues
        get_queue = queue_of.get
        # 1-based queue list: one dict hash per attach/demote/evict saved.
        qlist = [None] + [self._queues[i] for i in range(1, n_queues + 1)]
        scan = qlist[1:]
        flags = bytearray(len(keys))
        hits = misses = evictions = 0
        if priorities is None:
            priorities = (None,) * len(keys)
        for key, priority in zip(keys, priorities):
            queue = get_queue(key)
            if queue is not None:
                flags[hits + misses] = 1
                hits += 1
                if demote and queue > 1:
                    del qlist[queue][key]
                    queue -= 1
                    qlist[queue][key] = None
                    queue_of[key] = queue
                else:
                    qlist[queue].move_to_end(key)
                continue
            misses += 1
            if capacity == 0:
                continue
            if len(queue_of) >= capacity:
                for q in scan:
                    if q:
                        victim, _ = q.popitem(last=False)
                        del queue_of[victim]
                        evictions += 1
                        break
            if priority is None:
                queue = 1
            elif priority.__class__ is int and 0 < priority:
                queue = priority if priority < n_queues else n_queues
            else:
                queue = self._normalize_priority(priority)
            qlist[queue][key] = None
            queue_of[key] = queue
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        return flags

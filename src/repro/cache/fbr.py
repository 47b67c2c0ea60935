"""Frequency-Based Replacement (Robinson & Devarakonda, SIGMETRICS 1990).

FBR keeps an LRU stack partitioned into a *new* section (top), a *middle*
section, and an *old* section (bottom).  Reference counts are maintained,
but a hit on a block in the new section does **not** increment its count —
this "factors out locality" so that bursts of correlated references don't
inflate frequency.  The victim is the least-frequently-used block of the
old section (LRU among ties).  Counts are periodically halved (``a_max``
aging) to let formerly-hot blocks cool down.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.policy import Key, SimpleCachePolicy

__all__ = ["FBRCache"]


class FBRCache(SimpleCachePolicy):
    """FBR with configurable section fractions and count aging."""

    __slots__ = ("new_size", "old_size", "a_max", "_stack", "_count")

    name = "fbr"

    def __init__(
        self,
        capacity: int,
        new_fraction: float = 0.25,
        old_fraction: float = 0.5,
        a_max: int = 64,
    ):
        if not 0.0 < new_fraction < 1.0:
            raise ValueError(f"new_fraction must be in (0,1), got {new_fraction}")
        if not 0.0 < old_fraction < 1.0:
            raise ValueError(f"old_fraction must be in (0,1), got {old_fraction}")
        if new_fraction + old_fraction > 1.0:
            raise ValueError("new_fraction + old_fraction must be <= 1")
        if a_max < 2:
            raise ValueError(f"a_max must be >= 2, got {a_max}")
        super().__init__(capacity)
        self.new_size = int(capacity * new_fraction)
        self.old_size = max(1, int(capacity * old_fraction)) if capacity else 0
        self.a_max = a_max
        self._stack: OrderedDict[Key, None] = OrderedDict()  # MRU first
        self._count: dict[Key, int] = {}

    def __contains__(self, key: Key) -> bool:
        return key in self._stack

    def __len__(self) -> int:
        return len(self._stack)

    def _clear(self) -> None:
        self._stack.clear()
        self._count.clear()

    def _in_new_section(self, key: Key) -> bool:
        for pos, k in enumerate(self._stack):
            if k == key:
                return pos < self.new_size
        raise KeyError(key)  # pragma: no cover - guarded by caller

    def _old_section_keys(self) -> list[Key]:
        n = len(self._stack)
        start = n - self.old_size
        return [k for pos, k in enumerate(self._stack) if pos >= start]

    def _age_counts(self) -> None:
        if sum(self._count.values()) > self.a_max * max(1, len(self._stack)):
            for k in self._count:
                self._count[k] = (self._count[k] + 1) // 2

    def _on_hit(self, key: Key) -> None:
        if not self._in_new_section(key):
            self._count[key] += 1
            self._age_counts()
        self._stack.move_to_end(key, last=False)  # to MRU (front)

    def _admit(self, key: Key, priority: int | None) -> None:
        self._count[key] = 1
        self._stack[key] = None
        self._stack.move_to_end(key, last=False)

    def _evict(self) -> Key:
        old = self._old_section_keys()
        # least count wins; among ties prefer the LRU-most (deepest) block.
        victim = min(reversed(old), key=lambda k: self._count[k])
        del self._stack[victim]
        del self._count[victim]
        return victim

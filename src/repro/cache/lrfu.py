"""LRFU replacement (Lee et al., IEEE ToC 2001).

LRFU scores each block with a Combined Recency and Frequency value
``CRF(b) = sum F(now - t_i)`` over its past references, with the weighing
function ``F(x) = (1/2)^(lambda * x)``.  ``lambda -> 0`` degenerates to
LFU, ``lambda = 1`` to LRU; intermediate values span the spectrum.

The incremental identity ``CRF_new = F(0) + F(delta) * CRF_old`` lets the
score be maintained per block in O(1) on access.  Eviction scans residents
for the minimum decayed score — O(C), acceptable at simulation cache sizes
(the original paper uses a heap; the scan keeps the code transparent and
the test oracle trivial).
"""

from __future__ import annotations


from ..core.policy import Key, SimpleCachePolicy

__all__ = ["LRFUCache"]


class LRFUCache(SimpleCachePolicy):
    """LRFU with weighing function F(x) = 0.5 ** (lam * x)."""

    __slots__ = ("lam", "_clock", "_blocks")

    name = "lrfu"

    def __init__(self, capacity: int, lam: float = 0.1):
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        super().__init__(capacity)
        self.lam = lam
        self._clock = 0
        # key -> (crf at last access, last access time)
        self._blocks: dict[Key, tuple[float, int]] = {}

    def __contains__(self, key: Key) -> bool:
        return key in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def _clear(self) -> None:
        self._clock = 0
        self._blocks.clear()

    def _weight(self, age: float) -> float:
        return 0.5 ** (self.lam * age)

    def _on_hit(self, key: Key) -> None:
        self._clock += 1
        crf, last = self._blocks[key]
        self._blocks[key] = (1.0 + self._weight(self._clock - last) * crf, self._clock)

    def _admit(self, key: Key, priority: int | None) -> None:
        self._clock += 1
        self._blocks[key] = (1.0, self._clock)

    def crf(self, key: Key) -> float:
        """The block's CRF decayed to the current clock (test/debug hook)."""
        crf, last = self._blocks[key]
        return self._weight(self._clock - last) * crf

    def _evict(self) -> Key:
        victim = min(self._blocks, key=self.crf)
        del self._blocks[victim]
        return victim

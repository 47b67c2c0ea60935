"""2Q replacement (Johnson & Shasha, VLDB 1994) — the "full version".

Three structures: ``A1in`` (a FIFO of recently admitted blocks), ``A1out``
(a ghost FIFO of keys recently pushed out of A1in), and ``Am`` (an LRU of
established hot blocks).  A block only enters Am when it is referenced
while its key sits in A1out — one-shot scans therefore wash through A1in
without polluting the hot list.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.policy import CachePolicy, Key

__all__ = ["TwoQCache"]


class TwoQCache(CachePolicy):
    """Full 2Q with the paper's recommended Kin=C/4, Kout=C/2 defaults."""

    __slots__ = ("kin", "kout", "_a1in", "_a1out", "_am")

    name = "2q"

    def __init__(
        self,
        capacity: int,
        kin_fraction: float = 0.25,
        kout_fraction: float = 0.5,
    ):
        super().__init__(capacity)
        if not 0.0 < kin_fraction < 1.0:
            raise ValueError(f"kin_fraction must be in (0,1), got {kin_fraction}")
        if kout_fraction <= 0.0:
            raise ValueError(f"kout_fraction must be > 0, got {kout_fraction}")
        self.kin = max(1, int(capacity * kin_fraction)) if capacity else 0
        self.kout = max(1, int(capacity * kout_fraction)) if capacity else 0
        self._a1in: OrderedDict[Key, None] = OrderedDict()
        self._a1out: OrderedDict[Key, None] = OrderedDict()
        self._am: OrderedDict[Key, None] = OrderedDict()

    def __contains__(self, key: Key) -> bool:
        return key in self._a1in or key in self._am

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)

    def _clear(self) -> None:
        self._a1in.clear()
        self._a1out.clear()
        self._am.clear()

    def _reclaim(self) -> None:
        """Free one resident slot (paper's ``reclaimfor``)."""
        if len(self) < self.capacity:
            return
        if len(self._a1in) > self.kin or not self._am:
            victim, _ = self._a1in.popitem(last=False)
            self._a1out[victim] = None
            if len(self._a1out) > self.kout:
                self._a1out.popitem(last=False)
        else:
            self._am.popitem(last=False)
        self.stats.evictions += 1

    def request(self, key: Key, priority: int | None = None) -> bool:
        if key in self._am:
            self._am.move_to_end(key)
            self.stats.hits += 1
            return True
        if key in self._a1in:
            # Hit in A1in: the block stays put (2Q deliberately does not
            # promote on A1in hits).
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if self.capacity == 0:
            return False
        self._reclaim()
        if key in self._a1out:
            del self._a1out[key]
            self._am[key] = None
        else:
            self._a1in[key] = None
        return False

"""LIRS replacement (Jiang & Zhang, SIGMETRICS 2002).

LIRS ranks blocks by *Inter-Reference Recency* (IRR — the number of
distinct blocks seen between consecutive accesses to a block) rather than
plain recency.  Blocks with low IRR form the **LIR** set and own most of
the cache; everything else is **HIR**, cycling through a small queue
``Q``.  The recency stack ``S`` tracks both resident and recently-seen
non-resident blocks, so one rereference of a block with low IRR promotes
it into LIR — scan resistance without ghost-list tuning.

Structures follow the paper: ``S`` (recency stack, mixed LIR/HIR, may
hold non-resident HIR entries), ``Q`` (resident HIR blocks, FIFO), stack
pruning keeps an LIR block at the bottom of ``S``.  Non-resident history
in ``S`` is bounded to ``history_factor * capacity`` entries.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.policy import CachePolicy, Key

__all__ = ["LIRSCache"]

_LIR = "LIR"
_HIR = "HIR"


class LIRSCache(CachePolicy):
    """LIRS with the paper's recommended ~1% HIR allotment (min 1 slot)."""

    __slots__ = ("l_hirs", "l_lirs", "history_limit", "_s", "_q", "_resident", "_lir_count")

    name = "lirs"

    def __init__(
        self,
        capacity: int,
        hir_fraction: float = 0.1,
        history_factor: int = 2,
    ):
        if not 0.0 < hir_fraction < 1.0:
            raise ValueError(f"hir_fraction must be in (0,1), got {hir_fraction}")
        if history_factor < 0:
            raise ValueError(f"history_factor must be >= 0, got {history_factor}")
        super().__init__(capacity)
        self.l_hirs = max(1, int(capacity * hir_fraction)) if capacity > 1 else capacity
        self.l_lirs = max(0, capacity - self.l_hirs)
        self.history_limit = max(capacity * history_factor, self.l_hirs)
        # S: key -> status, ordered bottom (LRU) .. top (MRU).
        self._s: OrderedDict[Key, str] = OrderedDict()
        self._q: OrderedDict[Key, None] = OrderedDict()  # resident HIR
        # Admission-ordered; a dict (not a set) so any iteration is
        # deterministic.
        self._resident: dict[Key, None] = {}
        self._lir_count = 0

    # -- introspection -------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def status_of(self, key: Key) -> str:
        """'LIR' or 'HIR' for a resident block (test/debug hook)."""
        if key not in self._resident:
            raise KeyError(key)
        return self._s.get(key, _HIR)

    def _clear(self) -> None:
        self._s.clear()
        self._q.clear()
        self._resident.clear()
        self._lir_count = 0

    # -- mechanics --------------------------------------------------------------
    def _stack_prune(self) -> None:
        """Drop bottom-of-S entries until the bottom is LIR."""
        while self._s:
            key, status = next(iter(self._s.items()))
            if status == _LIR:
                return
            del self._s[key]

    def _bound_history(self) -> None:
        """Cap non-resident entries in S (oldest first)."""
        non_resident = sum(1 for k in self._s if k not in self._resident)
        if non_resident <= self.history_limit:
            return
        for key in list(self._s):
            if key not in self._resident:
                del self._s[key]
                non_resident -= 1
                if non_resident <= self.history_limit:
                    break
        self._stack_prune()

    def _demote_bottom_lir(self) -> None:
        """Bottom LIR of S becomes resident HIR at the end of Q.

        Non-LIR history entries below it are pruned first (they are
        non-resident HIR whose recency no longer matters).
        """
        self._stack_prune()
        key, status = next(iter(self._s.items()))
        assert status == _LIR  # a LIR block exists whenever demote is called
        del self._s[key]
        self._lir_count -= 1
        self._q[key] = None
        self._stack_prune()

    def _evict_hir(self) -> None:
        """Evict the front of Q; keep its S history if present."""
        victim, _ = self._q.popitem(last=False)
        self._resident.pop(victim, None)
        self.stats.evictions += 1

    # -- request --------------------------------------------------------------
    def request(self, key: Key, priority: int | None = None) -> bool:
        if self.capacity == 0:
            self.stats.misses += 1
            return False
        hit = key in self._resident
        if hit:
            self.stats.hits += 1
            self._on_hit(key)
        else:
            self.stats.misses += 1
            self._on_miss(key)
        self._bound_history()
        return hit

    def _on_hit(self, key: Key) -> None:
        status = self._s.get(key)
        if status == _LIR:
            self._s.move_to_end(key)
            self._stack_prune()
            return
        # resident HIR
        if key in self._s:  # low IRR observed -> promote
            del self._s[key]
            self._s[key] = _LIR
            self._lir_count += 1
            self._q.pop(key, None)
            if self._lir_count > self.l_lirs:
                self._demote_bottom_lir()
        else:  # no recency history: stay HIR, refresh position
            self._s[key] = _HIR
            if key in self._q:
                self._q.move_to_end(key)

    def _on_miss(self, key: Key) -> None:
        if len(self._resident) >= self.capacity:
            if self._q:
                self._evict_hir()
            else:
                # no resident HIR: demote a LIR first, then evict it
                self._demote_bottom_lir()
                self._evict_hir()
        self._resident[key] = None
        if self._lir_count < self.l_lirs and key not in self._s:
            # startup: fill the LIR set directly
            self._s[key] = _LIR
            self._lir_count += 1
            return
        if key in self._s:  # non-resident HIR with recency -> LIR
            del self._s[key]
            self._s[key] = _LIR
            self._lir_count += 1
            if self._lir_count > self.l_lirs:
                self._demote_bottom_lir()
        else:
            self._s[key] = _HIR
            self._q[key] = None

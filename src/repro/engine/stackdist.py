"""Mattson stack-distance profiling: LRU hit counts at every capacity.

LRU has the *inclusion* property (Mattson et al., IBM Systems Journal
1970): the content of a C-block LRU cache is always a subset of a
(C+1)-block one, so a request hits at capacity C iff its reuse distance —
the number of **distinct** blocks referenced since the previous access to
the same block — is strictly less than C.  One pass over the request
stream therefore yields the exact hit count for *all* capacities at once,
which is what the grid replay's LRU fast path exploits: the hit-ratio
axis of Figures 8/9 collapses from one replay per cache size to one
reuse-distance profile per worker substream.

Distinct-count queries use the classic Fenwick-tree (binary indexed
tree) formulation: keep a 0/1 marker at each block's *latest* access
position; the number of distinct blocks between two accesses of a block
is the number of markers strictly between those positions, an
O(log n) prefix-sum query.  Total cost is O(n log n) for an n-request
stream, independent of how many capacities the grid sweeps.

For traces too large for full-trace memory, :class:`SampledStackDistance
Profile` implements SHARDS (Waldspurger et al., FAST '15): spatial
hash-threshold sampling keeps a fixed fraction (or fixed count) of
blocks, reuse distances measured on the sampled substream are rescaled
by the sampling rate, and the profile costs O(n) time and O(sample)
memory with hit-ratio error that shrinks as the sample grows.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "FenwickTree",
    "reuse_distances",
    "StackDistanceProfile",
    "SampledStackDistanceProfile",
]


class FenwickTree:
    """A binary indexed tree over ``n`` positions (1-based), integer sums."""

    __slots__ = ("n", "_tree")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"size must be >= 0, got {n}")
        self.n = n
        self._tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        """Add ``delta`` at position ``i`` (1 <= i <= n)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} out of range 1..{self.n}")
        self._add(i, delta)

    def _add(self, i: int, delta: int) -> None:
        # Unchecked hot-path variant: callers that can prove 1 <= i <= n
        # once per stream (reuse_distances: positions are enumerate
        # indices) bind this directly instead of paying the range check
        # on every request.
        tree = self._tree
        n = self.n
        while i <= n:
            tree[i] += delta
            i += i & -i

    def prefix(self, i: int) -> int:
        """Sum of positions ``1..i`` (``i <= 0`` gives 0)."""
        return self._prefix(min(i, self.n))

    def _prefix(self, i: int) -> int:
        # Unchecked hot-path variant of prefix(): requires i <= n.
        tree = self._tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total


def reuse_distances(stream: Sequence[int]) -> Iterator[int]:
    """Yield each request's LRU stack distance; -1 marks a cold first access.

    The distance of a request is the number of distinct blocks accessed
    strictly between it and the previous access to the same block (0 for
    an immediate re-reference).  Works for any hashable block ids; the
    grid replay feeds it interned dense ints.
    """
    tree = FenwickTree(len(stream))
    last: dict[int, int] = {}
    # Positions are enumerate indices, so 1 <= prev < t <= n holds by
    # construction: validate the tree size once here and use the
    # unchecked Fenwick walks in the per-request loop.
    add = tree._add
    prefix = tree._prefix
    get = last.get
    for t, block in enumerate(stream, 1):
        prev = get(block)
        if prev is None:
            yield -1
        else:
            # markers sit at each block's latest access; the block's own
            # marker at ``prev`` is excluded by the half-open (prev, t).
            yield prefix(t - 1) - prefix(prev)
            add(prev, -1)
        add(t, 1)
        last[block] = t


class StackDistanceProfile:
    """One-pass LRU hit counts for a request stream at every capacity.

    ``hits_at(c)`` is exactly the hit count of replaying the stream
    through a c-block LRU cache: a request hits iff its reuse distance is
    finite and ``< c``.  The cumulative histogram saturates at the
    stream's maximum finite distance, so any larger capacity is a cheap
    clamp, and capacity 0 is always 0 hits (matching the degenerate
    zero-capacity replay).
    """

    __slots__ = ("requests", "_cum")

    def __init__(self, stream: Sequence[int]):
        n = self.requests = len(stream)
        hist: dict[int, int] = {}
        # reuse_distances() with the Fenwick walks inlined (profiles sit
        # on the grid replay's critical path; generator + method dispatch
        # costs ~40% here).
        tree = [0] * (n + 1)
        last: dict[int, int] = {}
        get_last = last.get
        get_hist = hist.get
        for t, block in enumerate(stream, 1):
            prev = get_last(block)
            if prev is not None:
                d = 0
                i = t - 1
                while i > 0:
                    d += tree[i]
                    i -= i & -i
                i = prev
                while i > 0:
                    d -= tree[i]
                    i -= i & -i
                hist[d] = get_hist(d, 0) + 1
                i = prev
                while i <= n:
                    tree[i] -= 1
                    i += i & -i
            last[block] = t
            i = t
            while i <= n:
                tree[i] += 1
                i += i & -i
        # _cum[c] = hits at capacity c = #requests with distance < c.
        max_d = max(hist) if hist else -1
        cum = [0] * (max_d + 2)
        running = 0
        for d in range(max_d + 1):
            running += hist.get(d, 0)
            cum[d + 1] = running
        self._cum = cum

    def hits_at(self, capacity: int) -> int:
        """Exact LRU hit count for a ``capacity``-block cache."""
        if capacity <= 0:
            return 0
        cum = self._cum
        return cum[min(capacity, len(cum) - 1)]


_MASK64 = (1 << 64) - 1
_HASH_SPACE = 1 << 64


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijection used as the spatial hash.

    Deterministic across processes (unlike ``hash()`` on strings) and
    uniform enough that ``hash(block) < rate * 2**64`` samples each
    *block* independently with probability ``rate`` — every access to a
    sampled block is kept, which is what preserves reuse distances.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _numpy_candidates(stream: Sequence[int], threshold: int):
    """Vectorized hash prefilter: (hashes, blocks) with hash < threshold.

    Returns ``None`` when the stream is not a clean non-negative integer
    array — callers fall back to the pure python per-request loop
    (identical hashes either way).
    """
    try:
        arr = np.asarray(stream, dtype=np.uint64)
    except (TypeError, ValueError, OverflowError):
        return None
    x = arr + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    if threshold < _HASH_SPACE:
        keep = np.flatnonzero(x < np.uint64(threshold))
        x, arr = x[keep], arr[keep]
    return x.tolist(), arr.tolist()


class SampledStackDistanceProfile:
    """SHARDS: sampled LRU hit counts at every capacity, O(sample) memory.

    Spatial hash-threshold sampling (Waldspurger et al., FAST '15): block
    ``b`` is *sampled* iff ``splitmix64(b) < T``, so the sample is a
    uniform pseudo-random subset of **blocks** and every access to a
    sampled block is observed.  Reuse distances measured on the sampled
    substream underestimate true distances by exactly the sampling rate
    in expectation, so each distance is rescaled by ``1/R`` and each
    sampled reuse contributes weight ``1/R`` to the hit histogram.

    Two operating modes:

    * **fixed-rate** (``max_tracked=None``): ``T = rate * 2**64`` is
      constant; memory is O(rate x distinct blocks).
    * **fixed-size** (``max_tracked=s``): when the tracked set exceeds
      ``s`` blocks the largest-hash block is evicted and ``T`` drops to
      its hash, adapting the effective rate downward (``min_rate`` is
      the final, smallest rate — SHARDS's R_min).  Memory is O(s)
      regardless of trace length.

    The reuse-distance Fenwick tree covers only *sampled* access
    positions and is compacted whenever it outgrows twice the tracked
    set, keeping state bounded by the sample, not the trace.  At
    ``rate=1.0`` every block is sampled, every weight is 1, and
    :meth:`hits_at` equals :class:`StackDistanceProfile` exactly.

    Estimates use the paper's *adjusted* form (SHARDS-adj): raw rescaled
    counts are multiplied by ``requests / E[requests | sample]``, where
    the denominator is the sample's own estimate of the total reference
    count.  This cancels the dominant error term — whole hot blocks
    falling in or out of the spatial sample — and is exactly 1 at
    ``rate=1.0``.

    Block ids must be integers (the interned streams' dense ids); the
    deterministic splitmix hash keeps profiles reproducible across
    processes, which string ``hash()`` would not.
    """

    __slots__ = (
        "requests",
        "rate",
        "min_rate",
        "max_tracked",
        "sampled_requests",
        "peak_tracked",
        "_adjust",
        "_cum",
    )

    def __init__(
        self,
        stream: Sequence[int],
        rate: float = 0.01,
        max_tracked: int | None = None,
    ):
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
        if max_tracked is not None and max_tracked < 1:
            raise ValueError(f"max_tracked must be >= 1, got {max_tracked}")
        self.requests = len(stream)
        self.rate = rate
        self.max_tracked = max_tracked
        threshold = _HASH_SPACE if rate >= 1.0 else int(rate * _HASH_SPACE)

        tracked: dict[int, int] = {}  # block -> latest sampled position
        hashes: dict[int, int] = {}  # block -> spatial hash (fixed-size mode)
        heap: list[tuple[int, int]] = []  # (-hash, block) max-heap
        hist: dict[int, float] = {}  # floor(scaled distance) -> weight
        sampled = 0
        peak = 0
        w_total = 0.0  # sample-weighted estimate of total references

        cap = 256  # Fenwick positions before compaction
        tree = [0] * (cap + 1)
        next_pos = 1

        def compact() -> tuple[list[int], int, int]:
            # Renumber tracked blocks 1..k in access order; marker counts
            # between any two live positions are preserved, so distances
            # are unchanged.  Linear-time Fenwick rebuild.
            nonlocal cap
            in_order = sorted(tracked, key=tracked.__getitem__)
            k = len(in_order)
            cap = max(256, 2 * k)
            new_tree = [0] * (cap + 1)
            for i, block in enumerate(in_order, 1):
                tracked[block] = i
                new_tree[i] = 1
            for i in range(1, cap + 1):
                j = i + (i & -i)
                if j <= cap:
                    new_tree[j] += new_tree[i]
            return new_tree, k + 1, cap

        prefiltered = None
        if self.requests >= 4096:
            prefiltered = _numpy_candidates(stream, threshold)
        if prefiltered is not None:
            accesses = zip(*prefiltered)
        else:
            accesses = (
                (_splitmix64(block & _MASK64), block & _MASK64)
                for block in stream
            )

        get_pos = tracked.get
        for h, block in accesses:
            if h >= threshold:
                continue  # rate adapted below the prefilter threshold
            sampled += 1
            rate_now = threshold / _HASH_SPACE
            w_total += 1.0 / rate_now
            prev = get_pos(block)
            if next_pos > cap:
                tree, next_pos, cap = compact()
                prev = get_pos(block)
            pos = next_pos
            next_pos += 1
            if prev is not None:
                d = 0
                i = pos - 1
                while i > 0:
                    d += tree[i]
                    i -= i & -i
                i = prev
                while i > 0:
                    d -= tree[i]
                    i -= i & -i
                bucket = int(d / rate_now)
                hist[bucket] = hist.get(bucket, 0.0) + 1.0 / rate_now
                i = prev
                while i <= cap:
                    tree[i] -= 1
                    i += i & -i
            else:
                hashes[block] = h
                heappush(heap, (-h, block))
            tracked[block] = pos
            i = pos
            while i <= cap:
                tree[i] += 1
                i += i & -i
            if len(tracked) > peak:
                peak = len(tracked)
            if max_tracked is not None and len(tracked) > max_tracked:
                # Fixed-size SHARDS: evict the max-hash block and lower
                # the threshold to its hash, shrinking the rate.
                while True:
                    neg_h, victim = heappop(heap)
                    if hashes.get(victim) == -neg_h:
                        break
                vpos = tracked.pop(victim)
                del hashes[victim]
                threshold = -neg_h
                i = vpos
                while i <= cap:
                    tree[i] -= 1
                    i += i & -i

        self.sampled_requests = sampled
        self.peak_tracked = peak
        self.min_rate = threshold / _HASH_SPACE
        self._adjust = self.requests / w_total if w_total > 0.0 else 1.0
        max_b = max(hist) if hist else -1
        cum = [0.0] * (max_b + 2)
        running = 0.0
        for b in range(max_b + 1):
            running += hist.get(b, 0.0)
            cum[b + 1] = running
        self._cum = cum

    def estimated_hits_at(self, capacity: int) -> float:
        """Adjusted rescaled-sample estimate of the LRU hit count."""
        if capacity <= 0:
            return 0.0
        cum = self._cum
        est = cum[min(capacity, len(cum) - 1)] * self._adjust
        return min(est, float(self.requests))

    def hits_at(self, capacity: int) -> int:
        """Estimated LRU hit count, rounded to an integer row value."""
        return round(self.estimated_hits_at(capacity))

    def hit_ratio_at(self, capacity: int) -> float:
        """Estimated hit ratio in [0, 1] (0 for an empty stream)."""
        if self.requests == 0:
            return 0.0
        return self.estimated_hits_at(capacity) / self.requests

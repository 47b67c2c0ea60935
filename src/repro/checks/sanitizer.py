"""Runtime sanitizer for the FBF cache and the event kernel.

``simlint`` (the static half of :mod:`repro.checks`) proves properties of
the *source*; this module asserts the matching properties of a *running*
simulation:

* :class:`SimSanitizer` wraps any replacement policy and, after every
  ``request``, re-validates the accounting every policy must keep
  (stats deltas, occupancy vs. capacity, hit ⇔ prior residency).  When
  the wrapped policy is the paper's :class:`~repro.core.fbf_cache.FBFCache`
  it additionally checks Algorithm 1 step by step:

  - **single residency** — every cached chunk sits in exactly one of the
    priority queues, and the queue index recorded for it matches;
  - **demotion order** — a hit in Queue *q* > 1 moves the chunk to the
    MRU end of Queue *q - 1* (or only refreshes recency when
    ``demote_on_hit`` is off or *q* == 1), never skipping levels;
  - **capacity accounting** — queue lengths always sum to the policy's
    occupancy, occupancy never exceeds capacity, and an admission into a
    full cache evicts exactly one block.

* :class:`SanitizedEnvironment` subclasses the event kernel's
  :class:`~repro.sim.kernel.Environment` and asserts *order stability*:
  virtual time never runs backwards and same-timestamp events fire in
  scheduling order (strictly increasing tiebreaker), so a run remains a
  pure function of its inputs.

Both are opt-in (``sanitize=True`` on the simulators) because the deep
FBF check is O(cache size) per request; tests switch them on.
"""

from __future__ import annotations


from ..core.fbf_cache import FBFCache
from ..core.policy import CachePolicy, Key
from ..sim.kernel import Environment

__all__ = ["InvariantViolation", "SimSanitizer", "SanitizedEnvironment"]


class InvariantViolation(RuntimeError):
    """A simulation invariant was broken at runtime."""


class SimSanitizer(CachePolicy):
    """Invariant-checking proxy around a replacement policy.

    Drop-in: exposes the wrapped policy's ``name``, ``stats`` and
    ``capacity``, so simulators and reports see straight through it.
    With ``strict=True`` (default) the first broken invariant raises
    :class:`InvariantViolation`; otherwise violations accumulate in
    :attr:`violations` for post-run inspection.

    Inherits the base class's generic ``request_many``, which maps the
    checked :meth:`request`, so a batched replay checks every request
    and returns the wrapped policy's hit flags.
    """

    __slots__ = ("policy", "strict", "violations", "checks_run", "_is_fbf")

    def __init__(self, policy: CachePolicy, strict: bool = True):
        super().__init__(policy.capacity)
        self.policy = policy
        self.strict = strict
        self.stats = policy.stats  # share the wrapped counters
        self.violations: list[str] = []
        self.checks_run = 0
        self._is_fbf = isinstance(policy, FBFCache)

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.policy.name

    # -- proxying -----------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self.policy

    def __len__(self) -> int:
        return len(self.policy)

    def _clear(self) -> None:
        self.policy.reset()
        self.stats = self.policy.stats

    # -- reporting ----------------------------------------------------------
    def _fail(self, message: str) -> None:
        if self.strict:
            raise InvariantViolation(message)
        self.violations.append(message)

    # -- the checked request path ------------------------------------------
    def request(self, key: Key, priority: int | None = None) -> bool:
        policy = self.policy
        pre_resident = key in policy
        pre_len = len(policy)
        pre_hits = policy.stats.hits
        pre_misses = policy.stats.misses
        pre_evictions = policy.stats.evictions
        pre_queue: int | None = None
        if self._is_fbf and pre_resident:
            pre_queue = policy.queue_of(key)

        hit = policy.request(key, priority=priority)

        self.checks_run += 1
        stats = policy.stats
        if stats.hits + stats.misses != pre_hits + pre_misses + 1:
            self._fail(
                f"stats accounting drifted: one request moved hits+misses by "
                f"{stats.hits + stats.misses - pre_hits - pre_misses}"
            )
        if hit != pre_resident:
            self._fail(
                f"hit/residency mismatch for {key!r}: request returned "
                f"hit={hit} but the block was "
                f"{'resident' if pre_resident else 'absent'} beforehand"
            )
        if hit and stats.hits != pre_hits + 1:
            self._fail(f"hit on {key!r} did not increment the hit counter")
        if not hit and stats.misses != pre_misses + 1:
            self._fail(f"miss on {key!r} did not increment the miss counter")
        if len(policy) > policy.capacity:
            self._fail(
                f"occupancy {len(policy)} exceeds capacity {policy.capacity}"
            )
        if self._is_fbf:
            self._check_fbf(key, priority, hit, pre_queue, pre_len, pre_evictions)
        return hit

    # -- FBF Algorithm 1 deep checks ----------------------------------------
    def _check_fbf(
        self,
        key: Key,
        priority: int | None,
        hit: bool,
        pre_queue: int | None,
        pre_len: int,
        pre_evictions: int,
    ) -> None:
        policy: FBFCache = self.policy  # type: ignore[assignment]
        self._check_fbf_structure(policy)
        evictions = policy.stats.evictions

        if hit:
            assert pre_queue is not None
            if policy.demote_on_hit and pre_queue > 1:
                expected = pre_queue - 1
            else:
                expected = pre_queue
            self._check_fbf_position(policy, key, expected, f"hit in Queue{pre_queue}")
            if len(policy) != pre_len:
                self._fail(
                    f"hit on {key!r} changed occupancy {pre_len} -> {len(policy)}"
                )
            if evictions != pre_evictions:
                self._fail(f"hit on {key!r} triggered an eviction")
            return

        # Miss path: admission + possible eviction.
        if policy.capacity == 0:
            if len(policy) != 0:
                self._fail("capacity-0 cache admitted a block")
            return
        expected = 1 if priority is None else min(priority, policy.n_queues)
        self._check_fbf_position(policy, key, expected, "admission")
        if pre_len >= policy.capacity:
            if evictions != pre_evictions + 1:
                self._fail(
                    f"admission into a full cache evicted "
                    f"{evictions - pre_evictions} blocks (expected exactly 1)"
                )
            if len(policy) != pre_len:
                self._fail(
                    f"full-cache admission changed occupancy "
                    f"{pre_len} -> {len(policy)}"
                )
        else:
            if evictions != pre_evictions:
                self._fail("admission into a non-full cache evicted a block")
            if len(policy) != pre_len + 1:
                self._fail(
                    f"admission changed occupancy {pre_len} -> {len(policy)} "
                    f"(expected +1)"
                )

    def _check_fbf_position(
        self, policy: FBFCache, key: Key, expected_queue: int, action: str
    ) -> None:
        if key not in policy:
            self._fail(f"{action}: {key!r} is not resident afterwards")
            return
        actual = policy.queue_of(key)
        if actual != expected_queue:
            self._fail(
                f"{action}: {key!r} landed in Queue{actual}, Algorithm 1 "
                f"places it in Queue{expected_queue}"
            )
            return
        contents = policy.queue_contents(actual)
        if not contents or contents[-1] != key:
            self._fail(
                f"{action}: {key!r} is not at the MRU end of Queue{actual}"
            )

    def _check_fbf_structure(self, policy: FBFCache) -> None:
        """Single residency + queue-length accounting, O(occupancy)."""
        seen: dict[Key, int] = {}
        total = 0
        for queue in range(1, policy.n_queues + 1):
            contents = policy.queue_contents(queue)
            total += len(contents)
            for entry in contents:
                if entry in seen:
                    self._fail(
                        f"{entry!r} is resident in Queue{seen[entry]} and "
                        f"Queue{queue} simultaneously"
                    )
                seen[entry] = queue
                recorded = policy.queue_of(entry)
                if recorded != queue:
                    self._fail(
                        f"{entry!r} sits in Queue{queue} but queue_of() "
                        f"says Queue{recorded}"
                    )
        if total != len(policy):
            self._fail(
                f"queue lengths sum to {total} but occupancy is {len(policy)}"
            )


class SanitizedEnvironment(Environment):
    """Event kernel that asserts order stability while it runs.

    Every processed event must be (a) not yet processed, (b) scheduled at
    or after the current virtual time, and (c) for equal timestamps, in
    strictly increasing scheduling order — the kernel's determinism
    contract from :mod:`repro.sim.kernel`.
    """

    def __init__(self, initial_time: float = 0.0, strict: bool = True):
        super().__init__(initial_time)
        self.strict = strict
        self.violations: list[str] = []
        self.events_checked = 0
        self._last_when = float("-inf")
        self._last_counter = -1

    def _fail(self, message: str) -> None:
        if self.strict:
            raise InvariantViolation(message)
        self.violations.append(message)

    def step(self) -> None:
        # Peek at whichever queue head the kernel will dispatch next, using
        # the same fast-lane-vs-heap selection rule as Environment.step —
        # fast-lane entries always sit at the current clock.
        fast = self._fast
        heap = self._heap
        if fast and (not heap or heap[0][0] > self.now or heap[0][1] > fast[0][0]):
            counter, event = fast[0]
            when = self.now
        else:
            when, counter, event = heap[0]
        self.events_checked += 1
        if when < self.now:
            self._fail(
                f"virtual time ran backwards: event at t={when} fired at "
                f"now={self.now}"
            )
        if when == self._last_when and counter <= self._last_counter:
            self._fail(
                f"same-timestamp ordering violated at t={when}: event "
                f"#{counter} fired after #{self._last_counter}"
            )
        if event.processed:
            self._fail(f"{event!r} was processed twice")
        self._last_when, self._last_counter = when, counter
        super().step()
        if not event.processed:
            self._fail(f"step() completed but {event!r} is not processed")

"""Exact fork-join replay of the timed SOR model: the DES fast path.

Under :func:`~repro.engine.timed.run_timed_replay`'s default model (see
:func:`eligible`) hits do not depend on timing, a disk is a queue-depth-1
FIFO server with a constant service time, and a recovery step is a
fork-join: all reads at once, XOR time once the last read lands, then one
spare write.  :class:`ForkJoinGroup` builds what every cell of one trace
shares (the plans, timing each distinct shape's build for Table IV; each
worker's read and target disks; the interned worker substreams, which
give the hit flags), and :meth:`ForkJoinGroup.run` replays one cell on a
``(time, seq)`` heap and a FIFO lane dispatched in the event kernel's
order, so every simulated field of the report, ``disk_stats`` included,
equals the DES's bit for bit (DESIGN §18).  The DES stays the reference
and serves everything else.
"""

from __future__ import annotations

import time
from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Sequence

from ..cache.registry import POLICIES, make_policy
from ..obs import runtime as _obs
from .backend import CodeBackend
from .stream import SATURATION_SAFE_POLICIES, intern_stream
from .tracesim import PlanCache, effective_partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.reconstruction import ReconstructionReport, SimConfig

__all__ = ["eligible", "ForkJoinGroup"]

# Entry kinds.  Heap entries are ``(when, seq, kind, worker, x, y)`` and
# lane entries ``(seq, kind, worker, x, y)``; ``x`` is a disk id or a hit
# count, ``y`` a grant's arrival time.
_INITS = 0  # a step's child processes start (lane)
_HITS = 1  # a step's hit timeouts fire (heap; lane for a zero hit time)
_GRANT_READ = 2  # a disk grants a read (lane)
_READ_DONE = 3  # a read's service ends (heap)
_LAST_CHILD = 4  # the child completion that finishes a step's AllOf (lane)
_ALL_OF = 5  # the AllOf fires; the worker starts its XOR (lane)
_XOR_DONE = 6  # the XOR timeout fires; the worker requests its write
_GRANT_WRITE = 7  # a disk grants a spare write (lane)
_WRITE_DONE = 8  # a spare write's service ends (heap)


def eligible(config: "SimConfig", policy_factory: Any = None) -> bool:
    """True when :class:`ForkJoinGroup` reproduces the DES for ``config``.

    A custom ``policy_factory`` takes the DES, and so do invalid timings,
    so that they raise exactly where they did.
    """
    return (
        policy_factory is None
        and config.disk_model == "fixed"
        and config.disk_scheduler == "fcfs"
        and config.parallel_chain_reads
        and config.topology is None
        and not config.sanitize
        and not config.verify_payloads
        and not config.response_quantiles
        and not config.respect_arrival_times
        and config.policy.strip().lower() in POLICIES
        and config.disk_latency > 0
        and config.hit_time >= 0
        and config.xor_time_per_chunk >= 0
    )


class ForkJoinGroup:
    """The shared part of every cell that replays one trace.

    ``config`` fixes what the skeleton depends on: the SOR worker count,
    the array's stripe count and the chunk size.  Cells then vary the
    policy, its kwargs, the cache size and the timings through
    :meth:`run`.  ``has_reads`` is False when some recovery step reads
    nothing; such traces take the DES.  ``plans`` is the group's own
    PlanCache: one miss per distinct shape (``plan_samples``).
    """

    def __init__(self, backend: CodeBackend, events: Sequence[Any], config: "SimConfig"):
        if not events:
            raise ValueError("no events to recover")
        events = sorted(events)
        self.backend = backend
        self.n_events = len(events)
        self.sor_workers = config.workers
        self.array_stripes = config.array_stripes
        self.chunk_bytes = config.chunk_bytes
        workers = self.workers = min(config.workers, len(events))

        # Table IV: time each distinct shape's build into a cold cache
        # before anything else reads it.
        plans = self.plans = PlanCache(backend)
        samples: list[float] = []
        for event in events:
            size_before = len(plans)
            t0 = time.perf_counter()
            plan = plans.get(event)
            if len(plans) != size_before:
                plan.priorities  # materialised inside the timed region
                samples.append(time.perf_counter() - t0)
        self.plan_samples = tuple(samples)
        if _obs.ENABLED:  # the builds; intern_stream below publishes its own hits
            hits, misses = plans.counts()
            _obs.counter("engine.plan_cache.hits").inc(hits)
            _obs.counter("engine.plan_cache.misses").inc(misses)

        geometry = backend.make_geometry(
            chunk_size=config.chunk_bytes, stripes=config.array_stripes
        )
        self.n_disks = geometry.num_disks
        disk_of = geometry.disk_index
        shapes: dict[int, tuple[list[tuple[int, ...]], list[int]]] = {}
        self.has_reads = True
        self.reads: list[list[tuple[int, ...]]] = [[] for _ in range(workers)]
        self.targets: list[list[int]] = [[] for _ in range(workers)]
        for i, event in enumerate(events):
            plan = plans.get(event)
            for step in plan.steps:
                # Every read misses once and every target is written, so
                # the DES checks each address too (DiskArray's lba()).
                for unit in step.reads:
                    geometry.check(event.stripe, unit)
                geometry.check(event.stripe, step.target)
            shape = shapes.get(id(plan))
            if shape is None:
                shape = shapes[id(plan)] = (
                    [tuple(disk_of(u) for u in step.reads) for step in plan.steps],
                    [disk_of(step.target) for step in plan.steps],
                )
                self.has_reads = self.has_reads and all(shape[0])
            self.reads[i % workers] += shape[0]
            self.targets[i % workers] += shape[1]
        self.steps = sum(len(t) for t in self.targets)
        self.stream = intern_stream(backend, events, plan_cache=plans)
        self.substreams = self.stream.worker_substreams(workers)
        self.plan_cache_hits = len(events) - len(samples)
        # Per worker: each request's "seen before" flag and the working-set
        # size, for the workers whose hits are forced (see run()).
        self._reused: list[bytearray] = []
        self._distinct: list[int] = []
        for bids, _ in self.substreams:
            seen = bytearray(self.stream.n_blocks)
            reused = bytearray(len(bids))
            for i, bid in enumerate(bids):
                if seen[bid]:
                    reused[i] = 1
                else:
                    seen[bid] = 1
            self._reused.append(reused)
            self._distinct.append(len(bids) - reused.count(1))
        #: replays by (hit flags, timings): cells whose flags agree share one.
        self._replays: dict[tuple, tuple] = {}

    def run(self, config: "SimConfig") -> "ReconstructionReport":
        """One cell's report; equal to ``run_timed_replay``'s in every
        simulated field when :func:`eligible` holds for ``config``."""
        from ..sim.reconstruction import ReconstructionReport

        if (config.workers, config.array_stripes, config.chunk_bytes) != (
            self.sor_workers, self.array_stripes, self.chunk_bytes
        ):
            raise ValueError("config does not match the group's skeleton")
        if not (self.has_reads and eligible(config)):
            raise ValueError("config is outside the fork-join model; run the DES")
        # The DES's partition, which is simulate_trace's.
        _, capacity = effective_partition(
            config.cache_blocks_total, config.workers, self.n_events
        )
        saturates = (
            capacity > 0
            and config.policy.strip().lower() in SATURATION_SAFE_POLICIES
            and not config.policy_kwargs
        )
        # Only stepped workers need a policy, but the first is built up
        # front, so a bad kwarg raises the DES's error even in a cell
        # whose workers are all forced.
        policy = make_policy(config.policy, capacity, **config.policy_kwargs)
        flags = []
        for w, (bids, hints) in enumerate(self.substreams):
            distinct = self._distinct[w]
            if distinct == len(bids) or (saturates and distinct <= capacity):
                # Forced outcome, as in the grid pass: a substream without
                # reuse never hits, and a slice holding the whole working
                # set never evicts, so a request hits iff it was seen before.
                flags.append(self._reused[w])
                continue
            if policy is None:
                policy = make_policy(config.policy, capacity, **config.policy_kwargs)
            flags.append(policy.request_many(bids, hints))
            policy = None
        key = (
            b"".join(flags),
            config.hit_time,
            config.disk_latency,
            config.xor_time_per_chunk,
        )
        replayed = self._replays.get(key)
        if _obs.ENABLED:
            # A forced worker's flags are its "seen before" vector itself.
            forced = sum(f is r for f, r in zip(flags, self._reused))
            _obs.counter("engine.forkjoin.cells").inc()
            _obs.counter("engine.forkjoin.replays").inc(1 if replayed is None else 0)
            _obs.counter("engine.forkjoin.workers_stepped").inc(self.workers - forced)
            _obs.counter("engine.forkjoin.workers_forced").inc(forced)
        if replayed is None:
            replayed = self._replays[key] = self._replay(
                flags, config.hit_time, config.disk_latency, config.xor_time_per_chunk
            )
        now, totals, peak, disk_stats = replayed
        requests = self.stream.total_requests
        hits = sum(f.count(1) for f in flags)
        misses = requests - hits
        overhead_total = sum(self.plan_samples)
        return ReconstructionReport(
            policy=config.policy,
            scheme_mode=self.backend.scheme_label,
            code=self.backend.code_label,
            p=self.backend.p,
            n_errors=self.n_events,
            chunks_recovered=self.steps,
            reconstruction_time=now,
            avg_response_time=sum(totals) / max(1, requests),
            max_response_time=peak,
            total_requests=requests,
            cache_hits=hits,
            cache_misses=misses,
            disk_reads=misses,
            disk_writes=self.steps,
            overhead_mean_s=(
                overhead_total / len(self.plan_samples) if self.plan_samples else 0.0
            ),
            overhead_total_s=overhead_total,
            plan_cache_hits=self.plan_cache_hits,
            disk_stats=disk_stats,
        )

    def _replay(
        self,
        flags: list[bytearray],
        hit_time: float,
        latency: float,
        xor_time: float,
    ) -> tuple[float, list[float], float, tuple[tuple[float, float, int], ...]]:
        """The event loop: the kernel's dispatch order, one entry per hop.

        A lane entry runs before the heap head unless that head is due now
        with a smaller seq, exactly the kernel's fast-lane rule.  Child
        completions that do not finish their step's AllOf only decrement
        a counter, so they take no entry.  Returns the final clock, the
        per-worker response totals (summed in completion order), the peak
        response and the per-disk ``(busy, queue wait, accesses)``.
        """
        workers = self.workers
        reads_of = self.reads
        targets_of = self.targets
        service = latency * 1.0  # times the disk's service_scale, as the DES
        step = [0] * workers
        cursor = [0] * workers
        pending = [0] * workers
        started = [0.0] * workers
        totals = [0.0] * workers
        peak = 0.0
        busy = [False] * self.n_disks
        waiting: list[deque] = [deque() for _ in range(self.n_disks)]
        served = [0] * self.n_disks
        queue_wait = [0.0] * self.n_disks
        heap: list = []
        lane: deque = deque()
        push, pop = heappush, heappop
        take, put = lane.popleft, lane.append
        now = 0.0
        seq = 0
        for w in range(workers):
            if reads_of[w]:
                seq += 1
                put((seq, _INITS, w, 0, 0.0))
        while True:
            if lane and (not heap or heap[0][0] > now or heap[0][1] > lane[0][0]):
                _, kind, w, x, y = take()
            elif heap:
                now, _, kind, w, x, y = pop(heap)
            else:
                break
            if kind == _READ_DONE or kind == _WRITE_DONE:
                served[x] += 1
                queue = waiting[x]
                if queue:
                    grant, waiter, arrived = queue.popleft()
                    seq += 1
                    put((seq, grant, waiter, x, arrived))
                else:
                    busy[x] = False
                if kind == _READ_DONE:
                    elapsed = now - started[w]
                    totals[w] += elapsed
                    if elapsed > peak:
                        peak = elapsed
                    pending[w] -= 1
                    if not pending[w]:
                        seq += 1
                        put((seq, _LAST_CHILD, w, 0, 0.0))
                else:
                    s = step[w] + 1
                    if s < len(targets_of[w]):
                        step[w] = s
                        seq += 1
                        put((seq, _INITS, w, 0, 0.0))
            elif kind == _GRANT_READ or kind == _GRANT_WRITE:
                queue_wait[x] += now - y
                seq += 1
                push(heap, (
                    now + service, seq,
                    _READ_DONE if kind == _GRANT_READ else _WRITE_DONE, w, x, 0.0,
                ))
            elif kind == _INITS:
                disks = reads_of[w][step[w]]
                flag = flags[w]
                pos = cursor[w]
                cursor[w] = pos + len(disks)
                pending[w] = len(disks)
                started[w] = now
                hits = 0
                for d in disks:
                    if flag[pos]:
                        hits += 1
                    elif busy[d]:
                        waiting[d].append((_GRANT_READ, w, now))
                    else:
                        busy[d] = True
                        seq += 1
                        put((seq, _GRANT_READ, w, d, now))
                    pos += 1
                if hits:
                    # The step's hit timeouts are due together with nothing
                    # due between them (grants take the lane), so one entry
                    # fires them all; a zero hit time's lane entry commutes
                    # with the step's grants.
                    seq += 1
                    if hit_time == 0.0:
                        put((seq, _HITS, w, hits, 0.0))
                    else:
                        push(heap, (now + hit_time, seq, _HITS, w, hits, 0.0))
            elif kind == _HITS:
                elapsed = now - started[w]
                total = totals[w]
                for _ in range(x):
                    total += elapsed
                totals[w] = total
                if elapsed > peak:
                    peak = elapsed
                pending[w] -= x
                if not pending[w]:
                    seq += 1
                    put((seq, _LAST_CHILD, w, 0, 0.0))
            elif kind == _LAST_CHILD:
                seq += 1
                put((seq, _ALL_OF, w, 0, 0.0))
            elif kind == _ALL_OF:
                delay = xor_time * len(reads_of[w][step[w]])
                seq += 1
                if delay == 0.0:
                    put((seq, _XOR_DONE, w, 0, 0.0))
                else:
                    push(heap, (now + delay, seq, _XOR_DONE, w, 0, 0.0))
            else:  # _XOR_DONE: request the spare write
                d = targets_of[w][step[w]]
                if busy[d]:
                    waiting[d].append((_GRANT_WRITE, w, now))
                else:
                    busy[d] = True
                    seq += 1
                    put((seq, _GRANT_WRITE, w, d, now))
        disk_stats = []
        for d, accesses in enumerate(served):
            busy = 0.0
            for _ in range(accesses):  # the DES adds one service per access
                busy += service
            disk_stats.append((busy, queue_wait[d], accesses))
        return now, totals, peak, tuple(disk_stats)

"""Minimal discrete-event simulation kernel.

This module is the engine underneath the storage simulator (our substitute
for DiskSim's event core).  It follows the SimPy process-based style:
simulation *processes* are Python generators that ``yield`` events; the
:class:`Environment` advances virtual time and resumes processes when the
events they wait on fire.

Only the features the storage stack needs are implemented, which keeps the
kernel small enough to test exhaustively:

* :class:`Event` — one-shot triggers carrying an optional value.
* :class:`Timeout` — an event scheduled at ``now + delay``.
* :class:`Process` — a running generator; itself an event that fires when
  the generator returns (value = the generator's return value).
* :class:`Resource` — a counted FIFO resource (disk queue slots, worker
  tokens).
* :class:`Container` — a capacity-bounded pool of continuous tokens
  (link bandwidth, node memory) with strictly FIFO waiters.
* :class:`AllOf` — barrier over several events (used for parallel reads).

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing tiebreaker), so a simulation run is a
pure function of its inputs.

Two hot-path mechanisms keep steady-state dispatch cheap without touching
that contract (the full contract is DESIGN.md §16):

* **Same-time fast lane** — immediate (``delay == 0``) schedules go to a
  FIFO deque instead of the heap.  Fast-lane entries always carry the
  current clock, and the dispatcher takes whichever of the two queue
  heads is smaller in the global ``(when, counter)`` order, so the event
  sequence is *identical* to the heap-only kernel while resource-grant
  and succeed chains stop paying ``heappush``/``heappop`` per hand-off.
* **Event/Timeout free-list pools** — a retired plain :class:`Event` or
  :class:`Timeout` whose only remaining reference is the dispatch loop
  itself is reset and reused for the next ``timeout()`` /
  ``schedule_now()`` instead of allocating.  Reuse is invisible: an
  event with any outside reference (a process variable, an
  :class:`AllOf` child list) is never recycled.  Pool hit rates are
  exported as ``kernel.pool.*`` obs counters when instrumentation is on.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable

from ..obs import runtime as _obs

#: Free-list size cap per pool: bounds memory after a retirement burst
#: while keeping steady-state chains (pool occupancy ~ in-flight events)
#: fully recycled.
_POOL_MAX = 1024

_INF = float("inf")

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Resource",
    "Request",
    "Container",
    "ContainerGet",
    "ContainerPut",
    "Store",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (re-triggering events, yielding non-events)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled with a value, waiting in the event queue), and *processed*
    (callbacks ran).  Waiting on an already-processed event resumes the
    waiter immediately at the current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "triggered", "processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = None
        self._ok: bool = True
        self.triggered = False
        self.processed = False

    @property
    def value(self) -> Any:
        return self._value

    @property
    def ok(self) -> bool:
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self.triggered = True
        self._value = value
        # Grant/hand-off chains call this once per event; pooling is on
        # exactly when the environment runs the stock scheduler (see
        # Environment.__init__), so the fast-lane append is inlined.
        env = self.env
        if env._pooling:
            env._counter = counter = env._counter + 1
            env._fast.append((counter, self))
        else:
            env._schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exc`` raised."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._ok = False
        self._value = exc
        self.env._schedule(self)
        return self

    def _process(self) -> None:
        callbacks = self.callbacks
        self.callbacks = None
        self.processed = True
        if callbacks:
            # The overwhelmingly common case is a single waiting Process;
            # calling it directly skips the iterator machinery.
            if len(callbacks) == 1:
                callbacks[0](self)
            else:
                for cb in callbacks:
                    cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which would corrupt heap order
            raise ValueError(f"delay must be >= 0, got {delay}")
        super().__init__(env)
        self.delay = delay
        self.triggered = True
        self._value = value
        env._schedule(self, delay)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers when the generator returns.
    The event value is the generator's return value (``StopIteration``
    payload).
    """

    __slots__ = ("_gen", "_target", "name", "_resume_cb")

    def __init__(self, env: "Environment", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(f"process requires a generator, got {gen!r}")
        super().__init__(env)
        self._gen = gen
        self._target: Event | None = None
        self.name = name or getattr(gen, "__name__", "process")
        # One bound method for the process's lifetime: creating it per
        # yield (every callbacks.append) is measurable on large sweeps,
        # and a single identity keeps interrupt's callbacks.remove exact.
        self._resume_cb = self._resume
        # Bootstrap: resume the generator as soon as the simulation runs.
        init = env._new_event()
        init.triggered = True
        init.callbacks.append(self._resume_cb)
        env._schedule(init)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        interrupt_ev = self.env._new_event()
        interrupt_ev.triggered = True
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        # Detach from whatever the process was waiting on.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        interrupt_ev.callbacks.append(self._resume_cb)
        self.env._schedule(interrupt_ev)

    def _resume(self, event: Event) -> None:
        # Hot path: slot reads (_ok/_value) instead of the ok/value
        # properties — a property is a function call, and this method
        # runs once per dispatched event in a timed sweep.
        self._target = None
        gen = self._gen
        while True:
            try:
                if event._ok:
                    next_ev = gen.send(event._value)
                else:
                    next_ev = gen.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            try:
                if next_ev.processed:
                    # Already happened: resume synchronously with its value.
                    event = next_ev
                    continue
                next_ev.callbacks.append(self._resume_cb)
            except AttributeError:
                gen.close()
                raise SimulationError(
                    f"process yielded non-event {next_ev!r}"
                ) from None
            self._target = next_ev
            return


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted."""

    __slots__ = ("resource", "queued_at")

    def __init__(self, env: "Environment", resource: "Resource"):
        # Event.__init__ flattened: one frame instead of two on a
        # per-request hot path (requests are never pooled, so every
        # grant chain allocates one).
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self.triggered = False
        self.processed = False
        self.resource = resource
        #: virtual time the request entered the wait queue (obs only).
        self.queued_at: float | None = None

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with a FIFO wait queue.

    ``capacity`` concurrent holders are allowed; further requests queue in
    arrival order.  Disks with queue depth 1, worker-pool tokens, and bus
    slots are all modelled with this.
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        # Grant-ordered; a dict (not a set) so any iteration is deterministic.
        self._holders: dict[Request, None] = {}
        self._queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> Request:
        req = Request(self.env, self)
        if len(self._holders) < self.capacity:
            self._holders[req] = None
            req.succeed(req)
            if _obs.ENABLED:
                _obs.counter("kernel.resource.granted_immediate").inc()
        else:
            self._queue.append(req)
            if _obs.ENABLED:
                _obs.counter("kernel.resource.queued").inc()
                req.queued_at = self.env.now
        return req

    def release(self, req: Request) -> None:
        holders = self._holders
        queue = self._queue
        if req in holders:
            del holders[req]
        else:
            # Releasing a queued (never-granted) request cancels it.
            try:
                queue.remove(req)
            except ValueError:
                raise SimulationError("release of a request not held or queued")
            return
        capacity = self.capacity
        while queue and len(holders) < capacity:
            nxt = queue.popleft()
            holders[nxt] = None
            nxt.succeed(nxt)
            if _obs.ENABLED and nxt.queued_at is not None:
                _obs.histogram("kernel.resource.wait_vtime").observe(
                    self.env.now - nxt.queued_at
                )


class ContainerGet(Event):
    """A pending withdrawal of ``amount`` tokens; fires when granted."""

    __slots__ = ("container", "amount", "queued_at")

    def __init__(self, env: "Environment", container: "Container", amount: float):
        # Event.__init__ flattened, as in Request: claims are per-transfer.
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self.triggered = False
        self.processed = False
        self.container = container
        self.amount = amount
        #: virtual time the claim entered the wait queue (obs only).
        self.queued_at: float | None = None

    def cancel(self) -> None:
        """Withdraw the claim: dequeue if waiting, refund if granted."""
        self.container._cancel(self)


class ContainerPut(Event):
    """A pending deposit of ``amount`` tokens; fires when accepted."""

    __slots__ = ("container", "amount", "queued_at")

    def __init__(self, env: "Environment", container: "Container", amount: float):
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self.triggered = False
        self.processed = False
        self.container = container
        self.amount = amount
        self.queued_at: float | None = None

    def cancel(self) -> None:
        """Withdraw the claim: dequeue if waiting, take back if accepted."""
        self.container._cancel(self)


class Container:
    """A pool of continuous tokens bounded by ``capacity``.

    Link bandwidth shares and node memory are modelled with this: a
    transfer ``get``s its rate tokens for the transfer's duration and
    ``put``s them back afterwards.  Both directions block when they
    cannot be satisfied and wait in strictly FIFO order — the head
    waiter is always served first, and a later, smaller claim never
    overtakes it.  That no-overtake rule is the determinism contract
    (DET003 spirit): the grant order is a pure function of the arrival
    order, never of the claim sizes in flight.

    All bookkeeping runs through ordinary :class:`Event` scheduling, so
    the sanitizer's ``SanitizedEnvironment`` (which re-dispatches
    stepwise and asserts order stability) observes and checks container
    grants like any other event.

    Interrupt safety: when a process waiting on a claim is interrupted,
    the claim stays queued (the kernel only detaches the waiter).  Call
    :meth:`ContainerGet.cancel` from the ``except Interrupt`` handler —
    it dequeues an ungranted claim, or refunds an already-granted one,
    so tokens are never leaked either way.
    """

    def __init__(self, env: "Environment", capacity: float, init: float = 0.0):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0.0 <= init <= capacity:
            raise ValueError(f"init must be in [0, {capacity}], got {init}")
        self.env = env
        self.capacity = float(capacity)
        self._level = float(init)
        self._getters: deque[ContainerGet] = deque()
        self._putters: deque[ContainerPut] = deque()

    @property
    def level(self) -> float:
        """Tokens currently available."""
        return self._level

    @property
    def queue_length(self) -> int:
        return len(self._getters) + len(self._putters)

    def get(self, amount: float) -> ContainerGet:
        """Claim ``amount`` tokens; the event fires once they are granted."""
        if amount <= 0:
            raise ValueError(f"get amount must be > 0, got {amount}")
        if amount > self.capacity:
            raise ValueError(
                f"get of {amount} can never succeed (capacity {self.capacity})"
            )
        ev = ContainerGet(self.env, self, float(amount))
        if not self._getters and amount <= self._level:
            self._level -= amount
            ev.succeed(ev)
            self._drain()  # the freed headroom may unblock a putter
            if _obs.ENABLED:
                _obs.counter("kernel.container.granted_immediate").inc()
        else:
            self._getters.append(ev)
            if _obs.ENABLED:
                _obs.counter("kernel.container.queued").inc()
                ev.queued_at = self.env.now
        return ev

    def put(self, amount: float) -> ContainerPut:
        """Deposit ``amount`` tokens; blocks while it would overflow."""
        if amount <= 0:
            raise ValueError(f"put amount must be > 0, got {amount}")
        if amount > self.capacity:
            raise ValueError(
                f"put of {amount} can never succeed (capacity {self.capacity})"
            )
        ev = ContainerPut(self.env, self, float(amount))
        if not self._putters and self._level + amount <= self.capacity:
            self._level += amount
            ev.succeed(ev)
            self._drain()
        else:
            self._putters.append(ev)
            if _obs.ENABLED:
                _obs.counter("kernel.container.queued").inc()
                ev.queued_at = self.env.now
        return ev

    def _drain(self) -> None:
        """Serve queue heads (strict FIFO, no overtaking) while they fit.

        ``_level`` is mirrored in a local for the scan: ``succeed`` only
        *schedules* waiter callbacks (nothing re-enters the container
        before this method returns), so the write-back at the end is
        safe and the per-grant attribute churn disappears.
        """
        getters = self._getters
        putters = self._putters
        level = self._level
        capacity = self.capacity
        progressed = True
        while progressed:
            progressed = False
            while getters and getters[0].amount <= level:
                ev = getters.popleft()
                level -= ev.amount
                ev.succeed(ev)
                progressed = True
                if _obs.ENABLED and ev.queued_at is not None:
                    _obs.histogram("kernel.container.wait_vtime").observe(
                        self.env.now - ev.queued_at
                    )
            while putters and level + putters[0].amount <= capacity:
                ev = putters.popleft()
                level += ev.amount
                ev.succeed(ev)
                progressed = True
                if _obs.ENABLED and ev.queued_at is not None:
                    _obs.histogram("kernel.container.wait_vtime").observe(
                        self.env.now - ev.queued_at
                    )
        self._level = level

    def _cancel(self, ev: "ContainerGet | ContainerPut") -> None:
        if not ev.triggered:
            queue: deque = (
                self._getters if isinstance(ev, ContainerGet) else self._putters
            )
            try:
                queue.remove(ev)
            except ValueError:
                raise SimulationError("cancel of a claim not queued here")
            return
        # Already granted: undo the token movement and re-balance.
        if isinstance(ev, ContainerGet):
            self._level += ev.amount
        else:
            self._level -= ev.amount
        self._drain()


class Store:
    """An unbounded FIFO channel between processes.

    ``put(item)`` never blocks; ``get()`` returns an event that fires with
    the next item (immediately if one is queued, else when one arrives).
    Work queues — e.g. recovery jobs flowing from the error detector to
    the reconstruction workers — are modelled with this.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = self.env._new_event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class AllOf(Event):
    """Barrier event: fires when every child event has fired.

    Value is the list of child values in the order given.  If any child
    fails, the barrier fails with the first failure.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for ev in self._events:
            if not isinstance(ev, Event):
                raise TypeError(f"AllOf requires events, got {ev!r}")
            if not ev.processed:
                self._pending += 1
                ev.callbacks.append(self._child_done)
        if self._pending == 0:
            self.succeed([ev.value for ev in self._events])

    def _child_done(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Race event: fires when the *first* child fires.

    Value is ``(index, value)`` of the winner.  Later children are left
    running (no cancellation); a first-to-fail child fails the race.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf requires at least one event")
        for i, ev in enumerate(self._events):
            if not isinstance(ev, Event):
                raise TypeError(f"AnyOf requires events, got {ev!r}")
            if ev.processed:
                if ev.ok:
                    self.succeed((i, ev.value))
                else:
                    self.fail(ev.value)
                return
        for i, ev in enumerate(self._events):
            ev.callbacks.append(lambda e, i=i: self._child_done(i, e))

    def _child_done(self, index: int, ev: Event) -> None:
        if self.triggered:
            return
        if ev.ok:
            self.succeed((index, ev.value))
        else:
            self.fail(ev.value)


class Environment:
    """Simulation environment: the clock and the event queue.

    Two queues back the clock (DESIGN.md §16): the classic ``(when,
    counter, event)`` heap for future timestamps, and a FIFO deque — the
    *fast lane* — holding ``(counter, event)`` pairs for events scheduled
    at the current instant (``delay == 0``).  Because ``now`` only moves
    forward, every fast-lane entry is at ``when == now`` and the lane is
    counter-sorted by construction; comparing its head counter with the
    heap head reproduces the exact global ``(when, counter)`` order
    without a single heap operation for same-time chains.

    Retired plain :class:`Event`/:class:`Timeout` objects whose only live
    reference is the dispatch loop are recycled through free-list pools.
    Pooling is on exactly when the environment runs the stock
    :meth:`_schedule`; results are bit-identical either way.
    """

    def __init__(self, initial_time: float = 0.0):
        self.now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._fast: deque[tuple[int, Event]] = deque()
        self._counter = 0
        # The pooled timeout() path schedules inline (no _schedule call),
        # so a subclass with a custom scheduler must never see a pool hit.
        self._pooling = type(self)._schedule is Environment._schedule
        self._event_pool: list[Event] = []
        self._timeout_pool: list[Timeout] = []

    # -- scheduling -----------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._counter = counter = self._counter + 1
        if delay == 0.0:
            self._fast.append((counter, event))
        else:
            heappush(self._heap, (self.now + delay, counter, event))

    # -- factory helpers ------------------------------------------------
    def event(self) -> Event:
        return self._new_event()

    def _new_event(self) -> Event:
        """A pristine plain :class:`Event`, recycled from the pool if possible."""
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev._value = None
            ev._ok = True
            ev.triggered = False
            ev.processed = False
            if _obs.ENABLED:
                _obs.counter("kernel.pool.event_hits").inc()
            return ev
        if _obs.ENABLED:
            _obs.counter("kernel.pool.event_misses").inc()
        return Event(self)

    def schedule_now(self, value: Any = None) -> Event:
        """An already-triggered event that fires at the current instant.

        The fast-lane idiom for "hand control back this timestep" —
        equivalent to ``timeout(0, value)`` but pool-recycled as a plain
        event (simlint PERF002 points constant ``timeout(0)`` calls here).
        """
        if self._pooling:
            # Pool + schedule inlined, same discipline as timeout(): a
            # pooling environment always runs the stock scheduler.
            pool = self._event_pool
            if pool:
                ev = pool.pop()
                ev.callbacks = []
                ev._ok = True
                ev.processed = False
                # ``triggered`` is already True: only dispatched (hence
                # triggered) events ever retire into the pool.
                if _obs.ENABLED:
                    _obs.counter("kernel.pool.event_hits").inc()
            else:
                if _obs.ENABLED:
                    _obs.counter("kernel.pool.event_misses").inc()
                ev = Event(self)
                ev.triggered = True
            ev._value = value
            self._counter = counter = self._counter + 1
            self._fast.append((counter, ev))
            return ev
        ev = self._new_event()
        ev.triggered = True
        ev._value = value
        self._schedule(ev)
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            if not delay >= 0:
                raise ValueError(f"delay must be >= 0, got {delay}")
            t = pool.pop()
            t.callbacks = []
            t._value = value
            t._ok = True
            # ``triggered`` stays True across a timeout's whole pooled
            # lifecycle — set at first construction, required at retire.
            t.processed = False
            t.delay = delay
            # Scheduling inlined: this is the single hottest call in a
            # timed sweep, and __init__ guarantees pool hits never bypass
            # a subclass's custom _schedule (its pools stay empty).
            self._counter = counter = self._counter + 1
            if delay == 0.0:
                self._fast.append((counter, t))
            else:
                heappush(self._heap, (self.now + delay, counter, t))
            if _obs.ENABLED:
                _obs.counter("kernel.pool.timeout_hits").inc()
            return t
        if _obs.ENABLED:
            _obs.counter("kernel.pool.timeout_misses").inc()
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> "AnyOf":
        return AnyOf(self, events)

    # -- execution ------------------------------------------------------
    def _retire(self, event: Event) -> None:
        """Recycle ``event`` into its free list if it is provably unreferenced.

        Only *exact* ``Event``/``Timeout`` instances are pooled (never
        subclasses — a recycled ``Process`` or ``Request`` could alias
        live state), and only when the dispatch loop holds the sole
        remaining reference.  Seen from inside this helper that is a
        refcount of exactly 3: the caller's local, this parameter, and
        ``getrefcount``'s own argument.  Any event a process variable or
        an ``AllOf`` child list still points at stays untouched.
        """
        cls = event.__class__
        if cls is Timeout:
            pool = self._timeout_pool
        elif cls is Event:
            pool = self._event_pool
        else:
            return
        if len(pool) < _POOL_MAX and getrefcount(event) == 3:
            pool.append(event)

    def step(self) -> None:
        """Process the single next event (fast lane before heap when tied)."""
        fast = self._fast
        heap = self._heap
        if fast and (not heap or heap[0][0] > self.now or heap[0][1] > fast[0][0]):
            event = fast.popleft()[1]
        else:
            when, _, event = heappop(heap)
            self.now = when
        event._process()
        if self._pooling:
            self._retire(event)

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        if self._fast:
            return self.now
        return self._heap[0][0] if self._heap else _INF

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        * ``until=None`` — run to quiescence.
        * ``until=<number>`` — run events at or before the deadline, then
          set ``now`` to the deadline.
        * ``until=<Event>`` — run until that event is *processed* and return
          its value (raising if it failed).

        ``until`` is first normalized to a ``(target, deadline)`` pair —
        the deadline is infinite for ``None`` and for an Event target — so
        one dispatch loop serves all three forms: the heap branch pops
        only while its head is due by the deadline, and the loop stops
        right after it dispatches the target.  The loop is inlined (no
        ``self.step()`` call) with the queues and ``heappop`` held in
        locals: it runs once per simulated event, and on large DES sweeps
        the attribute lookups plus the extra frame were a measurable slice
        of wall time (``benchmarks/test_microbench.py::
        test_kernel_stepwise_throughput`` is the stepwise baseline).
        Subclasses that override :meth:`step` (the checks module's
        ``SanitizedEnvironment``, the kernel bench's reference kernel)
        take :meth:`_run_stepwise` instead so their per-event hooks run.

        With observability enabled (:mod:`repro.obs`) the same loop runs;
        the ``kernel.run`` span and the ``kernel.*`` run metrics are
        published once, afterwards.  The dispatched count is derived, not
        counted: every schedule bumps ``_counter`` and appends to exactly
        one queue, so the events dispatched are the schedules minus the
        growth of the two queues.
        """
        target: Event | None = None
        deadline = _INF
        if isinstance(until, Event):
            target = until
        elif until is not None:
            deadline = float(until)
            if not deadline >= self.now:  # also rejects NaN
                raise ValueError(
                    f"deadline {deadline} is not at or after now={self.now}"
                )
        heap = self._heap
        fast = self._fast
        observed = _obs.ENABLED
        if observed:
            span = _obs.span("kernel.run")
            span.__enter__()
            dispatched_before = self._counter - len(heap) - len(fast)
        try:
            if type(self).step is not Environment.step:
                self._run_stepwise(target, deadline)
            elif target is None or not target.processed:
                pop = heappop
                take_fast = fast.popleft
                pooling = self._pooling
                tpool = self._timeout_pool
                epool = self._event_pool
                refs = getrefcount
                length = len  # LOAD_FAST beats LOAD_GLOBAL twice per event
                pool_max = _POOL_MAX
                # ``now`` mirrors ``self.now`` in a local; only heap pops
                # move it.
                now = self.now
                while True:
                    if fast and (
                        not heap or heap[0][0] > now or heap[0][1] > fast[0][0]
                    ):
                        event = take_fast()[1]
                    elif heap and heap[0][0] <= deadline:
                        when, _, event = pop(heap)
                        self.now = now = when
                    else:
                        break
                    # _process() inlined: the method call per event is a
                    # measurable slice of a dispatch-bound sweep.
                    cbs = event.callbacks
                    event.callbacks = None
                    event.processed = True
                    if cbs:
                        if length(cbs) == 1:
                            cbs[0](event)
                        else:
                            for cb in cbs:
                                cb(event)
                    if event is target:
                        break
                    # The recycle check is inlined (not `_retire`) because
                    # a bound method call per event costs as much as the
                    # heap op it saves; seen from here the sole-reference
                    # count is 2 (the loop local plus ``getrefcount``'s
                    # argument).
                    if pooling:
                        cls = event.__class__
                        if cls is Timeout:
                            if length(tpool) < pool_max and refs(event) == 2:
                                tpool.append(event)
                        elif cls is Event:
                            if length(epool) < pool_max and refs(event) == 2:
                                epool.append(event)
            if target is not None:
                if not target.processed:
                    raise SimulationError(
                        "event queue drained before target event fired "
                        "(deadlock?)"
                    )
                if not target.ok:
                    raise target.value
                return target.value
            if until is not None:
                self.now = deadline
            return None
        finally:
            if observed:
                dispatched = (
                    self._counter - len(heap) - len(fast) - dispatched_before
                )
                span["events"] = dispatched
                span.__exit__(None, None, None)
                _obs.counter("kernel.runs").inc()
                _obs.counter("kernel.events_dispatched").inc(dispatched)
                _obs.gauge("kernel.virtual_time").set(self.now)

    def _run_stepwise(self, target: Event | None, deadline: float) -> None:
        """:meth:`run`'s loop via ``self.step()`` — honours overridden dispatch."""
        heap = self._heap
        fast = self._fast
        while (fast or (heap and heap[0][0] <= deadline)) and (
            target is None or not target.processed
        ):
            self.step()

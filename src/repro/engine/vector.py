"""Vectorized (numpy) grid replay: policy state as arrays, not dicts.

The stepped python replay walks every request through ``request_many``
once per (policy, capacity, workers) cell.  This module replays the same
interned streams as **lanes**: one lane per (per-worker capacity x SOR
worker) pair, all lanes advanced together one *time step* — request
``t`` of every worker substream — per iteration.  The python loop is
then O(longest substream), a few hundred steps for the fig8/fig9 axes,
and every per-request decision becomes a numpy op across all lanes.

Because each step costs a roughly fixed number of numpy dispatches
regardless of how many lanes it touches, the backend is built around a
**fleet**: lanes from *different streams* (codes) — and for the two
bucket-structured policies, from different *policies* — share one step
loop.  Lanes are sorted by substream length across the whole fleet, so
the active set at step ``t`` is always a contiguous prefix and the five
codes' grids cost one max-length loop instead of five.

Exactness, not approximation.  Each kernel mirrors its policy's
``request_many`` decision-for-decision:

* **fifo** — hits never reorder arrival, so residency is one compare of
  the block's admission index against the lane's admission counter
  (the same trick ``FIFOCache.request_many`` uses); the update is
  branchless (``where(hit, old, counter)``).
* **lru** — a block's recency rank equals its Mattson reuse distance,
  counted as "blocks with a later last access"; a hit at capacity ``c``
  is ``rank < c``, so one rank histogram per stream answers every
  capacity at once (pinned to the Fenwick profile by the equivalence
  tests).
* **lfu / fbf** — one unified *bucket* kernel: both keep blocks in
  priority buckets with LRU order inside each bucket and evict from the
  smallest occupied bucket.  LFU moves a hit up one bucket and admits
  at 1; FBF (registry default: 3 queues, demote-on-hit) moves a hit
  *down* one bucket and admits at ``min(priority, 3)``.  A per-lane
  flag selects the transition, so both policies ride one loop.
* **arc** — cases I-IV exactly as the python ``ARCCache``, four lists
  as packed state codes, the adaptation target ``p`` in float64 with
  bit-identical arithmetic, and the two ``_replace`` flavors (``>``
  vs ``>=`` on a B2 ghost hit) preserved.

Queue-ordered eviction uses **packed rings** (:class:`_Rings`): per
(lane, queue) doubly-linked circular lists over a step-major arena —
step ``t``'s appends land in a contiguous slot range, so a whole step's
links are slice writes.  Rings hold *only current entries*: a block's
old entry is unlinked the moment it moves, so the ring head is always
the true LRU victim and "is this ring empty" is one structural probe.
Each block's state word packs ``(queue-code << shift) | ring-slot``
into int32, making presence, queue membership, and queue position one
gather; the bucket kernel additionally keeps a per-lane occupancy
bitmask whose lowest set bit (read off the float exponent) is the
victim bucket.

Two structural exactness facts the kernels lean on:

* LFU's mirrored ``min_freq`` always equals the smallest occupied
  bucket at eviction time (every miss re-anchors it at 1 with the
  admitted block, and the hit path bumps it exactly when its bucket
  drains), so the victim bucket is ``argmax(counts > 0)`` and the
  python mirror needs no replica here.
* A lane whose per-worker capacity covers its worker's whole working
  set never evicts, so every policy scores it identically:
  ``hits = requests - distinct``.  Such saturated lanes are solved
  analytically and never enter a kernel.

Blocks are renamed to per-worker-local dense ids (policies never compare
ids, only test equality — the same argument that makes interning exact),
and every policy admits on miss / evicts only when full, so unsaturated
lanes at any capacity step exactly.

The python path remains the golden reference: the property tests replay
random small grids through both backends and require bit-identical rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..obs import runtime as _obs

if TYPE_CHECKING:  # pragma: no cover
    from .stream import InternedStream

__all__ = ["VECTOR_POLICIES", "VectorFleet", "VectorReplay"]

#: Registry policies with an exact vector kernel.
VECTOR_POLICIES = frozenset({"fifo", "lru", "lfu", "arc", "fbf"})

# Guard on the per-worker substream length; the packed node words in
# _Rings bound total arena slots, not steps, so this is just a sanity
# ceiling far beyond the bench axes.
_MAX_STEPS = 1 << 24

# ARC list codes in the packed state word.
_T1, _T2, _B1, _B2 = 1, 2, 3, 4


class _WorkerView:
    """Per-worker-local request matrix, workers sorted by length.

    ``req[t, j]`` is the ``t``-th request of the ``j``-th *longest*
    worker substream as a dense local id in ``[0, n_local[j])``;
    ``hints[t, j]`` carries the FBF favorability class of the same
    request.  Sorting workers by length keeps every stream's active
    workers a contiguous prefix at any step.
    """

    __slots__ = ("workers", "steps", "n_local", "lengths", "req", "hints",
                 "max_local", "max_freq", "total_requests")

    def __init__(self, stream: "InternedStream", workers: int):
        subs = stream.worker_substreams(workers)
        self.workers = workers
        raw_lengths = np.array(
            [len(b) for b, _ in subs] or [0], dtype=np.int64
        )[: len(subs)]
        order = np.argsort(-raw_lengths, kind="stable")
        lengths = raw_lengths[order]
        self.lengths = lengths
        steps = self.steps = int(lengths[0]) if len(subs) else 0
        if steps >= _MAX_STEPS:
            raise ValueError("substream too long for the vector backend")
        total = int(lengths.sum())
        hints = np.ones((steps, workers), dtype=np.int32)
        if total:
            # One combined unique over worker-tagged block ids replaces
            # the per-worker loop: tags sort by (worker, bid), so each
            # worker's distinct blocks are a contiguous run and the
            # local id is the rank within that run -- exactly what the
            # per-worker np.unique produced.
            cat = np.concatenate(
                [np.frombuffer(subs[w][0], dtype=np.int32) for w in order]
            ).astype(np.int64)
            hcat = np.concatenate(
                [np.frombuffer(subs[w][1], dtype=np.int32) for w in order]
            )
            jidx = np.repeat(np.arange(workers, dtype=np.int64), lengths)
            row0 = np.concatenate(([0], np.cumsum(lengths)[:-1]))
            t_in = np.arange(total, dtype=np.int64) - np.repeat(row0, lengths)
            n_keys = max(stream.n_blocks, 1)
            uniq, inv = np.unique(jidx * n_keys + cat, return_inverse=True)
            ustart = np.searchsorted(
                uniq, np.arange(workers, dtype=np.int64) * n_keys
            )
            n_local = np.diff(np.append(ustart, len(uniq)))
            # Local ids are < n_local <= substream length: int16 halves
            # the request-matrix traffic whenever they fit.
            req_dt = np.int16 if int(n_local.max()) < 2**15 else np.int32
            req = np.zeros((steps, workers), dtype=req_dt)
            flat = t_in * workers + jidx
            req.ravel()[flat] = (inv - ustart[jidx]).astype(req_dt)
            hints.ravel()[flat] = hcat
            max_freq = int(np.bincount(inv).max())
        else:
            n_local = np.zeros(max(workers, 1), dtype=np.int64)[:workers]
            req = np.zeros((steps, workers), dtype=np.int16)
            max_freq = 1
        self.n_local = n_local
        self.req = req
        self.hints = hints
        self.max_local = int(n_local.max()) if workers else 0
        self.max_freq = max_freq
        self.total_requests = int(lengths.sum())


class _Rings:
    """Per-(lane, queue) doubly-linked circular lists over a packed arena.

    Unlike a lazy queue, rings hold *only current entries*: when a block
    moves (or is evicted), its old entry is unlinked on the spot, so the
    head of a ring is always its oldest resident and "queue non-empty"
    is a structural fact.  The layout is tuned for the kernels' step
    loop:

    * the arena is *step-major and prefix-packed*: step ``t``'s slots
      are the contiguous run ``rowstart[t] + [0, phases * m_t)``, sized
      by the active-lane prefix — appending a whole step is three slice
      writes plus one link scatter, and the arena holds exactly one slot
      per (active lane, step, phase), nothing more;
    * each ring owns a dummy slot that is both head and tail anchor —
      appending to an empty ring and to a populated one are the same
      link writes;
    * each lane owns a self-looped *trash* slot; a block with no live
      entry points there, so unlinking "nothing" degenerates to writing
      the trash slot's links to itself.

    Slot indices (arena + dummies + trash) fit in ``shift`` bits so the
    kernels can pack a small per-block code (bucket / ARC list) into the
    high bits of one int32 node pointer — block state and queue position
    are then a single gather.  Lanes touch disjoint slots, so one
    vectorized call may operate on any set of distinct lanes.
    """

    __slots__ = ("nxt", "prv", "ab", "rowstart", "dummy0", "trash",
                 "shift", "_L")

    def __init__(self, lanes: "_Lanes", n_queues: int, phases: int = 1):
        L = lanes.n_lanes
        counts = np.asarray(lanes.prefix, dtype=np.int64) * phases
        rowstart = np.concatenate(([0], np.cumsum(counts)))
        arena = int(rowstart[-1])
        total = arena + L * n_queues + L
        # Codes share the node word above `shift`; int32 caps the sum
        # of index and code bits at 31.
        shift = max(total.bit_length(), 1)
        if shift + max(n_queues - 1, 1).bit_length() > 31:
            raise ValueError("lane set too large for packed ring nodes")
        self.shift = shift
        self.rowstart = rowstart.tolist()
        self.dummy0 = arena
        self._L = L
        self.ab = np.empty(arena, dtype=np.int32)
        self.nxt = np.empty(total, dtype=np.int32)
        self.prv = np.empty(total, dtype=np.int32)
        anchors = np.arange(arena, total, dtype=np.int32)
        self.nxt[arena:] = anchors  # empty rings + self-looped trash
        self.prv[arena:] = anchors
        self.trash = anchors[L * n_queues:]

    def unlink(self, slots) -> None:
        """Unlink entry slots (trash slots unlink to a harmless self-loop)."""
        nxt, prv = self.nxt, self.prv
        pp = prv[slots]
        pn = nxt[slots]
        nxt[pp] = pn
        prv[pn] = pp

    def append_step(self, q, lanes, start: int, m: int, blocks):
        """Append one slot per active lane at tails of rings ``q``.

        The step's slots are the contiguous run ``[start, start + m)``
        (same order as ``lanes``), so the per-slot writes are slices;
        returns the int32 slot ids.
        """
        nxt, prv = self.nxt, self.prv
        slots = np.arange(start, start + m, dtype=np.int32)
        self.ab[start:start + m] = blocks
        dq = q * self._L + lanes + self.dummy0
        tl = prv[dq]
        nxt[tl] = slots
        prv[start:start + m] = tl
        nxt[start:start + m] = dq
        prv[dq] = slots
        return slots

    def append_at(self, q, lanes, slots, blocks) -> None:
        """Append at arbitrary (reserved, unique) slot ids."""
        nxt, prv = self.nxt, self.prv
        self.ab[slots] = blocks
        dq = q * self._L + lanes + self.dummy0
        tl = prv[dq]
        nxt[tl] = slots
        prv[slots] = tl
        nxt[slots] = dq
        prv[dq] = slots

    def pop_head(self, q, lanes):
        """Unlink and return (slot, block, now-empty) at the heads of ``q``.

        Rings must be non-empty — guaranteed structurally by the
        kernels: they only pop rings whose occupancy they just checked
        or whose size their counters prove positive, exactly where the
        python policies pop.
        """
        nxt, prv = self.nxt, self.prv
        dv = q * self._L + lanes + self.dummy0
        victim = nxt[dv]
        vn = nxt[victim]
        nxt[dv] = vn
        prv[vn] = dv
        return victim, self.ab[victim], vn == dv


class _LaneSpec:
    """One (stream view, capacity set) contribution to a lane set."""

    __slots__ = ("view", "caps", "flavor", "slot_offset")

    def __init__(self, view: _WorkerView, caps: tuple[int, ...],
                 flavor: str | None, slot_offset: int):
        self.view = view
        self.caps = caps
        self.flavor = flavor  # "lfu" | "fbf" | None
        self.slot_offset = slot_offset


class _Lanes:
    """Fleet lane set: unsaturated (capacity, worker) lanes of many specs.

    A lane exists only where ``cap < n_local[worker]`` — saturated cells
    never evict and are scored analytically.  Lanes are sorted by
    substream length across *all* specs, so the per-step active set is
    the prefix ``[:prefix[t]]``.  ``kflat[t]`` is the flat index of each
    active lane's (lane, block) state cell; ``kloc[t]`` the local block
    id; ``admit[t]`` the admission bucket (bucket kernel only);
    ``slot`` maps each lane to its (spec, capacity) output slot.
    """

    __slots__ = ("n_lanes", "state_size", "base", "widths", "capv",
                 "lengths", "prefix", "last_step", "kflat", "kloc",
                 "admit", "is_lfu", "slot", "n_buckets", "ar")

    def __init__(self, specs: Sequence[_LaneSpec], with_admit: bool = False):
        lens, caps, slots, widths, worker_of, lfu = [], [], [], [], [], []
        for spec in specs:
            view = spec.view
            caps_arr = np.asarray(spec.caps, dtype=np.int64)
            live = caps_arr[None, :] < view.n_local[:, None]
            per_worker = live.sum(axis=1)
            workers = np.repeat(
                np.arange(view.workers, dtype=np.int64), per_worker
            )
            if workers.size:
                cap_idx = np.concatenate(
                    [np.flatnonzero(live[w]) for w in range(view.workers)
                     if per_worker[w]]
                )
            else:
                cap_idx = np.empty(0, dtype=np.int64)
            lens.append(view.lengths[workers])
            caps.append(caps_arr[cap_idx])
            slots.append(cap_idx + spec.slot_offset)
            widths.append(np.full(workers.size, view.max_local, np.int64))
            worker_of.append(workers)
            lfu.append(np.full(workers.size, spec.flavor == "lfu", bool))
        lengths = np.concatenate(lens) if lens else np.empty(0, np.int64)
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        self.lengths = lengths
        L = self.n_lanes = int(lengths.size)
        self.capv = np.concatenate(caps)[order].astype(np.int32) if L else \
            np.empty(0, np.int32)
        self.slot = np.concatenate(slots)[order] if L else \
            np.empty(0, np.int64)
        self.is_lfu = np.concatenate(lfu)[order] if L else np.empty(0, bool)
        widths_s = np.concatenate(widths)[order] if L else \
            np.empty(0, np.int64)
        self.widths = widths_s
        base = np.concatenate(([0], np.cumsum(widths_s)))[:-1]
        self.state_size = int(widths_s.sum())
        if self.state_size < 2**31:  # halve the kflat gather-index matrix
            base = base.astype(np.int32)
        self.base = base
        steps = int(lengths[0]) if L else 0
        self.last_step = steps
        # active[t] = lanes with a request at step t (length > t, hence
        # strictly before -t in the ascending -lengths: side="left").
        self.prefix = np.searchsorted(
            -lengths, -np.arange(steps), side="left"
        ).tolist()
        # Request/admit matrices: build spec-contiguous column blocks,
        # then permute columns into global lane order in one gather
        # (much cheaper than scattering strided columns per spec).
        kloc_dt = np.result_type(
            np.int16, *(s.view.req.dtype for s in specs)
        ) if specs else np.int16
        kloc_u = np.zeros((steps, L), dtype=kloc_dt)
        admit_u = np.ones((steps, L), dtype=np.int8) if with_admit else None
        max_freq = 1
        col0 = 0
        for si, spec in enumerate(specs):
            view = spec.view
            workers = worker_of[si]
            n = workers.size
            if n:
                # view.req spans the view's longest worker, which may be
                # longer than `steps` when that worker's every cell is
                # saturated; rows past `steps` belong to no active lane.
                rows = min(view.steps, steps)
                kloc_u[:rows, col0:col0 + n] = view.req[:rows, workers]
                if spec.flavor == "lfu":
                    max_freq = max(max_freq, view.max_freq)
                elif spec.flavor == "fbf" and admit_u is not None:
                    if view.hints.size and int(view.hints.min()) < 1:
                        raise ValueError("priority must be a positive int")
                    admit_u[:rows, col0:col0 + n] = np.minimum(
                        view.hints[:rows, workers], 3
                    )
            col0 += n
        self.kloc = kloc_u[:, order] if L else kloc_u
        self.admit = admit_u[:, order] if (with_admit and L) else admit_u
        self.kflat = self.base[None, :] + self.kloc
        # Bucket count for the unified kernel: LFU frequencies go up to
        # max_freq; FBF uses 1..3 (plus the unused ring 0).
        self.n_buckets = max(max_freq + 1, 4)
        self.ar = np.arange(L, dtype=np.int64)


def _saturated_hits(view: _WorkerView, caps: tuple[int, ...]) -> list[int]:
    """Analytic hits of the saturated cells, per capacity."""
    caps_arr = np.asarray(caps, dtype=np.int64)
    live = caps_arr[None, :] < view.n_local[:, None]
    extra = (view.lengths - view.n_local).astype(np.int64)
    return [int(extra[~live[:, c]].sum()) for c in range(len(caps))]


def _kernel_fifo(lanes: _Lanes):
    """FIFO: hit iff the block's admission index is within the last
    ``cap`` admissions of the lane (hits never reorder arrival)."""
    last_admit = np.full(lanes.state_size, -1, dtype=np.int32)
    adm = np.zeros(lanes.n_lanes, dtype=np.int32)
    hits = np.zeros(lanes.n_lanes, dtype=np.int64)
    capv = lanes.capv
    kflat = lanes.kflat
    prefix = lanes.prefix
    for t in range(lanes.last_step):
        m = prefix[t]
        kk = kflat[t, :m]
        la = last_admit[kk]
        hit = (la >= 0) & (la >= adm[:m] - capv[:m])
        hits[:m] += hit
        last_admit[kk] = np.where(hit, la, adm[:m])
        adm[:m] += ~hit
    return hits


def _kernel_bucket(lanes: _Lanes):
    """Unified LFU/FBF: priority buckets with in-bucket LRU order,
    victim from the smallest occupied bucket.  Per-lane ``is_lfu``
    selects hit-promote/admit-at-1 (LFU) vs hit-demote/admit-at-hint
    (FBF).  Each block's node word packs (bucket << shift) | ring slot,
    so presence, bucket, and queue position are one gather; rings hold
    only current entries, so occupancy checks and victim picks are
    structural."""
    L = lanes.n_lanes
    FQ = lanes.n_buckets
    rings = _Rings(lanes, FQ)
    S = rings.shift
    node = np.repeat(rings.trash, lanes.widths)
    size = np.zeros(L, dtype=np.int32)
    hits = np.zeros(L, dtype=np.int64)
    capv = lanes.capv
    # Hit transition as one fused op: LFU promotes, FBF demotes (floored
    # at 1); misses are overwritten by the admission bucket anyway.
    dirv = np.where(lanes.is_lfu, 1, -1).astype(np.int32)
    one = np.int32(1 << S)
    mask = np.int32((1 << S) - 1)
    # Per-lane bucket-occupancy bitmask (bit b set = ring b non-empty):
    # the victim bucket is the lowest set bit — read off the float
    # exponent, exact for any bucket count — instead of probing every
    # ring's dummy per evicting lane.
    occ = np.zeros(L, dtype=np.int64 if FQ > 31 else np.int32)
    one_b = occ.dtype.type(1)
    nxt = rings.nxt
    base = lanes.base
    trash0 = int(rings.trash[0])
    ar32 = np.arange(L, dtype=np.int32)
    arL = ar32 + np.int32(rings.dummy0)
    rowstart = rings.rowstart
    prefix = lanes.prefix
    steps = lanes.last_step
    kks = [lanes.kflat[t, :prefix[t]] for t in range(steps)]
    klocs = [lanes.kloc[t, :prefix[t]] for t in range(steps)]
    adms = [lanes.admit[t, :prefix[t]] for t in range(steps)]
    for t in range(steps):
        m = prefix[t]
        kk = kks[t]
        nv = node[kk]
        hit = nv >= one
        hits[:m] += hit
        b = nv >> S
        up = np.maximum(b + dirv[:m], 1)
        newb = np.where(hit, up, adms[t])
        # Unlink the block's current entry (no-op self-loop on miss).
        rings.unlink(nv & mask)
        # Clear old-bucket bits whose ring the unlink emptied (miss
        # lanes probe the unused bucket-0 dummy and clear unused bit 0).
        dqo = b * L + arL[:m]
        occ[:m] &= ~((nxt[dqo] == dqo) * np.left_shift(one_b, b))
        miss = ~hit
        evm = miss & (size[:m] >= capv[:m])
        if evm.any():
            ev = np.flatnonzero(evm)
            x = occ[ev]
            vq = np.frexp((x & -x).astype(np.float64))[1] - 1
            _, vb, emptied = rings.pop_head(vq, ev)
            node[base[ev] + vb] = trash0 + ev
            occ[ev] = x & ~(np.left_shift(one_b, vq) * emptied)
        size[:m] += miss ^ evm
        slots = rings.append_step(newb, ar32[:m], rowstart[t], m, klocs[t])
        occ[:m] |= np.left_shift(one_b, newb)
        node[kk] = (newb << S) | slots
    return hits


def _kernel_arc(lanes: _Lanes):
    """ARC cases I-IV, four lists as node codes, float64 ``p``.

    Each directory block's node word packs (list code << shift) | ring
    slot — 0 absent, 1/2 = T1/T2, 3/4 = B1/B2.  Only four occupancy
    counters are maintained (T1, T2, L1 = T1+B1, whole directory);
    B1/B2 sizes are derived in the ghost branch.  Case II and III share
    one merged ``_replace`` (the ``>`` vs ``>=`` flavors fold into a
    per-lane strictness flag), and case IV's drops and replacements
    collapse into one five-group head pop: the groups touch disjoint
    (lane, ring) pairs and none of their decisions depends on another
    group's update.
    """
    L = lanes.n_lanes
    rings = _Rings(lanes, 5, phases=2)
    S = rings.shift
    node = np.repeat(rings.trash, lanes.widths)
    t1n = np.zeros(L, dtype=np.int32)
    t2n = np.zeros(L, dtype=np.int32)
    l1n = np.zeros(L, dtype=np.int32)
    ldn = np.zeros(L, dtype=np.int32)
    p = np.zeros(L, dtype=np.float64)
    hits = np.zeros(L, dtype=np.int64)
    capv = lanes.capv
    cfloat = capv.astype(np.float64)
    base = lanes.base
    trash0 = np.int32(rings.trash[0])
    one32 = np.int32(1)
    ar32 = np.arange(L, dtype=np.int32)
    rowstart = rings.rowstart
    mask = np.int32((1 << S) - 1)
    t1c = np.int32(_T1)
    t2c = np.int32(_T2)
    qcodes = np.array([_B1, _T1, _B2, _T1, _T2], dtype=np.int64)
    prefix = lanes.prefix
    steps = lanes.last_step
    kks = [lanes.kflat[t, :prefix[t]] for t in range(steps)]
    klocs = [lanes.kloc[t, :prefix[t]] for t in range(steps)]

    def demote(sel, vq, gbase):
        """Evict rings ``vq``'s LRU entries to the matching ghost ring."""
        _, vb, _ = rings.pop_head(vq, sel)
        vcell = base[sel] + vb
        gq = vq + 2
        gslot = (sel + gbase).astype(np.int32)
        rings.append_at(gq, sel, gslot, vb)
        node[vcell] = (gq.astype(np.int32) << S) | gslot
        return vcell

    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(steps):
            m = prefix[t]
            kk = kks[t]
            gbase = rowstart[t] + m  # this step's phase-1 (ghost) slots
            nv = node[kk]
            e = nv >> S
            # Case I: resident hit — T1 entries move to T2 (leaving L1).
            r1 = e == _T1
            hit = r1 | (e == _T2)
            hits[:m] += hit
            t1n[:m] -= r1
            t2n[:m] += r1
            l1n[:m] -= r1
            # Unlink the block's entry (ghosts too; miss = trash no-op).
            rings.unlink(nv & mask)
            # Cases II/III: ghost hit — adapt p, make room, go to T2.
            gh = e >= _B1
            if gh.any():
                sel = np.flatnonzero(gh)  # == the ghost lanes' ids
                in2 = e[sel] == _B2
                b1v = l1n[sel] - t1n[sel]
                b2v = ldn[sel] - l1n[sel] - t2n[sel]
                psel = p[sel]
                pup = np.minimum(cfloat[sel],
                                 psel + np.maximum(b2v / b1v, 1.0))
                pdn = np.maximum(0.0, psel - np.maximum(b1v / b2v, 1.0))
                psel = np.where(in2, pdn, pup)
                p[sel] = psel
                tl = t1n[sel]
                cond = (tl >= 1) & np.where(in2, tl >= psel, tl > psel)
                demote(sel, np.where(cond, 1, 2), gbase)
                t1n[sel] -= cond
                t2n[sel] -= ~cond
                l1n[sel] -= ~in2  # the hit ghost leaves B1...
                t2n[sel] += 1     # ...or B2 (derived) and joins T2
            # Case IV: cold miss — trim the directory, admit into T1.
            missm = e == 0
            anymiss = bool(missm.any())
            if anymiss:
                ms = np.flatnonzero(missm)
                cm = capv[ms]
                t1m = t1n[ms]
                l1 = l1n[ms]
                ld = ldn[ms]
                case_a = l1 == cm
                a1m = case_a & (t1m < cm)
                a2m = case_a ^ a1m
                case_b = ~case_a & (ld >= cm)
                b2cm = case_b & (ld == cm + cm)
                repm = a1m | case_b
                rl = ms[repm]
                t1r = t1m[repm]
                cond = (t1r >= 1) & (t1r > p[rl])
                groups = [ms[a1m], ms[a2m], ms[b2cm], rl[cond], rl[~cond]]
                sizes = [g.size for g in groups]
                sel = np.concatenate(groups)
                if sel.size:
                    n_drop = sizes[0] + sizes[1] + sizes[2]
                    qv = np.repeat(qcodes, sizes)
                    _, vb, _ = rings.pop_head(qv, sel)
                    vcell = base[sel] + vb
                    node[vcell[:n_drop]] = trash0 + sel[:n_drop]
                    grl = sel[n_drop:]
                    if grl.size:
                        gq = qv[n_drop:] + 2
                        gslot = (grl + gbase).astype(np.int32)
                        rings.append_at(gq, grl, gslot, vb[n_drop:])
                        node[vcell[n_drop:]] = \
                            (gq.astype(np.int32) << S) | gslot
                    t1n[groups[3]] -= 1
                    t2n[groups[4]] -= 1
                # Admission +1 fused with the drop decrements: groups 0/1
                # leave L1, groups 0/1/2 leave the directory, group 1
                # leaves T1.
                t1n[ms] += one32 - a2m
                l1n[ms] += one32 - case_a
                ldn[ms] += one32 - (case_a | b2cm)
            # Request lands in T1 on a miss, T2 on any kind of hit.
            code = np.where(missm, t1c, t2c) if anymiss \
                else np.full(m, _T2, dtype=np.int32)
            slots = rings.append_step(code, ar32[:m], rowstart[t], m,
                                      klocs[t])
            node[kk] = (code << S) | slots
    return hits


def _lru_fleet(jobs: Sequence[tuple[_WorkerView, tuple[int, ...]]]):
    """All jobs' LRU hits from one rank-histogram loop.

    A block's recency rank equals its reuse distance, so one histogram
    of ranks per job answers every capacity (including saturated ones)
    as a prefix sum — the vector twin of the Fenwick fast path.
    """
    n_jobs = len(jobs)
    lengths = np.concatenate([v.lengths for v, _ in jobs]) if n_jobs else \
        np.empty(0, np.int64)
    job_of = np.concatenate(
        [np.full(v.workers, j, np.int64) for j, (v, _) in enumerate(jobs)]
    ) if n_jobs else np.empty(0, np.int64)
    col_of = np.concatenate(
        [np.arange(v.workers, dtype=np.int64) for v, _ in jobs]
    ) if n_jobs else np.empty(0, np.int64)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    job_of = job_of[order]
    col_of = col_of[order]
    W = int(lengths.size)
    steps = int(lengths[0]) if W else 0
    nloc = max((v.max_local for v, _ in jobs), default=0)
    H = nloc + 1
    req_dt = np.result_type(
        np.int16, *(v.req.dtype for v, _ in jobs)
    ) if n_jobs else np.int16
    req = np.zeros((steps, W), dtype=req_dt)
    for j, (view, _) in enumerate(jobs):
        cols = np.flatnonzero(job_of == j)
        req[: view.steps, cols] = view.req[:, col_of[cols]]
    active = np.searchsorted(
        -lengths, -np.arange(steps), side="left"
    ).tolist()
    last_dt = np.int16 if steps < 2**15 - 1 else np.int32
    last = np.full((W, nloc), -1, dtype=last_dt)
    histmul = job_of * H
    hist = np.zeros(n_jobs * H, dtype=np.int64)
    ar = np.arange(W, dtype=np.int64)
    for t in range(steps):
        kw = active[t]
        k = req[t, :kw]
        rows = ar[:kw]
        la = last[rows, k]
        seen = la >= 0
        rank = (last[:kw] > la[:, None]).sum(axis=1)
        rid = (histmul[:kw] + rank)[seen]
        hist += np.bincount(rid, minlength=hist.size)
        last[rows, k] = last_dt(t)
    cum = hist.reshape(n_jobs, H).cumsum(axis=1) if n_jobs else \
        hist.reshape(0, H)
    out = []
    for j, (_, caps) in enumerate(jobs):
        out.append({c: int(cum[j, min(c, H) - 1]) for c in caps})
    return out


def _check_caps(per_worker_caps: Iterable[int]) -> tuple[int, ...]:
    caps = tuple(sorted({int(c) for c in per_worker_caps}))
    if not caps or caps[0] <= 0:
        raise ValueError("per-worker capacities must be positive ints")
    return caps


class VectorFleet:
    """Batched vector replay of many (stream, workers, capacities) jobs.

    All jobs' lanes share one length-sorted lane set per policy family,
    so the step loop runs once at the longest substream's length for
    the whole fleet — this is what the bench's numpy axis times.

    >>> fleet = VectorFleet()
    >>> idx = fleet.add(stream, workers=16, per_worker_caps=[4, 64])
    >>> fleet.solve(["lru", "fbf"])[idx]["fbf"][4]
    """

    def __init__(self):
        self._jobs: list[tuple["InternedStream", int, tuple[int, ...]]] = []
        self._views: dict[int, _WorkerView] = {}

    def add(self, stream: "InternedStream", workers: int,
            per_worker_caps: Iterable[int]) -> int:
        caps = _check_caps(per_worker_caps)
        self._jobs.append((stream, int(workers), caps))
        return len(self._jobs) - 1

    def _view(self, job: int) -> _WorkerView:
        view = self._views.get(job)
        if view is None:
            stream, workers, _ = self._jobs[job]
            view = self._views[job] = _WorkerView(stream, workers)
        return view

    def _stride(self) -> int:
        """Output slots per (job, policy) pair: the most capacities any
        job asked for."""
        return max((len(caps) for _, _, caps in self._jobs), default=0)

    def _specs(self, flavor: str | None, pol_index: int = 0) -> list[_LaneSpec]:
        specs = []
        n_jobs, stride = len(self._jobs), self._stride()
        for job, (_, _, caps) in enumerate(self._jobs):
            specs.append(_LaneSpec(
                self._view(job), caps, flavor,
                (pol_index * n_jobs + job) * stride,
            ))
        return specs

    def solve(self, policies: Iterable[str]) -> list[dict]:
        """Per-job ``{policy: {per_worker_cap: hits}}`` maps."""
        pols = list(dict.fromkeys(policies))
        bad = sorted(set(pols) - VECTOR_POLICIES)
        if bad:
            raise ValueError(f"no vector kernel for policies: {bad}")
        out: list[dict] = [{} for _ in self._jobs]
        obs_on = _obs.ENABLED
        span = None
        if obs_on:
            span = _obs.span("engine.vector_fleet",
                             {"n_jobs": len(self._jobs),
                              "policies": ",".join(pols)})
            span.__enter__()
        try:
            if "lru" in pols:
                rows = _lru_fleet(
                    [(self._view(j), caps)
                     for j, (_, _, caps) in enumerate(self._jobs)]
                )
                if obs_on:
                    _obs.counter("engine.vector.kernel_runs").inc()
                for job, row in enumerate(rows):
                    out[job]["lru"] = row
            # fifo and arc run on identical plain lane sets: build once.
            plain = _Lanes(self._specs(None)) \
                if ("fifo" in pols or "arc" in pols) else None
            if "fifo" in pols:
                self._run_queue_kernel(_kernel_fifo, plain, ["fifo"], out)
            bucket = [pol for pol in ("lfu", "fbf") if pol in pols]
            if bucket:
                specs = []
                for pi, pol in enumerate(bucket):
                    specs.extend(self._specs(pol, pi))
                lanes = _Lanes(specs, with_admit=True)
                self._run_queue_kernel(_kernel_bucket, lanes, bucket, out)
            if "arc" in pols:
                self._run_queue_kernel(_kernel_arc, plain, ["arc"], out)
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        return out

    def _run_queue_kernel(self, kernel, lanes: _Lanes,
                          pols: Sequence[str], out: list[dict]) -> None:
        # Every cell saturated -> no lanes; the analytic term below is
        # the whole answer and the kernels may not index empty rings.
        lane_hits = kernel(lanes) if lanes.n_lanes \
            else np.zeros(0, dtype=np.int64)
        if _obs.ENABLED:
            _obs.counter("engine.vector.kernel_runs").inc()
            _obs.counter("engine.vector.lane_steps").inc(
                int(lanes.lengths.sum())
            )
        stride = self._stride()
        per_slot = np.zeros(len(self._jobs) * len(pols) * stride,
                            dtype=np.int64)
        np.add.at(per_slot, lanes.slot, lane_hits)
        for pi, pol in enumerate(pols):
            for job, (_, _, caps) in enumerate(self._jobs):
                sat = _saturated_hits(self._view(job), caps)
                off = (pi * len(self._jobs) + job) * stride
                out[job][pol] = {
                    c: int(per_slot[off + ci]) + sat[ci]
                    for ci, c in enumerate(caps)
                }


class VectorReplay:
    """Single-stream vector replay with memoized views and results.

    ``hits(policy, workers, per_worker_caps)`` answers a whole capacity
    column of the grid at once; ``hits_many`` shares one fleet solve
    across policies.  Results are bit-identical to the stepped python
    replay (property-tested), so ``simulate_grid_pass`` can swap this
    in per configuration group without changing any row.
    """

    def __init__(self, stream: "InternedStream"):
        self._stream = stream
        self._views: dict[int, _WorkerView] = {}
        self._memo: dict[tuple, Mapping[int, int]] = {}

    def view(self, workers: int) -> _WorkerView:
        view = self._views.get(workers)
        if view is None:
            view = self._views[workers] = _WorkerView(self._stream, workers)
        return view

    def hits(self, policy: str, workers: int,
             per_worker_caps: Iterable[int]) -> dict[int, int]:
        """Hits per per-worker capacity for one policy."""
        return dict(self.hits_many([policy], workers, per_worker_caps)[policy])

    def hits_many(self, policies: Iterable[str], workers: int,
                  per_worker_caps: Iterable[int]) -> dict[str, dict[int, int]]:
        """Hits per per-worker capacity for several policies at once."""
        caps = _check_caps(per_worker_caps)
        pols = list(dict.fromkeys(policies))
        missing = [p for p in pols
                   if (p, workers, caps) not in self._memo]
        if missing:
            span = None
            if _obs.ENABLED:
                span = _obs.span(
                    "engine.vector_replay",
                    {"policies": ",".join(missing),
                     "workers": workers, "n_caps": len(caps)},
                )
                span.__enter__()
            try:
                fleet = VectorFleet()
                job = fleet.add(self._stream, workers, caps)
                fleet._views[job] = self.view(workers)
                solved = fleet.solve(missing)[job]
                if span is not None:
                    span["steps"] = self.view(workers).steps
            finally:
                if span is not None:
                    span.__exit__(None, None, None)
            for pol in missing:
                self._memo[(pol, workers, caps)] = solved[pol]
        return {p: dict(self._memo[(p, workers, caps)]) for p in pols}

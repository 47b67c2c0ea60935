"""The ``advise-live`` workload: a live ``repro-fbf serve`` under open-loop load.

The server runs in its own process with its defaults and a fresh
checkpoint file.  The benchmark talks to it over two loopback
connections, one for ingest records and one for queries, from a load
generator that sends on a fixed schedule whatever the replies do (open
loop) and times each request from when it was due.

1. **Nominal phase.**  One 24-event batch and one ``advise`` per period,
   the advise half a period after the batch, so every advise replays a
   fresh window.
2. **Ingest ramp.**  Advise stays at the nominal period while the ingest
   rate doubles until a step fails, then bisects between the last
   passing and the first failing rate, then walks a staircase around
   it; the capacity is the geometric mean of the staircase's rates.  A
   step passes when nothing is shed or invalid, the advise p95 meets
   ``LATENCY_LIMIT_MS`` and the staleness of the advice does not grow.
   A step that sheds leaves the server's event log out of step with the
   stream, so the next step gets a fresh server.

The event stream is generated from the seed, each phase's events before
the phase sends.  After the run every distinct advised window is
replayed offline through ``simulate_grid_pass`` + ``pick_winner``, in two
child processes, and compared with the served advice.

The server runs on a CPU of its own and the load generator on the
others.  The load generator samples the host's speed (:mod:`hostspeed`)
on the server's CPU while the server is idle: after an ingest batch of
the nominal phase, after each ramp step has settled and after each
server start.  The timings are rescaled by those samples, like the
grids'.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, hostspeed, settings  # noqa: E402

_BANNER = re.compile(r"serving on [^ ]+:(\d+) \(metrics http://[^ ]+:(\d+)/metrics\)")


@dataclass(frozen=True)
class Plan:
    """How long each phase runs; the smoke plan is for the benchmark's tests."""

    period: float = settings.NOMINAL_PERIOD_S
    advises: int = settings.NOMINAL_ADVISES
    step_s: float = settings.RAMP_STEP_S
    max_steps: int = 12  # bracketing steps, at most
    stair_steps: int = settings.RAMP_STAIR_STEPS
    setup_samples: int = settings.SERVER_SETUP_SAMPLES
    overhead_advises: int = settings.OVERHEAD_ADVISES


SMOKE = Plan(advises=12, step_s=0.6, max_steps=2, stair_steps=2, setup_samples=2,
             overhead_advises=6)


# -- the stream ----------------------------------------------------------------------

class Stream:
    """The run's event stream (``SyntheticSource``) and its wire lines.

    :meth:`reserve` generates and encodes a phase's events before the
    phase starts sending, so generation never makes the sender late.
    """

    def __init__(self, seed: int):
        from repro.api.v2.serve import SyntheticSource

        self.source = SyntheticSource(settings.SERVE_CODE, settings.SERVE_P, seed=seed,
                                      chunk=settings.BATCH_EVENTS)
        self.events: list = []
        self.lines: list[bytes] = []
        self.pos = 0  # next event to send

    def reserve(self, n: int) -> None:
        from repro.api.v2.serve import records_for

        while len(self.events) < self.pos + n:
            batch = self.source.next_batch()
            self.events.extend(batch)
            self.lines.extend(json.dumps(r, sort_keys=True).encode() + b"\n"
                              for r in records_for(batch))

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.lines):
            raise RuntimeError("events must be reserved before a phase sends them")
        data = b"".join(self.lines[self.pos:self.pos + n])
        self.pos += n
        return data


# -- the CPUs ------------------------------------------------------------------------------

class Cpus:
    """The server's CPU and the load generator's, while a run serves.

    Speed samples taken on the load generator's own CPU did not track the
    server's speed, so they run on the server's CPU.  With a single CPU
    nothing is pinned.
    """

    def __init__(self):
        self.all = os.sched_getaffinity(0)
        cpus = sorted(self.all)
        self.server = {cpus[-1]} if len(cpus) > 1 else None
        self.rest = set(cpus[:-1]) or self.all

    def __enter__(self) -> "Cpus":
        os.sched_setaffinity(0, self.rest)
        return self

    def __exit__(self, *exc) -> None:
        os.sched_setaffinity(0, self.all)

    def pin(self, pid: int) -> None:
        if self.server:
            os.sched_setaffinity(pid, self.server)

    def sample(self, probe: hostspeed.Probe) -> None:
        """One host-speed sample on the server's CPU."""
        if self.server:
            os.sched_setaffinity(0, self.server)
        try:
            probe.sample(settings.PROBE_S)
        finally:
            os.sched_setaffinity(0, self.rest)


# -- the server process -----------------------------------------------------------------

class Server:
    """One ``repro-fbf serve`` process with its own fresh checkpoint file."""

    def __init__(self, traced: bool = False):
        tmp = common.OUT_DIR / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        stamp = time.time_ns()
        self.checkpoint = tmp / f"advise-{stamp}.ckpt"
        self.spans_path = tmp / f"advise-{stamp}.spans.json" if traced else None
        serve_args = ["serve", "--checkpoint", str(self.checkpoint), "--port", "0",
                      "--metrics-port", "0"]
        if traced:
            argv = [sys.executable, str(common.BENCH_DIR / "serve_traced.py"),
                    str(self.spans_path)] + serve_args
        else:
            argv = [sys.executable, "-m", "repro.cli"] + serve_args
        env = common.child_env()
        env["PYTHONUNBUFFERED"] = "1"
        self.spawned_at = time.perf_counter()
        self.proc = common.start(argv, stdout=subprocess.PIPE, env=env)
        self.port = self.metrics_port = None
        self.peak_rss_mb = math.nan
        self.base = 0  # stream index of this server's first event
        self.sent = 0  # events written to this server

    async def ready(self) -> float:
        """Wait for the banner and a ping reply; returns the set-up time."""
        loop = asyncio.get_running_loop()
        line = await asyncio.wait_for(
            loop.run_in_executor(None, self.proc.stdout.readline),
            settings.REPLY_TIMEOUT_S * 3,
        )
        match = _BANNER.search(line.decode(errors="replace"))
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port, self.metrics_port = int(match.group(1)), int(match.group(2))
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        reply = json.loads(await asyncio.wait_for(reader.readline(),
                                                  settings.REPLY_TIMEOUT_S))
        setup_s = time.perf_counter() - self.spawned_at
        writer.close()
        await writer.wait_closed()
        if not reply.get("ok"):
            raise RuntimeError(f"ping failed: {reply}")
        return setup_s

    async def scrape(self) -> dict:
        """The server's ``/metrics`` series as ``{name: value}``."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.metrics_port)
        writer.write(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), settings.REPLY_TIMEOUT_S)
        writer.close()
        await writer.wait_closed()
        body = raw.decode().split("\r\n\r\n", 1)[-1]
        series = {}
        for line in body.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                if "{" not in name:
                    series[name] = float(value)
        return series

    async def shutdown(self) -> None:
        """Send ``shutdown`` on a connection of its own and reap the process."""
        self.peak_rss_mb = common.peak_rss_mb(self.proc.pid)
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            writer.write(b'{"op": "shutdown"}\n')
            await writer.drain()
            await asyncio.wait_for(reader.readline(), settings.REPLY_TIMEOUT_S)
            writer.close()
            await writer.wait_closed()
        except (OSError, asyncio.TimeoutError) as exc:
            common.log(f"advise-live: shutdown request failed: {exc}")
        self.reap()

    def reap(self) -> None:
        """Reap the server (killing it if it lingers) and drop its files.

        The server's last stdout line fits in the pipe, so it can exit
        without being read.
        """
        if self.proc.returncode is None:
            code = common.reap(self.proc, settings.REPLY_TIMEOUT_S)
            if code != 0:
                common.log(f"advise-live: server exited with {code}")
        self.proc.stdout.close()
        self.checkpoint.unlink(missing_ok=True)

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.reap()

    def spans(self) -> dict | None:
        if self.spans_path is None or not self.spans_path.is_file():
            return None
        spans = common.read_json(self.spans_path)
        self.spans_path.unlink()
        return spans


# -- the two connections ------------------------------------------------------------------

@dataclass
class Advise:
    """One advise request and, once it arrives, its reply."""

    phase: str  # "nominal", "ramp" or "baseline"
    step: int
    due: float
    sent: float
    events_sent: int  # events written to the server when the request left
    server: Server
    reply: dict | None = None
    replied: float = math.inf
    checked: bool = True
    future: asyncio.Future | None = None
    slowdown: float = 1.0  # the host's, sampled on the server's CPU just before

    @property
    def ok(self) -> bool:
        return self.reply is not None and bool(self.reply.get("ok"))

    @property
    def latency_s(self) -> float:
        """From the due time to the reply; a missing or failed reply is inf."""
        return self.replied - self.due if self.ok else math.inf

    @property
    def service_s(self) -> float:
        return self.replied - self.sent

    @property
    def staleness(self) -> float:
        if not self.ok:
            return math.inf
        advice = self.reply["advice"]
        return self.events_sent - (advice["window_start"] + advice["window_events"])


class Link:
    """Ingest and query connections to one server."""

    def __init__(self, server: Server):
        self.server = server
        self.pending: deque = deque()

    async def open(self) -> None:
        _, self.ingest = await asyncio.open_connection("127.0.0.1", self.server.port)
        self.q_reader, self.q_writer = await asyncio.open_connection(
            "127.0.0.1", self.server.port)
        self.reader_task = asyncio.ensure_future(self._read_replies())

    async def _read_replies(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            line = await self.q_reader.readline()
            if not line:
                break
            future = self.pending.popleft()
            future.set_result((json.loads(line), loop.time()))
        while self.pending:
            self.pending.popleft().set_exception(ConnectionError("query connection closed"))

    def query(self, request: dict) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.pending.append(future)
        self.q_writer.write(json.dumps(request).encode() + b"\n")
        return future

    async def ask(self, request: dict) -> dict:
        reply, _ = await asyncio.wait_for(self.query(request), settings.REPLY_TIMEOUT_S)
        return reply

    async def send(self, data: bytes, n_events: int) -> None:
        self.ingest.write(data)
        self.server.sent += n_events
        await self.ingest.drain()

    async def close(self) -> None:
        for writer in (self.ingest, self.q_writer):
            writer.close()
        for writer in (self.ingest, self.q_writer):
            try:
                await writer.wait_closed()
            except OSError:
                pass
        try:
            await asyncio.wait_for(self.reader_task, settings.REPLY_TIMEOUT_S)
        except (asyncio.TimeoutError, OSError):
            self.reader_task.cancel()


async def _sleep_until(when: float) -> None:
    delay = when - asyncio.get_running_loop().time()
    if delay > 0:
        await asyncio.sleep(delay)


# -- the scenario ---------------------------------------------------------------------------

@dataclass
class Run:
    """Everything one advise-live run records."""

    plan: Plan
    stream: Stream
    cpus: Cpus
    traced: bool = False
    advises: list = field(default_factory=list)
    late_s: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    setups: list = field(default_factory=list)  # (seconds, slowdown) per server start
    nominal_speed: hostspeed.Probe = field(default_factory=hostspeed.Probe)
    ramp_speed: hostspeed.Probe = field(default_factory=hostspeed.Probe)
    servers: list = field(default_factory=list)
    records: int = 0  # records sent in phases whose records must all land
    record_failures: int = 0
    capacity: float = math.nan  # events/s, at the host's speed during the ramp
    scrapes: list = field(default_factory=list)  # each work server's last /metrics

    # -- servers --------------------------------------------------------------

    async def start_server(self, traced: bool = False) -> tuple[Server, Link]:
        server = Server(traced=traced)
        self.servers.append(server)
        await self.ready(server)
        server.base = self.stream.pos
        link = Link(server)
        await link.open()
        await self._warm_up(link)
        return server, link

    async def ready(self, server: Server) -> None:
        """Wait for ``server`` and record its set-up time and the host's speed."""
        self.cpus.pin(server.proc.pid)
        seconds = await server.ready()
        probe = hostspeed.Probe()
        for _ in range(settings.SETUP_PROBES):
            self.cpus.sample(probe)
        self.setups.append((seconds, probe.slowdown()))

    async def _warm_up(self, link: Link) -> None:
        """Fill the first window before any advise is timed."""
        n = settings.WINDOW_EVENTS
        self.stream.reserve(n)
        await link.send(self.stream.take(n), n)
        self.records += n
        await self._settle(link)

    async def _settle(self, link: Link) -> dict:
        """Wait until every record sent has been read and ingested."""
        deadline = time.perf_counter() + settings.REPLY_TIMEOUT_S
        while True:
            stats = (await link.ask({"op": "stats"}))["stats"]
            landed = stats["accepted"] + stats["shed"] + stats["invalid"]
            if landed >= link.server.sent and stats["queued"] == 0 and (
                    stats["events_seen"] == stats["accepted"]):
                return stats
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server did not settle: {stats}")
            await asyncio.sleep(0.02)

    async def stop_server(self, link: Link) -> None:
        await link.close()
        await link.server.shutdown()

    # -- phases ---------------------------------------------------------------

    async def nominal(self, link: Link, n_advises: int, phase: str = "nominal") -> None:
        loop = asyncio.get_running_loop()
        period = self.plan.period
        batch = settings.BATCH_EVENTS
        self.stream.reserve(n_advises * batch)
        data = [self.stream.take(batch) for _ in range(n_advises)]
        self.records += n_advises * batch
        t0 = loop.time() + 0.1

        async def ingest() -> None:
            for k, chunk in enumerate(data):
                due = t0 + k * period
                await _sleep_until(due)
                if phase == "nominal":
                    self.late_s.append(loop.time() - due)
                await link.send(chunk, batch)
                if phase == "nominal":
                    # A quarter period on, the server has ingested the
                    # batch and idles until the advise, unless it is still
                    # answering the previous one.
                    await _sleep_until(due + period / 4)
                    if not self.advises or self.advises[-1].future.done():
                        self.cpus.sample(self.nominal_speed)

        async def advise() -> None:
            for k in range(n_advises):
                due = t0 + (k + 0.5) * period
                await _sleep_until(due)
                self._advise(link, phase, 0, due)
                if phase == "nominal":
                    self.late_s.append(self.advises[-1].sent - due)

        await asyncio.gather(ingest(), advise())
        await self._collect(phase)
        stats = await self._settle(link)
        self.record_failures += stats["shed"] + stats["invalid"]

    def _advise(self, link: Link, phase: str, step: int, due: float) -> None:
        loop = asyncio.get_running_loop()
        record = Advise(phase, step, due, loop.time(), link.server.sent, link.server,
                        future=link.query({"op": "advise"}))
        if phase == "nominal" and self.nominal_speed.units:
            record.slowdown = self.nominal_speed.last()
        self.advises.append(record)

    async def _collect(self, phase: str, step: int = 0) -> list:
        mine = [a for a in self.advises if a.phase == phase and a.step == step]
        futures = [a.future for a in mine if a.reply is None]
        if futures:
            await asyncio.wait(futures, timeout=settings.REPLY_TIMEOUT_S)
        for a in mine:
            if a.future.done() and not a.future.cancelled() and a.future.exception() is None:
                a.reply, a.replied = a.future.result()
        return mine

    async def ramp_step(self, link: Link, rate: float, step: int) -> tuple[bool, int]:
        """Hold ``rate`` for one step; returns (passed, records shed)."""
        loop = asyncio.get_running_loop()
        period = self.plan.period
        n_events = max(1, int(rate * self.plan.step_s))
        self.stream.reserve(n_events)
        before = (await link.ask({"op": "stats"}))["stats"]
        t0 = loop.time() + 0.05

        async def ingest() -> None:
            sent = 0
            while sent < n_events:
                now = loop.time()
                due = min(n_events, int((now - t0) * rate) + 1) if now >= t0 else 0
                if due > sent:
                    await link.send(self.stream.take(due - sent), due - sent)
                    sent = due
                await asyncio.sleep(settings.SEND_TICK_S)

        async def advise() -> None:
            k = 0
            while t0 + (k + 0.5) * period < t0 + self.plan.step_s:
                due = t0 + (k + 0.5) * period
                await _sleep_until(due)
                self._advise(link, "ramp", step, due)
                k += 1

        await asyncio.gather(ingest(), advise())
        mine = await self._collect("ramp", step)
        stats = await self._settle(link)
        for _ in range(settings.RAMP_PROBES):
            self.cpus.sample(self.ramp_speed)
        shed = stats["shed"] - before["shed"]
        invalid = stats["invalid"] - before["invalid"]
        p95_ms = common.percentile([a.latency_s for a in mine], 0.95) * 1000.0
        stale = [a.staleness for a in mine]
        third = max(1, len(stale) // 3)
        growth = statistics.median(stale[-third:]) - statistics.median(stale[:third])
        limit = (settings.STALENESS_GROWTH_PERIODS * rate * period
                 + 2 * settings.BATCH_EVENTS)
        passed = (shed == 0 and invalid == 0 and p95_ms <= settings.LATENCY_LIMIT_MS
                  and growth <= limit)
        if passed:
            self.records += n_events
        if shed:
            for a in mine:  # the server's log no longer matches the stream
                a.checked = False
        self.record_failures += invalid
        self.steps.append({"rate": rate, "events": n_events, "passed": passed,
                           "shed": shed, "invalid": invalid, "advise_p95_ms": p95_ms,
                           "staleness_growth": growth, "advises": len(mine)})
        common.log(f"advise-live: ramp {rate:9.1f} ev/s -> "
                   f"{'pass' if passed else 'FAIL'} (shed {shed}, p95 {p95_ms:.1f} ms, "
                   f"staleness +{growth:.0f})")
        return passed, shed

    async def ramp(self, server: Server, link: Link) -> tuple[Server, Link]:
        """Bracket the ingest capacity, then walk up and down around it.

        Whether a step sheds nothing is a coin toss over a wide range of
        rates (it turns on the longest loop stall in the step), so one
        bracket's edge lands anywhere in that range.  The capacity is
        the geometric mean of the rates a staircase visits after the
        bracket: the rate at which a step passes about half the time.
        """
        nominal_rate = settings.BATCH_EVENTS / self.plan.period
        passing, failing = nominal_rate, None
        rate = nominal_rate * settings.RAMP_START_FACTOR
        step = 0

        async def hold(rate: float) -> bool:
            nonlocal server, link, step
            step += 1
            passed, shed = await self.ramp_step(link, rate, step)
            if shed:
                self.scrapes.append(await server.scrape())
                await self.stop_server(link)
                server, link = await self.start_server(traced=self.traced)
            return passed

        while step < self.plan.max_steps and (
                failing is None or failing / passing >= settings.RAMP_RESOLUTION):
            if await hold(rate):
                passing = rate
            else:
                failing = rate
            if failing is None:
                rate = min(rate * 2.0, settings.RAMP_MAX_RATE)
            else:  # halve until a rate passes, then bisect
                rate = max(math.sqrt(passing * failing), failing / 2.0)
        visited = []
        for _ in range(self.plan.stair_steps):
            visited.append(math.log(rate))
            if await hold(rate):
                rate = min(rate * settings.RAMP_STAIR_FACTOR, settings.RAMP_MAX_RATE)
            else:
                rate /= settings.RAMP_STAIR_FACTOR
        self.capacity = math.exp(statistics.fmean(visited))
        return server, link


# -- offline recompute ------------------------------------------------------------------------

def _recompute(windows: list) -> list:
    """Served advice recomputed from scratch for each window of events."""
    from repro.api.v2.replay import (
        PlanCache,
        ReplayConfig,
        make_backend,
        simulate_grid_pass,
    )
    from repro.api.v2.serve import ServeConfig, pick_winner
    from repro.utils import parse_size
    from repro.workloads import PartialStripeError

    config = ServeConfig()
    backend = make_backend(config.code, config.p, scheme_mode=config.scheme_mode)
    plans = PlanCache(backend)
    block = parse_size(config.chunk_size)
    grid = [
        ReplayConfig(policy=policy, capacity_blocks=int(mb * 1024 * 1024) // block,
                     workers=config.workers, hint=config.hint)
        for policy in config.policies for mb in config.cache_mbs
    ]
    out = []
    for start, records in windows:
        events = [PartialStripeError(**r) for r in records]
        rows = simulate_grid_pass(backend, events, grid, plan_cache=plans)
        winner = pick_winner(rows)
        runners = [r.hit_ratio for r in rows if r is not winner]
        lead = winner.hit_ratio - max(runners) if runners else winner.hit_ratio
        fill = min(1.0, len(events) / config.window_events)
        out.append({
            "policy": winner.policy,
            "cache_mb": winner.capacity_blocks * block / (1024 * 1024),
            "capacity_blocks": winner.capacity_blocks,
            "hit_ratio": winner.hit_ratio,
            "confidence": fill * (1.0 - 1.0 / (1.0 + 100.0 * max(lead, 0.0))),
            "window_events": len(events),
            "window_start": start,
            "evaluated": len(rows),
            "workers": winner.workers,
        })
    return out


def recompute(tasks: list) -> list:
    """:func:`_recompute` split over two child processes.

    A window whose child failed reads ``None``, so its advice fails.
    """
    tmp = common.OUT_DIR / "tmp"
    stamp = time.time_ns()
    half = (len(tasks) + 1) // 2
    children = []
    try:
        for k, part in enumerate((tasks[:half], tasks[half:])):
            src = common.write_json(tmp / f"recompute-{stamp}-{k}.in.json", {"tasks": part})
            dst = tmp / f"recompute-{stamp}-{k}.out.json"
            argv = [sys.executable, str(Path(__file__).resolve()), str(src), str(dst)]
            children.append((common.start(argv), src, dst, len(part)))
        results = []
        for proc, _, dst, n in children:
            ok = common.reap(proc, settings.RECOMPUTE_TIMEOUT_S) == 0 and dst.is_file()
            results += common.read_json(dst)["advice"] if ok else [None] * n
        return results
    finally:
        for proc, src, dst, _ in children:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            src.unlink(missing_ok=True)
            dst.unlink(missing_ok=True)


def check_advice(run: Run) -> tuple[int, int]:
    """Compare every checked advise with its offline recompute.

    Returns ``(attempted, failed)``; a missing or not-ok reply fails.
    """
    from repro.api.v2.serve import records_for

    attempted = failed = 0
    windows: dict[tuple, list] = {}
    for a in run.advises:
        if not a.checked:
            continue
        attempted += 1
        if not a.ok:
            failed += 1
            continue
        advice = a.reply["advice"]
        start = advice["window_start"]  # position in this server's log
        key = (a.server.base + start, advice["window_events"], start)
        windows.setdefault(key, []).append(advice)
    keys = sorted(windows)
    tasks = [(start, records_for(run.stream.events[lo:lo + n])) for lo, n, start in keys]
    for key, expected in zip(keys, recompute(tasks)):
        for advice in windows[key]:
            if advice != expected:
                failed += 1
    return attempted, failed


# -- entry point ------------------------------------------------------------------------------

def _timings(run: Run, rescale: bool) -> dict:
    """The timing metrics; ``rescale`` divides each time by the host's slowdown
    next to it: each advise's by the last sample before it was sent, the
    capacity by the median of the samples after every ramp step, each
    set-up by the samples after it.  The host changes speed within a
    nominal phase; a ramp step's two samples are too few to rescale it
    alone."""
    def slowdown(advise: Advise) -> float:
        return advise.slowdown if rescale else 1.0

    nominal = [a for a in run.advises if a.phase == "nominal"]
    latencies_ms = [a.latency_s * 1000.0 / slowdown(a) for a in nominal]
    ok = [a for a in nominal if a.ok]
    served_s = sum(a.service_s / slowdown(a) for a in ok)
    cells = sum(a.reply["advice"]["evaluated"] for a in ok)
    return {
        "cells_per_s": cells / served_s if served_s > 0 else math.nan,
        "latency_p50_ms": common.percentile(latencies_ms, 0.50),
        "latency_p95_ms": common.percentile(latencies_ms, 0.95),
        "events_per_s": run.capacity * (run.ramp_speed.slowdown() if rescale else 1.0),
        "setup_s": statistics.median(
            seconds / (slowdown if rescale else 1.0) for seconds, slowdown in run.setups),
    }


async def _scenario(run: Run, traced: bool) -> dict:
    """Set-up samples, nominal phase, ramp; returns the server-side readings."""
    plan = run.plan
    readings: dict = {}
    if not traced:
        for _ in range(plan.setup_samples - 1):
            server = Server()
            run.servers.append(server)
            try:
                await run.ready(server)
            finally:
                await server.shutdown()
    else:
        # Untraced baseline for trace.overhead_ratio: a short nominal phase.
        server, link = await run.start_server()
        await run.nominal(link, plan.overhead_advises, phase="baseline")
        readings["baseline"] = await server.scrape()
        await run.stop_server(link)
    server, link = await run.start_server(traced=traced)
    main = server
    await run.nominal(link, plan.advises)
    readings["nominal"] = await server.scrape()
    server, link = await run.ramp(server, link)
    run.scrapes.append(await server.scrape())
    await run.stop_server(link)
    readings["main_server"] = main
    return readings


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run advise-live once; returns the result document."""
    plan = SMOKE if smoke else Plan()
    if not smoke:
        # The nominal phase is sized by its sample count; --seconds can
        # only lengthen it.
        plan = Plan(advises=max(plan.advises, int(seconds / plan.period)))
    common.require_program()
    t0 = time.perf_counter()
    stream = Stream(seed)
    the_run = Run(plan=plan, stream=stream, cpus=Cpus(), traced=trace)
    phases = {"generate_s": time.perf_counter() - t0}

    async def main() -> dict:
        try:
            return await _scenario(the_run, trace)
        finally:
            for server in the_run.servers:
                server.kill()

    t0 = time.perf_counter()
    try:
        with the_run.cpus:
            readings = asyncio.run(main())
    except (OSError, RuntimeError, asyncio.TimeoutError) as exc:
        common.log(f"advise-live: run failed: {exc!r}")
        attempted = max(1, len(the_run.advises))
        return {"attempted": attempted, "failed": attempted, "metrics": {}}
    for server in the_run.servers:  # only the main server's spans are read
        if server is not readings["main_server"] and server.spans_path:
            server.spans_path.unlink(missing_ok=True)
    phases["serve_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    attempted, failed = check_advice(the_run)
    phases["check_s"] = time.perf_counter() - t0
    attempted += the_run.records
    failed += the_run.record_failures
    if trace:
        from perfbench import layers as catalogue

        metrics = serve_layers(the_run, readings)
        metrics = {**{n: 0.0 for n, _, _ in catalogue.PER_LAYER}, **metrics}
    else:
        metrics = _timings(the_run, rescale=True)
        metrics["peak_rss_mb"] = readings["main_server"].peak_rss_mb
    nominal = [a for a in the_run.advises if a.phase == "nominal"]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw_metrics": None if trace else _timings(the_run, rescale=False),
        "nominal_slowdown": the_run.nominal_speed.slowdown(),
        "nominal_slowdown_samples": len(the_run.nominal_speed.units),
        "ramp_slowdown": the_run.ramp_speed.slowdown(),
        "nominal_latency_ms_slowdown": [
            (a.latency_s * 1000.0, a.slowdown) for a in the_run.advises
            if a.phase == "nominal"],
        "nominal_advises": len(nominal),
        "ramp_steps": the_run.steps,
        "setup_samples": the_run.setups,
        "servers_started": len(the_run.servers),
        "stream_events_used": stream.pos,
        "phase_seconds": phases,
        "trace": readings.get("spans"),
    }


def serve_layers(run: Run, readings: dict) -> dict:
    """Per-layer metrics of a traced advise-live run."""
    from perfbench import layers

    nominal = readings["nominal"]
    base = readings["baseline"]
    final: dict = {}
    for scrape in run.scrapes:  # every server that served the nominal phase or ramp
        for name, value in scrape.items():
            merge = max if name.endswith("_bytes") else float.__add__
            final[name] = merge(final.get(name, 0.0), value)
    adv_n = nominal.get("repro_serve_advise_latency_count", 0.0)
    adv_s = nominal.get("repro_serve_advise_latency_sum", 0.0)
    server_ms = 1000.0 * adv_s / adv_n if adv_n else 0.0
    base_ms = 1000.0 * base.get("repro_serve_advise_latency_sum", 0.0) / max(
        1.0, base.get("repro_serve_advise_latency_count", 0.0))
    ok = [a for a in run.advises if a.phase == "nominal" and a.ok]
    client_ms = 1000.0 * sum(a.service_s for a in ok) / len(ok) if ok else 0.0
    eval_n = final.get("repro_serve_evaluate_count", 0.0)
    eval_s = final.get("repro_serve_evaluate_seconds_sum", 0.0)
    nominal_advises = [a for a in run.advises if a.phase == "nominal"]
    metrics = {
        "serve.ingest.records": final.get("repro_serve_ingest_records", 0.0),
        "serve.ingest.shed": final.get("repro_serve_ingest_shed", 0.0),
        "serve.ingest.invalid": final.get("repro_serve_ingest_invalid", 0.0),
        "serve.ingest.batches": final.get("repro_serve_ingest_batches", 0.0),
        "serve.evaluate.count": eval_n,
        "serve.evaluate.mean_ms": 1000.0 * eval_s / eval_n if eval_n else 0.0,
        "serve.evaluate.per_advise": eval_n / final.get("repro_serve_advise_count", 1.0),
        "serve.grid_pass.share": (
            final.get("repro_span_engine_grid_pass_seconds_total", 0.0) / eval_s
            if eval_s else 0.0),
        "serve.advise.server_ms": server_ms,
        "serve.loop_wait_ms": client_ms - server_ms,
        "serve.checkpoint.writes": final.get("repro_serve_checkpoint_writes", 0.0),
        "serve.checkpoint.bytes": final.get("repro_serve_checkpoint_bytes", 0.0),
        "loadgen.late_p95_ms": 1000.0 * common.percentile(run.late_s, 0.95),
        "loadgen.staleness_p95_events": common.percentile(
            [a.staleness for a in nominal_advises], 0.95),
        "trace.overhead_ratio": server_ms / base_ms if base_ms else 0.0,
    }
    spans = readings["main_server"].spans()
    readings["spans"] = spans
    if spans is not None:
        metrics.update(layers.traced_layers(spans))
        # The advisor's ingest/evaluate spans enclose every engine and cache
        # span in the server; what they keep for themselves is unattributed.
        advisor = spans["total_s"].get("serve.advisor", 0.0)
        metrics["trace.unattributed_share"] = (
            spans["self_s"].get("serve.advisor", 0.0) / advisor if advisor else 0.0)
    return metrics


if __name__ == "__main__":
    # A recompute child: ``advise.py TASKS.json ADVICE.json``.
    common.require_program()
    advice = _recompute([tuple(t) for t in common.read_json(Path(sys.argv[1]))["tasks"]])
    common.write_json(Path(sys.argv[2]), {"advice": advice})

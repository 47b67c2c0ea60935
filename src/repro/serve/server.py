"""The always-on advisor service: asyncio ingest, query, and metrics.

One event loop owns everything but the window replays:

* a JSON-lines TCP endpoint where each line is either an ingest record
  (no ``"op"`` key — parsed into the bounded queue, overflow shed) or a
  query object (``{"op": "advise" | "stats" | "ping" | "shutdown"}``,
  answered with one JSON line);
* an optional stdin reader accepting the same wire records, so
  ``generator | repro-fbf serve --stdin`` (or ``serve --stdin <
  records.jsonl``) works without a socket;
* a batch loop draining the queue ``batch_events`` at a time into the
  :class:`~repro.serve.advisor.CacheAdvisor`, checkpointing every
  ``checkpoint_every`` batches;
* a bare-bones HTTP responder serving the Prometheus scrape at
  ``/metrics``.

An ``advise`` takes a snapshot of the window on the loop
(:meth:`CacheAdvisor.snapshot`) and replays it with
:meth:`CacheAdvisor.evaluate` on the server's one evaluation thread, so
the loop keeps reading, batching and checkpointing meanwhile.  One
evaluation runs at a time, advises for the same window await the same
one, and every answer describes the window that was evaluated.

Shutdown (``SIGTERM``/``SIGINT``/the ``shutdown`` op) is a graceful
drain: listeners stop accepting, every event already queued is batched
into the advisor, evaluations in flight finish and the evaluation
thread is joined, a final checkpoint lands, and only then does
:meth:`AdvisorServer.serve_forever` return.  Nothing accepted is ever
dropped by shutdown — only queue overflow sheds, and that is counted.
"""

from __future__ import annotations

import asyncio
import fcntl
import functools
import json
import os
import signal
import stat
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from ..engine.tracesim import TraceSimResult
from ..obs import runtime as _obs
from ..obs.export import prometheus_http_payload
from ..workloads import PartialStripeError
from .advisor import CacheAdvisor, Window
from .checkpoint import CheckpointWriter, restore_advisor
from .config import Advice, ArraySpec, ServeConfig
from .ingest import BoundedIngestQueue

__all__ = ["AdvisorServer", "StdinUnreadable"]

_IDLE_TICK = 0.2  # seconds between shutdown checks while the queue is idle
_FILE_CHUNK = 1 << 16  # bytes per read of a file stdin


class StdinUnreadable(OSError):
    """``read_stdin`` is set but the server cannot read stdin."""


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next wire line (``b""`` at EOF), or None for a bad one, which
    the caller counts once and never ingests or answers:

    * a line past the reader's limit is skipped through its newline, so
      the connection keeps its framing.  (``readline()`` raises instead,
      and after it the tail of the line would read as a line of its own.)
    * an unterminated tail at EOF — a client that closed mid-line — is
      dropped: only its newline marks a record as sent in full.
    """
    skipping = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return None if skipping or exc.partial else b""
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)  # already buffered
            skipping = True
            continue
        return None if skipping else line


async def _open_stdin() -> tuple[asyncio.StreamReader, int | None]:
    """A reader over stdin, plus stdin's descriptor when the caller must
    feed the reader with :func:`_feed_file`.

    A pipe, socket or terminal is attached to the loop.  The loop's
    selector cannot watch a regular file (``serve --stdin <
    records.jsonl``) or ``/dev/null``, so those are read instead.
    Raises :class:`StdinUnreadable` when stdin is closed, has no
    descriptor, or is not open for reading.
    """
    if sys.stdin is None:  # the process started with stdin closed
        raise StdinUnreadable("stdin is closed")
    try:
        fd = sys.stdin.fileno()
    except (OSError, ValueError) as exc:
        raise StdinUnreadable(f"stdin has no file descriptor: {exc}") from None
    if fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_WRONLY:
        raise StdinUnreadable("stdin is not open for reading")
    reader = asyncio.StreamReader()
    mode = os.fstat(fd).st_mode
    if not (stat.S_ISFIFO(mode) or stat.S_ISSOCK(mode) or os.isatty(fd)):
        return reader, fd
    await asyncio.get_running_loop().connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    return reader, None


async def _feed_file(reader: asyncio.StreamReader, fd: int) -> None:
    """Feed the file open at ``fd`` to ``reader`` a chunk at a time, and
    end it with EOF.  Each read runs in the loop's default executor, so
    a slow disk stalls no task on the loop."""
    loop = asyncio.get_running_loop()
    while chunk := await loop.run_in_executor(None, os.read, fd, _FILE_CHUNK):
        reader.feed_data(chunk)
    reader.feed_eof()


class AdvisorServer:
    """The serve loop: sockets and signals outside, one advisor inside."""

    def __init__(
        self,
        config: ServeConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_port: int | None = 0,
        read_stdin: bool = False,
    ):
        self.config = config
        self.host = host
        self._want_port = port
        self._want_metrics_port = metrics_port
        self.read_stdin = read_stdin
        restored = (
            restore_advisor(config, config.checkpoint_path)
            if config.checkpoint_path
            else None
        )
        self.resumed = restored is not None
        self.advisor = restored or CacheAdvisor(config)
        # An event outside the served layout is a bad line.
        self.queue = BoundedIngestQueue(config.queue_limit, self.advisor.layout)
        self._checkpoint = (
            CheckpointWriter(config.checkpoint_path, self.advisor)
            if config.checkpoint_path
            else None
        )
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._tasks: list[asyncio.Task] = []
        self._stop = asyncio.Event()
        self._drained = asyncio.Event()
        self._batches_since_checkpoint = 0
        # One thread replays windows; None once it is joined at shutdown.
        self._evaluator: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="advisor-evaluate"
        )
        #: window key -> (the snapshot, its evaluation in flight)
        self._evaluating: dict[
            tuple[int, int, int], tuple[Window, asyncio.Future]
        ] = {}

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int | None:
        """The bound query/ingest port (None before :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> int | None:
        if self._metrics_server is None or not self._metrics_server.sockets:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Open stdin if asked, bind listeners, install signal handlers,
        start the batch loop.  Raises :class:`StdinUnreadable`, before
        anything is bound, when ``read_stdin`` is set and stdin cannot
        be read."""
        stdin = await _open_stdin() if self.read_stdin else None
        if not _obs.enabled():
            _obs.enable()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._want_port
        )
        if self._want_metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics, self.host, self._want_metrics_port
            )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break  # platform without unix signal support
        self._tasks.append(asyncio.ensure_future(self._batch_loop()))
        if stdin is not None:
            reader, file_fd = stdin
            if file_fd is not None:
                self._tasks.append(asyncio.ensure_future(_feed_file(reader, file_fd)))
            self._tasks.append(asyncio.ensure_future(self._stdin_loop(reader)))
        if _obs.ENABLED:
            _obs.gauge("serve.up").set(1)

    def request_shutdown(self) -> None:
        """Begin the graceful drain; idempotent, safe from a signal."""
        self._stop.set()

    async def serve_forever(self) -> None:
        """Block until a shutdown request, then drain and close."""
        await self._stop.wait()
        await self._shutdown()

    async def _shutdown(self) -> None:
        # Stop accepting before draining, so the drain has a fixed end.
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
        await self._drained.wait()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for server in (self._server, self._metrics_server):
            if server is not None:
                try:
                    await server.wait_closed()
                except Exception:  # pragma: no cover
                    pass
        # Let the evaluations in flight answer, then join their thread:
        # nothing awaits between the last check and the join.
        while self._evaluating:
            await asyncio.gather(
                *(future for _, future in self._evaluating.values()),
                return_exceptions=True,
            )
        evaluator, self._evaluator = self._evaluator, None
        evaluator.shutdown(wait=True)
        if self._checkpoint is not None:
            self._checkpoint.write()
        if _obs.ENABLED:
            _obs.gauge("serve.up").set(0)

    # -- ingest plumbing ----------------------------------------------------

    def feed(self, events: Sequence[PartialStripeError]) -> int:
        """Push events straight into the queue (loadgen path); returns
        how many were accepted.  An event outside the served layout is
        one bad line, as on the wire, and overflow sheds the rest."""
        accepted = 0
        for event in events:
            if self.queue.push(event):
                accepted += 1
        return accepted

    async def _batch_loop(self) -> None:
        config = self.config
        while True:
            if self._stop.is_set() and not len(self.queue):
                break
            got = await self.queue.wait_for_data(timeout=_IDLE_TICK)
            if not got:
                continue
            batch = self.queue.drain(config.batch_events)
            if not batch:
                continue
            self.advisor.ingest(batch)
            self._batches_since_checkpoint += 1
            if (
                self._checkpoint is not None
                and config.checkpoint_every
                and self._batches_since_checkpoint >= config.checkpoint_every
            ):
                self._checkpoint.write()
                self._batches_since_checkpoint = 0
        self._drained.set()

    async def _stdin_loop(self, reader: asyncio.StreamReader) -> None:
        while not self._stop.is_set():
            line = await _read_line(reader)
            if line is None:
                self.queue.reject()
                continue
            if not line:
                self.request_shutdown()  # EOF on stdin ends the stream
                break
            if line.strip():
                self.queue.push_line(line)

    # -- the wire -----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not reader.at_eof():
                line = await _read_line(reader)
                if line is None:
                    self.queue.reject()
                    continue
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                op = self._peek_op(line)
                if op is None:
                    self.queue.push_line(line)
                    continue
                response = await self._answer(op)
                writer.write(
                    json.dumps(response, sort_keys=True).encode("utf-8")
                    + b"\n"
                )
                await writer.drain()
                if op.get("op") == "shutdown":
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    @staticmethod
    def _peek_op(line: bytes) -> dict | None:
        """A query line is a JSON object carrying ``"op"``; anything else
        (including malformed JSON or text) is treated as an ingest record
        so the invalid counter — not a protocol error — absorbs garbage."""
        if b'"op"' not in line:
            return None
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError):  # bad JSON, bad UTF-8, too deep
            return None
        if isinstance(payload, dict) and "op" in payload:
            return payload
        return None

    async def _answer(self, request: dict) -> dict:
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "op": "ping"}
            if op == "advise":
                spec = ArraySpec(
                    code=request.get("code", self.config.code),
                    p=int(request.get("p", self.config.p)),
                    workers=(
                        int(request["workers"])
                        if request.get("workers") is not None
                        else None
                    ),
                )
                advice = await self._advise(spec)
                return {"ok": True, "op": op, "advice": advice.to_dict()}
            if op == "stats":
                return {"ok": True, "op": op, "stats": self.stats()}
            if op == "shutdown":
                self.request_shutdown()
                return {"ok": True, "op": op}
            return {"ok": False, "error": f"unknown op: {op!r}"}
        except (TypeError, ValueError, OverflowError) as exc:  # bad fields
            return {"ok": False, "op": op, "error": str(exc)}

    async def _advise(self, spec: ArraySpec) -> Advice:
        """Answer one ``advise``; the window replays off the loop."""
        started = time.perf_counter()
        advisor = self.advisor
        workers = advisor.workers_for(spec)
        memo = advisor.memoized(workers)
        if memo is None:
            memo = await self._evaluate(workers)
        return advisor.advice(*memo, started=started)

    async def _evaluate(
        self, workers: int
    ) -> tuple[Window, list[TraceSimResult]]:
        """The current window at ``workers`` and its rows from the thread."""
        key = (*self.advisor.window_bounds(), workers)
        pending = self._evaluating.get(key)
        if pending is None:
            if self._evaluator is None:
                raise ValueError("the server is shutting down")
            window = self.advisor.snapshot(workers)
            future = asyncio.get_running_loop().run_in_executor(
                self._evaluator,
                functools.partial(self.advisor.evaluate, window=window),
            )
            pending = self._evaluating[key] = (window, future)
            future.add_done_callback(lambda _: self._evaluating.pop(key, None))
        window, future = pending
        # shield: a cancelled advise must not cancel the others' evaluation
        return window, await asyncio.shield(future)

    def stats(self) -> dict:
        start, stop = self.advisor.window_bounds()
        return {
            "accepted": self.queue.accepted,
            "shed": self.queue.shed,
            "invalid": self.queue.invalid,
            "queued": len(self.queue),
            "batches": self.advisor.batches,
            "evaluations": self.advisor.evaluations,
            "out_of_order": self.advisor.out_of_order,
            "events_seen": self.advisor.events_seen,
            "window": [start, stop],
            "n_blocks": self.advisor.n_blocks,
            "resumed": self.resumed,
        }

    # -- metrics scrape -----------------------------------------------------

    async def _handle_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await reader.readline()  # request line; path is ignored
            writer.write(prometheus_http_payload(_obs.registry()))
            await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

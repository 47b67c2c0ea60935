"""AdvisorServer failure modes: overflow sheds, SIGTERM drains, wire ops."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from dataclasses import replace

import pytest

from repro.engine import intern_stream, make_backend, simulate_grid_pass
from repro.engine.stream import ReplayConfig
from repro.obs import runtime
from repro.serve import (
    AdvisorServer,
    ServeConfig,
    SyntheticSource,
    pick_winner,
    record_lines,
)
from repro.serve.server import _read_line
from repro.utils import parse_size


def _config(**overrides) -> ServeConfig:
    base = dict(
        code="tip",
        p=5,
        workers=4,
        cache_mbs=(2.0, 8.0),
        policies=("fbf", "lru"),
        window_events=36,
        batch_events=12,
    )
    base.update(overrides)
    return ServeConfig(**base)


async def _query(port: int, request: dict) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    line = await reader.readline()
    writer.close()
    await writer.wait_closed()
    return json.loads(line)


async def _until(predicate, what: str, timeout: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, what
        await asyncio.sleep(0.01)


async def _drain_until(server: AdvisorServer, total: int, timeout: float = 20.0):
    await _until(lambda: server.advisor.events_seen >= total,
                 "ingest stalled", timeout)


async def _send(port: int, text: str) -> None:
    _, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(text.encode())
    await writer.drain()
    writer.close()
    await writer.wait_closed()


class _Gate:
    """Holds each evaluation of ``advisor`` until :attr:`release` is set.

    The wait gives up after 20 s, so a gate that blocks the event loop
    (an evaluation run on the loop) cannot hang the test.
    """

    def __init__(self, advisor):
        self.started = threading.Event()
        self.release = threading.Event()
        self.rows: list = []
        evaluate = advisor.evaluate

        def gated(*args, **kwargs):
            self.started.set()
            self.release.wait(20)
            rows = evaluate(*args, **kwargs)
            self.rows.append(rows)
            return rows

        advisor.evaluate = gated


class TestBackpressure:
    def test_overflow_sheds_and_counts(self):
        async def scenario():
            server = AdvisorServer(_config(queue_limit=24), metrics_port=None)
            await server.start()
            events = SyntheticSource("tip", 5, chunk=60).next_batch()
            accepted = server.feed(events)
            assert accepted == 24  # queue_limit, not the burst size
            assert server.queue.shed == 36
            registry = runtime.registry()
            assert (
                registry.snapshot()["counters"]["serve.ingest.shed"] == 36
            )
            server.request_shutdown()
            await server.serve_forever()
            # everything *accepted* still landed — only overflow shed
            assert server.advisor.events_seen == 24

        runtime.enable(fresh=True)
        asyncio.run(scenario())


class TestGracefulDrain:
    def test_sigterm_drains_in_flight_batches(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"

        async def scenario():
            server = AdvisorServer(
                _config(checkpoint_path=str(ckpt), checkpoint_every=0),
                metrics_port=None,
            )
            await server.start()
            source = SyntheticSource("tip", 5, chunk=12)
            fed = sum(server.feed(batch) for batch in source.batches(4))
            assert fed == 48
            # SIGTERM lands while all 48 events are still queued; the
            # drain must flush every accepted batch before returning.
            os.kill(os.getpid(), signal.SIGTERM)
            await server.serve_forever()
            assert server.advisor.events_seen == 48
            assert len(server.queue) == 0

        asyncio.run(scenario())
        # ...and the final checkpoint reflects the drained state.
        assert ckpt.is_file()
        state = json.loads(ckpt.read_text())["state"]
        assert state["dropped"] + len(state["events"]) == 48

    def test_checkpointed_server_resumes(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        config = _config(checkpoint_path=str(ckpt), checkpoint_every=0)

        async def first_life():
            server = AdvisorServer(config, metrics_port=None)
            await server.start()
            server.feed(SyntheticSource("tip", 5, chunk=12).next_batch())
            await _drain_until(server, 12)
            rows = server.advisor.evaluate()
            server.request_shutdown()
            await server.serve_forever()
            return rows

        async def second_life():
            server = AdvisorServer(config, metrics_port=None)
            assert server.resumed
            rows = server.advisor.evaluate()
            return rows

        assert asyncio.run(first_life()) == asyncio.run(second_life())


class TestEvaluationThread:
    """An advise replays its window off the loop; the loop keeps ingesting."""

    def test_ingest_is_read_and_counted_while_an_evaluation_runs(self):
        async def scenario():
            server = AdvisorServer(_config(), metrics_port=None)
            await server.start()
            source = SyntheticSource("tip", 5, chunk=12)
            await _send(server.port, record_lines(source.next_batch()))
            await _drain_until(server, 12)
            gate = _Gate(server.advisor)
            advise = asyncio.ensure_future(_query(server.port, {"op": "advise"}))
            await _until(gate.started.is_set, "no evaluation started")
            await _send(server.port, record_lines(source.next_batch()))
            await _drain_until(server, 24)
            stats = (await _query(server.port, {"op": "stats"}))["stats"]
            assert (stats["accepted"], stats["events_seen"]) == (24, 24)
            assert not advise.done()  # the evaluation is still held
            gate.release.set()
            answer = await asyncio.wait_for(advise, 10)
            assert answer["ok"]
            # The reply describes the window it evaluated, not the log now.
            assert (answer["advice"]["window_start"],
                    answer["advice"]["window_events"]) == (0, 12)
            server.request_shutdown()
            await server.serve_forever()

        asyncio.run(scenario())

    def test_compaction_mid_evaluation_leaves_its_rows_exact(self):
        config = _config()  # the log keeps the last 36 events

        async def scenario():
            server = AdvisorServer(config, metrics_port=None)
            await server.start()
            source = SyntheticSource("tip", 5, chunk=12, seed=5)
            events = []
            for batch in source.batches(3):
                events += batch
                server.feed(batch)
            await _drain_until(server, 36)
            gate = _Gate(server.advisor)
            advise = asyncio.ensure_future(_query(server.port, {"op": "advise"}))
            await _until(gate.started.is_set, "no evaluation started")
            for batch in source.batches(8):
                events += batch
                server.feed(batch)
            await _drain_until(server, 132)
            assert server.advisor.first_event > 36  # the window left the log
            assert not advise.done()
            gate.release.set()
            answer = await asyncio.wait_for(advise, 10)
            server.request_shutdown()
            await server.serve_forever()
            return answer["advice"], gate.rows[0], events

        advice, rows, events = asyncio.run(scenario())
        start, n = advice["window_start"], advice["window_events"]
        assert (start, n) == (0, 36)
        block = parse_size(config.chunk_size)
        grid = [
            ReplayConfig(policy=policy, capacity_blocks=int(mb * 1024 * 1024) // block,
                         workers=config.workers, hint=config.hint)
            for policy in config.policies
            for mb in config.cache_mbs
        ]
        backend = make_backend(config.code, config.p, scheme_mode=config.scheme_mode)
        offline = simulate_grid_pass(backend, events[start:start + n], grid)
        assert rows == offline
        winner = pick_winner(offline)
        assert (advice["policy"], advice["capacity_blocks"], advice["hit_ratio"]) == (
            winner.policy, winner.capacity_blocks, winner.hit_ratio)

    def test_sigterm_mid_evaluation_drains_and_joins_the_thread(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"

        async def scenario():
            server = AdvisorServer(
                _config(checkpoint_path=str(ckpt), checkpoint_every=0),
                metrics_port=None,
            )
            await server.start()
            source = SyntheticSource("tip", 5, chunk=12)
            server.feed(source.next_batch())
            await _drain_until(server, 12)
            gate = _Gate(server.advisor)
            advise = asyncio.ensure_future(_query(server.port, {"op": "advise"}))
            await _until(gate.started.is_set, "no evaluation started")
            fed = 12 + sum(server.feed(batch) for batch in source.batches(3))
            assert not advise.done()
            os.kill(os.getpid(), signal.SIGTERM)
            asyncio.get_running_loop().call_later(0.2, gate.release.set)
            await server.serve_forever()
            assert server.advisor.events_seen == fed == 48
            assert (await asyncio.wait_for(advise, 10))["ok"]

        asyncio.run(scenario())
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("advisor-evaluate")]
        state = json.loads(ckpt.read_text())["state"]
        assert state["dropped"] + len(state["events"]) == 48
        assert state["evaluations"] == 1


class TestWire:
    def test_ops_and_record_ingest_share_one_port(self):
        async def scenario():
            server = AdvisorServer(_config(), metrics_port=None)
            await server.start()
            port = server.port
            assert (await _query(port, {"op": "ping"}))["ok"]

            events = SyntheticSource("tip", 5, chunk=12).next_batch()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for event in events:
                writer.write(
                    (json.dumps({
                        "time": event.time,
                        "stripe": event.stripe,
                        "disk": event.disk,
                        "start_row": event.start_row,
                        "length": event.length,
                    }) + "\n").encode()
                )
            writer.write(b"this is not json\n")
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await _drain_until(server, 12)

            stats = (await _query(port, {"op": "stats"}))["stats"]
            assert stats["accepted"] == 12
            assert stats["invalid"] == 1
            assert stats["shed"] == 0

            answer = await _query(port, {"op": "advise"})
            assert answer["ok"]
            advice = answer["advice"]
            offline = server.advisor.advise()
            assert advice["policy"] == offline.policy
            assert advice["hit_ratio"] == offline.hit_ratio

            unknown = await _query(port, {"op": "frobnicate"})
            assert not unknown["ok"]

            assert (await _query(port, {"op": "shutdown"}))["ok"]
            await server.serve_forever()

        asyncio.run(scenario())

    def test_wrong_geometry_advise_is_refused_not_fatal(self):
        async def scenario():
            server = AdvisorServer(_config(), metrics_port=None)
            await server.start()
            server.feed(SyntheticSource("tip", 5, chunk=12).next_batch())
            await _drain_until(server, 12)
            answer = await _query(
                server.port, {"op": "advise", "code": "star", "p": 5}
            )
            assert not answer["ok"]
            assert "advisor serves" in answer["error"]
            server.request_shutdown()
            await server.serve_forever()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "bad_line, refused, invalid",
        [
            (b'{"pad": "' + b"x" * (70 * 1024) + b'"}', False, 1),
            # past one 256 KiB socket read: the tail arrives separately
            (b'{"pad": "' + b"x" * (300 * 1024) + b'"}', False, 1),
            (b'{"op": "advise", "p": null}', True, 0),
            (b'{"op": "ping\xff"}', False, 1),
            (b'{"op": ' + b"[" * 5000 + b"}", False, 1),
            (b'{"time": 0, "stripe": 1e400, "disk": 0, "start_row": 0, "length": 1}',
             False, 1),
            # TIP p=5 has 6 disks and 4 rows
            (b'{"time": 0.5, "stripe": 5, "disk": 99, "start_row": 0, "length": 1}',
             False, 1),
            (b'{"time": 0.5, "stripe": 5, "disk": 0, "start_row": 2, "length": 3}',
             False, 1),
        ],
        ids=["over-64KiB", "over-256KiB", "null-field", "non-utf8", "too-deep", "inf-int",
             "disk-out-of-layout", "rows-out-of-layout"],
    )
    def test_bad_line_fails_closed_and_connection_survives(
        self, bad_line, refused, invalid
    ):
        async def scenario():
            server = AdvisorServer(_config(), metrics_port=None)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(bad_line + b'\n{"op": "ping"}\n')
            await writer.drain()
            if refused:
                answer = json.loads(await asyncio.wait_for(reader.readline(), 10))
                assert answer["ok"] is False
            pong = json.loads(await asyncio.wait_for(reader.readline(), 10))
            assert pong == {"ok": True, "op": "ping"}
            writer.close()
            await writer.wait_closed()
            assert server.stats()["invalid"] == invalid
            assert server.stats()["accepted"] == 0
            server.request_shutdown()
            await asyncio.wait_for(server.serve_forever(), 10)

        asyncio.run(scenario())

    def test_out_of_layout_record_leaves_ingest_running(self):
        """A record outside the served layout is one bad line; the good
        records after it land, advise answers and the drain completes."""

        async def scenario():
            server = AdvisorServer(_config(), metrics_port=None)
            await server.start()
            bad = '{"time": 0.5, "stripe": 5, "disk": 99, "start_row": 0, "length": 1}\n'
            good = SyntheticSource("tip", 5, chunk=12).next_batch()
            await _send(server.port, bad + record_lines(good))
            await _drain_until(server, len(good))
            stats = (await _query(server.port, {"op": "stats"}))["stats"]
            assert (stats["accepted"], stats["invalid"]) == (len(good), 1)
            assert stats["events_seen"] == len(good)
            assert (await _query(server.port, {"op": "advise"}))["ok"]
            server.request_shutdown()
            await asyncio.wait_for(server.serve_forever(), 10)
            assert server.advisor.events_seen == len(good)

        asyncio.run(scenario())

    def test_a_fed_out_of_layout_event_is_one_bad_line(self):
        async def scenario():
            server = AdvisorServer(_config(), metrics_port=None)
            await server.start()
            events = SyntheticSource("tip", 5, chunk=12).next_batch()
            assert server.feed(events + [replace(events[0], disk=99)]) == len(events)
            await _drain_until(server, len(events))
            stats = server.stats()
            assert (stats["accepted"], stats["invalid"]) == (len(events), 1)
            server.request_shutdown()
            await asyncio.wait_for(server.serve_forever(), 10)
            assert server.advisor.events_seen == len(events)

        asyncio.run(scenario())

    def test_stats_n_blocks_is_the_evaluated_window_s(self):
        async def scenario():
            server = AdvisorServer(_config(), metrics_port=None)
            await server.start()
            source = SyntheticSource("tip", 5, chunk=12)
            server.feed(source.next_batch())
            await _drain_until(server, 12)
            assert (await _query(server.port, {"op": "stats"}))["stats"]["n_blocks"] == 0
            assert (await _query(server.port, {"op": "advise"}))["ok"]
            stats = (await _query(server.port, {"op": "stats"}))["stats"]
            blocks = intern_stream(
                server.advisor.backend, server.advisor.window_events()
            ).n_blocks
            assert stats["n_blocks"] == blocks > 0
            gauges = runtime.registry().snapshot()["gauges"]
            assert gauges["serve.window.blocks"] == blocks
            server.feed(source.next_batch())  # ingest leaves it to evaluate
            await _drain_until(server, 24)
            assert (await _query(server.port, {"op": "stats"}))["stats"]["n_blocks"] == blocks
            server.request_shutdown()
            await asyncio.wait_for(server.serve_forever(), 10)

        asyncio.run(scenario())

    def test_a_client_closing_mid_line_sends_one_bad_line(self):
        """A record without its newline at EOF is counted, never ingested."""

        async def scenario():
            server = AdvisorServer(_config(), metrics_port=None)
            await server.start()
            line = record_lines(SyntheticSource("tip", 5, chunk=1).next_batch())
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # The same record twice, the second without its newline.
            writer.write((line + line.rstrip("\n")).encode())
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            deadline = asyncio.get_running_loop().time() + 10
            while server.queue.accepted + server.queue.invalid < 2:
                assert asyncio.get_running_loop().time() < deadline, "lines unread"
                await asyncio.sleep(0.02)
            await _drain_until(server, 1)
            stats = (await _query(server.port, {"op": "stats"}))["stats"]
            assert (stats["accepted"], stats["invalid"]) == (1, 1)
            server.request_shutdown()
            await server.serve_forever()
            assert server.advisor.events_seen == 1

        asyncio.run(scenario())

    def test_over_long_line_is_one_bad_line(self):
        """Both overrun shapes skip exactly through the newline."""

        async def scenario():
            reader = asyncio.StreamReader(limit=16)
            # separator already buffered past the limit
            reader.feed_data(b"y" * 40 + b"\nok\n")
            assert await _read_line(reader) is None
            assert await _read_line(reader) == b"ok\n"
            # separator not yet buffered: the tail arrives later
            reader.feed_data(b"z" * 40)
            pending = asyncio.ensure_future(_read_line(reader))
            await asyncio.sleep(0)
            reader.feed_data(b"z" * 40 + b"\nlast")
            reader.feed_eof()
            assert await pending is None
            assert await _read_line(reader) is None  # unterminated tail
            assert await _read_line(reader) == b""

        asyncio.run(scenario())

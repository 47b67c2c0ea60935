"""The ingest edge: wire parsing, bounded queue, shed-and-count."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.codes import make_code
from repro.obs import runtime
from repro.serve import BoundedIngestQueue, parse_record
from repro.workloads import PartialStripeError

_LAYOUT = make_code("tip", 5)  # 6 disks, 4 rows


def _record(i: int) -> str:
    return json.dumps(
        {"time": float(i), "stripe": i, "disk": 0, "start_row": 0, "length": 1}
    )


def _event(i: int) -> PartialStripeError:
    return PartialStripeError(time=float(i), stripe=i, disk=0, start_row=0, length=1)


class TestParseRecord:
    def test_round_trip(self):
        event = parse_record(_record(7))
        assert event == _event(7)

    def test_bytes_accepted(self):
        assert parse_record(_record(3).encode()) == _event(3)

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2, 3]",
            '"a string"',
            json.dumps({"time": 1.0, "stripe": 0}),  # missing fields
            json.dumps({"time": 1.0, "stripe": 0, "disk": 0,
                        "start_row": 0, "length": 0}),  # length must be >= 1
            json.dumps({"time": 1.0, "stripe": "x", "disk": 0,
                        "start_row": 0, "length": 1}),
        ],
    )
    def test_malformed_raises_value_error(self, line):
        with pytest.raises(ValueError):
            parse_record(line)


class TestBoundedQueue:
    def test_overflow_sheds_and_counts(self):
        registry = runtime.enable(fresh=True)

        async def scenario():
            queue = BoundedIngestQueue(limit=3, layout=_LAYOUT)
            outcomes = [queue.push(_event(i)) for i in range(5)]
            assert outcomes == [True, True, True, False, False]
            assert queue.accepted == 3
            assert queue.shed == 2
            assert len(queue) == 3

        asyncio.run(scenario())
        snap = registry.snapshot()
        assert snap["counters"]["serve.ingest.shed"] == 2
        assert snap["counters"]["serve.ingest.records"] == 3

    @pytest.mark.parametrize("time", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_time_counted_invalid(self, time):
        registry = runtime.enable(fresh=True)

        async def scenario():
            queue = BoundedIngestQueue(limit=8, layout=_LAYOUT)
            line = '{"time": %s, "stripe": 1, "disk": 0, "start_row": 0, "length": 1}'
            assert not queue.push_line(line % time)
            assert (queue.invalid, queue.accepted, len(queue)) == (1, 0, 0)

        asyncio.run(scenario())
        assert registry.snapshot()["counters"]["serve.ingest.invalid"] == 1

    @pytest.mark.parametrize("fields", [{"disk": 6}, {"start_row": 3, "length": 2}])
    def test_out_of_layout_event_counted_invalid(self, fields):
        """A record outside the layout is a bad line, pushed or on the wire."""
        registry = runtime.enable(fresh=True)

        async def scenario():
            edge = {"time": 1.0, "stripe": 0, "disk": 5, "start_row": 3, "length": 1}
            outside = {**edge, **fields}
            queue = BoundedIngestQueue(limit=8, layout=_LAYOUT)
            assert queue.push_line(json.dumps(edge))  # the layout's last cell
            assert not queue.push_line(json.dumps(outside))
            assert not queue.push(PartialStripeError(**outside))
            assert (queue.invalid, queue.accepted, len(queue)) == (2, 1, 1)

        asyncio.run(scenario())
        assert registry.snapshot()["counters"]["serve.ingest.invalid"] == 2

    def test_invalid_lines_counted_not_queued(self):
        async def scenario():
            queue = BoundedIngestQueue(limit=8, layout=_LAYOUT)
            assert not queue.push_line("garbage")
            assert queue.push_line(_record(1))
            assert queue.invalid == 1
            assert queue.accepted == 1

        asyncio.run(scenario())

    def test_drain_is_fifo_and_bounded(self):
        async def scenario():
            queue = BoundedIngestQueue(limit=16, layout=_LAYOUT)
            for i in range(6):
                queue.push(_event(i))
            first = queue.drain(4)
            assert [e.stripe for e in first] == [0, 1, 2, 3]
            assert [e.stripe for e in queue.drain(10)] == [4, 5]
            assert queue.drain(10) == []

        asyncio.run(scenario())

    def test_shed_then_drain_frees_capacity(self):
        async def scenario():
            queue = BoundedIngestQueue(limit=2, layout=_LAYOUT)
            queue.push(_event(0))
            queue.push(_event(1))
            assert not queue.push(_event(2))
            queue.drain(1)
            assert queue.push(_event(3))
            assert [e.stripe for e in queue.drain(10)] == [1, 3]

        asyncio.run(scenario())

    def test_wait_for_data_times_out_empty(self):
        async def scenario():
            queue = BoundedIngestQueue(limit=2, layout=_LAYOUT)
            assert not await queue.wait_for_data(timeout=0.01)
            queue.push(_event(0))
            assert await queue.wait_for_data(timeout=0.01)

        asyncio.run(scenario())

    def test_zero_limit_rejected(self):
        with pytest.raises(ValueError):
            BoundedIngestQueue(limit=0, layout=_LAYOUT)

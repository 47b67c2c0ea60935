"""End-to-end serve smoke: the CI job behind ``python -m repro.serve.smoke``.

Spins up a real :class:`~repro.serve.server.AdvisorServer` on loopback,
streams synthetic wire records at it over TCP, issues an ``advise``
query, scrapes ``/metrics`` over HTTP, then drains the server — and
fails (exit 1) if any of the always-on service's contracts broke:

* every streamed record must land (``shed == 0`` and no invalid lines);
* the served advice must equal, bit for bit, the offline winner of
  ``simulate_grid_pass`` over the same window — the recommendation is a
  replay, not an estimate;
* the Prometheus scrape must carry the ``serve.*`` series, including
  the ``serve.advise.latency`` histogram and its p99 gauge;
* a second server started on the checkpoint the first one wrote at its
  drain must say it resumed, serve the same advice over TCP, and its
  advisor's ``evaluate()`` rows must equal the live server's.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from ..engine.registry import make_backend
from ..engine.stream import ReplayConfig, simulate_grid_pass
from ..obs import emit
from ..utils import parse_size
from .advisor import pick_winner
from .config import ServeConfig
from .loadgen import SyntheticSource, record_lines
from .server import AdvisorServer

__all__ = ["smoke_config", "run_smoke", "main"]

#: Prometheus series the scrape must contain (mangled names).
REQUIRED_SERIES = (
    "repro_serve_ingest_records",
    "repro_serve_ingest_batches",
    "repro_serve_advise_latency_count",
    "repro_serve_advise_latency_p99",
)


def smoke_config() -> ServeConfig:
    """A small-window deployment that keeps the smoke run in seconds."""
    return ServeConfig(
        workers=4,
        cache_mbs=(2.0, 8.0, 32.0),
        window_events=96,
        batch_events=24,
        queue_limit=4096,
    )


async def _send_lines(port: int, text: str) -> None:
    _, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(text.encode("utf-8"))
    await writer.drain()
    writer.close()
    await writer.wait_closed()


async def _query(port: int, request: dict) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(json.dumps(request).encode("utf-8") + b"\n")
    await writer.drain()
    line = await reader.readline()
    writer.close()
    await writer.wait_closed()
    return json.loads(line)


async def _scrape(port: int) -> str:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    text = raw.decode("utf-8")
    if "\r\n\r\n" not in text:
        raise AssertionError("metrics response carried no body")
    return text.split("\r\n\r\n", 1)[1]


async def _await_ingested(server: AdvisorServer, total: int, timeout: float) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while server.advisor.events_seen < total:
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(
                f"ingest stalled: {server.advisor.events_seen}"
                f"/{total} events after {timeout}s"
            )
        await asyncio.sleep(0.05)


def _offline_winner(server: AdvisorServer) -> dict:
    """The advisor's answer, recomputed the offline way from scratch."""
    config = server.config
    backend = make_backend(config.code, config.p, scheme_mode=config.scheme_mode)
    block = parse_size(config.chunk_size)
    grid = [
        ReplayConfig(
            policy=policy,
            capacity_blocks=int(mb * 1024 * 1024) // block,
            workers=config.workers,
            hint=config.hint,
        )
        for policy in config.policies
        for mb in config.cache_mbs
    ]
    rows = simulate_grid_pass(backend, server.advisor.window_events(), grid)
    winner = pick_winner(rows)
    return {
        "policy": winner.policy,
        "capacity_blocks": winner.capacity_blocks,
        "hit_ratio": winner.hit_ratio,
    }


async def run_smoke(n_batches: int = 8, timeout: float = 30.0) -> dict:
    """Run the whole scenario; returns a report dict, raises on failure."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        config = replace(
            smoke_config(), checkpoint_path=str(Path(tmp) / "advisor.ckpt")
        )
        report = await _live(config, n_batches, timeout)
        rows = report.pop("rows")
        report["resumed"] = await _resumed(config, report["advice"], rows)
    return report


async def _resumed(config: ServeConfig, advice: dict, rows: list) -> dict:
    """Restart on the drained server's checkpoint; it must carry on exactly."""
    server = AdvisorServer(config, metrics_port=None)
    failures: list[str] = []
    if not server.resumed:
        failures.append("restart did not resume from the checkpoint")
    await server.start()
    try:
        answer = await _query(server.port, {"op": "advise"})
        if answer.get("advice") != advice:
            failures.append(f"resumed advice {answer.get('advice')} != live {advice}")
        if server.advisor.evaluate() != rows:
            failures.append("resumed evaluate() rows differ from the live ones")
    finally:
        server.request_shutdown()
        await server.serve_forever()
    if failures:
        raise AssertionError("; ".join(failures))
    return {"events_seen": server.advisor.events_seen}


async def _live(config: ServeConfig, n_batches: int, timeout: float) -> dict:
    server = AdvisorServer(config)
    await server.start()
    failures: list[str] = []
    try:
        source = SyntheticSource(config.code, config.p, chunk=config.batch_events)
        total = 0
        for batch in source.batches(n_batches):
            await _send_lines(server.port, record_lines(batch))
            total += len(batch)
        await _await_ingested(server, total, timeout)

        answer = await _query(server.port, {"op": "advise"})
        if not answer.get("ok"):
            failures.append(f"advise failed: {answer}")
        advice = answer.get("advice", {})

        offline = _offline_winner(server)
        for field in ("policy", "capacity_blocks", "hit_ratio"):
            if advice.get(field) != offline[field]:
                failures.append(
                    f"served advice diverged from offline replay on "
                    f"{field}: {advice.get(field)!r} != {offline[field]!r}"
                )

        stats = (await _query(server.port, {"op": "stats"}))["stats"]
        if stats["shed"] != 0:
            failures.append(f"ingest shed {stats['shed']} records")
        if stats["invalid"] != 0:
            failures.append(f"{stats['invalid']} records failed to parse")
        if stats["events_seen"] != total:
            failures.append(
                f"events_seen {stats['events_seen']} != streamed {total}"
            )

        scrape = await _scrape(server.metrics_port)
        present = {
            line.split(" ")[0].split("{")[0]
            for line in scrape.splitlines()
            if line and not line.startswith("#")
        }
        for series in REQUIRED_SERIES:
            if series not in present:
                failures.append(f"/metrics missing series {series}")
        shed_lines = [
            line
            for line in scrape.splitlines()
            if line.startswith("repro_serve_ingest_shed ")
        ]
        if any(float(line.split()[1]) != 0 for line in shed_lines):
            failures.append(f"nonzero shed in scrape: {shed_lines}")
    finally:
        server.request_shutdown()
        await server.serve_forever()
    if failures:
        raise AssertionError("; ".join(failures))
    return {
        "streamed": total,
        "advice": advice,
        "offline": offline,
        "stats": stats,
        "series": sorted(s for s in present if s.startswith("repro_serve")),
        "rows": server.advisor.evaluate(),  # the advised window's, memoized
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end smoke of the repro-fbf advisor service"
    )
    parser.add_argument("--batches", type=int, default=8)
    parser.add_argument("--timeout", type=float, default=30.0)
    args = parser.parse_args(argv)
    try:
        report = asyncio.run(run_smoke(args.batches, args.timeout))
    except AssertionError as exc:
        emit(f"serve smoke FAILED: {exc}", stream=sys.stderr)
        return 1
    emit(json.dumps(report, indent=2, sort_keys=True))
    emit("serve smoke OK", stream=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

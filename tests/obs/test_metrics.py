"""Unit tests for the metric primitives and the runtime switch."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.obs import (
    NULL_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    render_summary,
)
from repro.obs import runtime


class TestPrimitives:
    def test_counter(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.snapshot() == 5

    def test_gauge(self):
        g = Gauge("x")
        g.set(2.5)
        g.inc()
        g.dec(0.5)
        assert g.snapshot() == 3.0

    def test_histogram_buckets_and_stats(self):
        h = Histogram("x", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["counts"] == [1, 1, 1]  # <=1, <=10, overflow
        assert snap["min"] == 0.5 and snap["max"] == 50.0
        assert snap["mean"] == pytest.approx(55.5 / 3)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", bounds=(2.0, 1.0))

    def test_quantile_interpolates_within_observed_range(self):
        h = Histogram("x", bounds=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 3.0, 3.5, 6.0):
            h.observe(value)
        assert h.quantile(0.0) == 0.5  # clamped to the observed min
        assert h.quantile(1.0) == 6.0  # ... and max
        for q in (0.25, 0.5, 0.9, 0.99):
            assert 0.5 <= h.quantile(q) <= 6.0
        assert h.quantile(0.5) <= h.quantile(0.99)  # monotone

    def test_quantile_overflow_bucket_reports_max(self):
        h = Histogram("x", bounds=(1.0,))
        for value in (50.0, 60.0, 70.0):
            h.observe(value)
        assert h.quantile(0.99) == 70.0

    def test_quantile_edge_cases(self):
        h = Histogram("x")
        import math

        assert math.isnan(h.quantile(0.5))  # empty
        with pytest.raises(ValueError):
            h.quantile(1.5)
        h.observe(2.0)
        assert h.quantile(0.99) == 2.0

    def test_snapshot_carries_p99(self):
        h = Histogram("x", bounds=(1.0, 10.0))
        assert h.snapshot()["p99"] is None
        h.observe(5.0)
        assert h.snapshot()["p99"] == h.quantile(0.99)

    def test_null_metric_absorbs_everything(self):
        NULL_METRIC.inc()
        NULL_METRIC.dec()
        NULL_METRIC.set(1)
        NULL_METRIC.observe(2)
        NULL_METRIC["attr"] = "value"
        with NULL_METRIC as span:
            assert span is NULL_METRIC


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_span_records_aggregate_and_attrs(self):
        reg = MetricRegistry()
        with reg.span("phase", {"k": 1}) as span:
            span["extra"] = "v"
        snap = reg.snapshot()
        assert snap["spans"]["phase"]["count"] == 1
        assert snap["spans"]["phase"]["total_s"] >= 0
        assert reg.spans[0].attrs == {"k": 1, "extra": "v"}

    def test_span_retention_cap(self):
        reg = MetricRegistry(max_spans=2)
        for _ in range(5):
            with reg.span("phase"):
                pass
        assert len(reg.spans) == 2
        assert reg.spans_dropped == 3
        assert reg.snapshot()["spans"]["phase"]["count"] == 5  # aggregate unbounded


    def test_snapshot_while_other_threads_create_metrics(self):
        """Writer threads create counters and record spans while the main
        thread snapshots (and renders the scrape): nothing raises and
        every count lands.  Each counter has one writer, as in the
        advisor service."""
        from repro.obs.export import to_prometheus

        reg = MetricRegistry(max_spans=64)
        n_threads, n = 3, 7000
        errors: list[BaseException] = []

        def writer(k: int) -> None:
            try:
                for i in range(n):
                    reg.counter(f"engine.grid.t{k}.c{i}").inc()
                    with reg.span("engine.grid_pass"):
                        pass
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=writer, args=(k,)) for k in range(n_threads)]
        try:
            for thread in threads:
                thread.start()
            snapshots = 0
            while any(thread.is_alive() for thread in threads):
                reg.snapshot()
                to_prometheus(reg)
                snapshots += 1
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        snap = reg.snapshot()
        assert sum(snap["counters"].values()) == n_threads * n
        assert snap["spans"]["engine.grid_pass"]["count"] == n_threads * n
        assert len(reg.spans) + reg.spans_dropped == n_threads * n
        assert snapshots > 0


class TestRuntime:
    def test_disabled_returns_null(self):
        runtime.disable()
        assert runtime.counter("x") is NULL_METRIC
        assert runtime.span("x") is NULL_METRIC
        assert not runtime.enabled()

    def test_enable_fresh_resets(self):
        reg = runtime.enable(fresh=True)
        runtime.counter("x").inc()
        assert runtime.enabled() and runtime.ENABLED
        reg2 = runtime.enable(fresh=True)
        assert reg2 is not reg
        assert reg2.snapshot()["counters"] == {}

    def test_disable_keeps_registry_for_export(self):
        reg = runtime.enable(fresh=True)
        runtime.counter("x").inc()
        runtime.disable()
        assert runtime.registry() is reg
        assert reg.snapshot()["counters"]["x"] == 1


class TestSummary:
    def test_layer_sections_always_present(self):
        reg = MetricRegistry()
        reg.counter("engine.replays").inc()
        text = render_summary(reg.snapshot())
        assert "[kernel]" in text and "[engine]" in text and "[bench]" in text
        assert "(no data)" in text  # kernel and bench are empty
        assert "engine.replays" in text

"""Metric primitives: ``__slots__`` counters/gauges/histograms + registry.

Instrumentation in this repo follows one rule: **the hot path pays only
when observability is on**.  Call sites never construct metrics inline;
they go through :mod:`repro.obs.runtime`, which hands back the shared
:data:`NULL_METRIC` / :data:`NULL_SPAN` singletons while disabled — every
update method on those is an empty function, so a mistakenly retained
handle stays harmless.  When enabled, handles resolve to real objects in
one :class:`MetricRegistry`, which the exporters
(:mod:`repro.obs.export`) and the ``repro-fbf obs`` summary read.

A registry may be shared by two threads (the advisor service replays
windows on a thread beside its event loop).  Creating a metric,
recording a span and taking a snapshot hold the registry's lock; the
update methods (``inc``, ``set``, ``observe``) take none, because each
metric has a single writer thread.

Metric names are dotted, ``<layer>.<subsystem>.<quantity>`` —
``kernel.events_dispatched``, ``engine.plan_cache.hits``,
``bench.point_seconds`` — so the summary can group by layer and the
Prometheus exporter can mangle deterministically (dots become
underscores under a ``repro_`` prefix).
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NullMetric",
    "NULL_METRIC",
    "Span",
    "MetricRegistry",
    "DEFAULT_BUCKETS",
]

#: Log-spaced default histogram bounds (seconds); the overflow bucket is
#: implicit.  Suitable for both wall-clock phase times and virtual-time
#: resource waits, which span microseconds to minutes.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def snapshot(self) -> int | float:
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """A distribution over fixed bucket bounds (count/sum/min/max kept).

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot is
    the overflow bucket.  Bounds are cumulative ("le" semantics), so the
    Prometheus exporter can emit them directly.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation inside the target bucket; observations in
        the overflow bucket resolve to the tracked exact maximum, and
        the first bucket interpolates up from the tracked minimum.
        Returns NaN while empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                if i == len(self.bounds):  # overflow bucket
                    return self.max
                lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[i])
                hi = self.bounds[i]
                frac = (rank - cumulative) / n
                # clamp to the tracked extremes: bucket bounds can
                # overshoot what was actually observed
                return min(self.max, max(self.min, lo + (hi - lo) * frac))
            cumulative += n
        return self.max

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "p99": self.quantile(0.99) if self.count else None,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }


class NullMetric:
    """The disabled-path stand-in for every metric *and* span handle.

    One shared instance (:data:`NULL_METRIC`) answers every update method
    with a no-op and works as a no-op context manager, so instrumented
    code can hold a single handle type regardless of the obs state.
    """

    __slots__ = ()

    def inc(self, n: int | float = 1) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __enter__(self) -> "NullMetric":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def __setitem__(self, key: str, value: Any) -> None:
        pass


NULL_METRIC = NullMetric()


class Span:
    """A timed phase: perf-counter duration plus free-form attributes.

    Spans are recorded through :meth:`MetricRegistry.span` as a context
    manager; ``span["key"] = value`` attaches attributes from inside the
    block.  The registry keeps a bounded raw list (for the JSONL export)
    and unbounded per-name aggregates (for the summary), so FULL-scale
    runs cannot grow memory without bound.
    """

    __slots__ = ("name", "attrs", "start_s", "duration_s", "_registry")

    def __init__(self, name: str, attrs: dict[str, Any], registry: "MetricRegistry"):
        self.name = name
        self.attrs = attrs
        self.start_s = 0.0
        self.duration_s = 0.0
        self._registry = registry

    def __setitem__(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        from time import perf_counter

        self.start_s = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        from time import perf_counter

        self.duration_s = perf_counter() - self.start_s
        self._registry._record_span(self)


class MetricRegistry:
    """All metrics and spans of one observed run.

    Metric accessors are get-or-create and type-checked: asking for
    ``counter(name)`` after ``gauge(name)`` is a programming error and
    raises immediately rather than silently aliasing.  Creation, span
    recording and :meth:`snapshot` hold ``_lock``; a lookup of an
    existing metric takes no lock.
    """

    __slots__ = ("_metrics", "_spans", "_span_stats", "max_spans", "spans_dropped",
                 "_lock")

    def __init__(self, max_spans: int = 4096):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._spans: list[Span] = []
        self._span_stats: dict[str, list[float]] = {}  # name -> [count, total, max]
        self.max_spans = max_spans
        self.spans_dropped = 0
        self._lock = threading.Lock()

    def _get(self, name: str, cls: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = cls(name)
        if type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def span(self, name: str, attrs: Mapping[str, Any] | None = None) -> Span:
        return Span(name, dict(attrs) if attrs else {}, self)

    def _record_span(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(span)
            else:
                self.spans_dropped += 1
            stats = self._span_stats.get(span.name)
            if stats is None:
                self._span_stats[span.name] = [1, span.duration_s, span.duration_s]
            else:
                stats[0] += 1
                stats[1] += span.duration_s
                if span.duration_s > stats[2]:
                    stats[2] = span.duration_s

    def metrics(self) -> Iterator[Counter | Gauge | Histogram]:
        with self._lock:
            metrics = list(self._metrics.values())
        yield from metrics

    @property
    def spans(self) -> list[Span]:
        """The retained raw spans (a copy)."""
        with self._lock:
            return list(self._spans)

    def snapshot(self) -> dict[str, Any]:
        """Everything, as plain JSON-ready data (the exporters' input)."""
        counters: dict[str, int | float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, Any]] = {}
        with self._lock:
            for metric in self._metrics.values():
                if isinstance(metric, Counter):
                    counters[metric.name] = metric.snapshot()
                elif isinstance(metric, Gauge):
                    gauges[metric.name] = metric.snapshot()
                else:
                    histograms[metric.name] = metric.snapshot()
            spans = {
                name: {"count": int(c), "total_s": t, "max_s": m}
                for name, (c, t, m) in sorted(self._span_stats.items())
            }
            spans_dropped = self.spans_dropped
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
            "spans": spans,
            "spans_dropped": spans_dropped,
        }

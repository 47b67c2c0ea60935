"""``repro.obs`` — zero-overhead-when-off observability (DESIGN.md §12).

Three pieces behind one switch:

* **metrics** (:mod:`~repro.obs.metrics`): ``__slots__``
  counter/gauge/histogram primitives in a :class:`MetricRegistry`, with
  a shared :data:`NULL_METRIC` no-op for the disabled path;
* **trace spans** (:meth:`MetricRegistry.span` via :func:`span`):
  perf-counter-timed phases with attributes, recorded through a context
  manager, instrumenting the DES kernel (event dispatch, resource
  waits), the unified engine (stream decode, grid replay, plan-cache
  churn) and the bench engine (per-point wall time, result-cache
  effectiveness, worker utilization);
* **exporters** (:mod:`~repro.obs.export`): JSON-lines and Prometheus
  text format, plus the ``repro-fbf obs`` CLI summary
  (:mod:`~repro.obs.summary`).

Typical use::

    from repro import obs

    registry = obs.enable(fresh=True)
    ...  # run simulations
    obs.disable()
    print_summary = obs.render_summary(registry.snapshot())

Set ``REPRO_OBS=1`` in the environment to enable collection at import
time (useful under the process-pool driver, where each worker decides
for itself).

The overhead contract: with obs **disabled** (the default), instrumented
hot paths pay one module-attribute truth test per coarse operation —
``repro.bench.replay_bench`` rows stay bit-identical and its batched
plus per-point wall time, summed, stays within 2% of the committed
baseline (the CI gate, run through :mod:`repro.bench.perf`).
"""

from __future__ import annotations

import os

from .console import emit
from .export import to_prometheus, write_jsonl, write_prometheus
from .metrics import (
    DEFAULT_BUCKETS,
    NULL_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullMetric,
    Span,
)
from .runtime import (
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
    registry,
    span,
)
from .summary import render_summary

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullMetric",
    "NULL_METRIC",
    "Span",
    "DEFAULT_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "span",
    "enable",
    "disable",
    "enabled",
    "registry",
    "emit",
    "render_summary",
    "to_prometheus",
    "write_jsonl",
    "write_prometheus",
]

if os.environ.get("REPRO_OBS", "").lower() in ("1", "true", "on", "yes"):
    enable()

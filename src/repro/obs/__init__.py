"""repro.obs — zero-dependency observability for the solve path.

Three pieces, all stdlib-only:

* **Tracing** (:mod:`repro.obs.trace`): contextvar-propagated spans
  with deterministic ids, wall/CPU timings, structured attributes, and
  a bounded in-memory buffer of finished traces.  Instrumentation in
  the engine, PLL kernels, replica pool, and replication follower all
  calls :func:`repro.obs.span` — one contextvar read when tracing is
  off.

* **Metrics** (:mod:`repro.obs.metrics`): thread-safe counters,
  gauges and streaming latency reservoirs.  :func:`global_registry`
  holds the process-wide registry that per-layer instrumentation lands
  in; the server merges it into ``{"op": "stats"}`` (as ``"layers"``)
  and ``{"op": "metrics"}``.

* **Exposition** (:mod:`repro.obs.prom`): Prometheus text-format
  rendering of any registry snapshot.
"""

from __future__ import annotations

from .metrics import Counter, Gauge, LatencyReservoir, MetricsRegistry
from .prom import render_prometheus
from .trace import (
    Span,
    Tracer,
    current_span,
    get_tracer,
    record,
    span,
    trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "LatencyReservoir",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "current_span",
    "get_tracer",
    "global_registry",
    "record",
    "render_prometheus",
    "span",
    "trace",
]

_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry per-layer instrumentation lands in."""
    return _GLOBAL

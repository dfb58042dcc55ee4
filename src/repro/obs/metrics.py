"""Metrics: counters, gauges, and streaming latency reservoirs.

The persistent server (:mod:`repro.serving.server`) needs latency
percentiles over an *unbounded* request stream without keeping every
observation.  :class:`LatencyReservoir` uses Vitter's Algorithm R —
uniform reservoir sampling with a fixed capacity — so p50/p95/p99 stay
estimable at O(capacity) memory no matter how long the server runs.
The reservoir's RNG is seeded, so a replayed request stream yields the
same sample (and the same reported percentiles) run over run.

Everything in the registry is thread-safe: observations arrive from
executor worker threads while the asyncio event loop snapshots the
registry for a ``{"op": "stats"}`` response or the ``--stats-interval``
log line.  A :meth:`MetricsRegistry.snapshot` is a plain JSON-ready
dict — the wire format of the stats op.
"""

from __future__ import annotations

import random
import threading
from bisect import insort

__all__ = ["Counter", "Gauge", "LatencyReservoir", "MetricsRegistry"]

#: The percentiles every latency summary reports, as (label, fraction).
PERCENTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time numeric level (queue depth, active connections)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Move the gauge by ``delta`` (negative deltas allowed)."""
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class LatencyReservoir:
    """Streaming percentile estimation via uniform reservoir sampling.

    Until ``capacity`` observations have arrived, the reservoir holds
    *every* observation and percentiles are exact.  Past capacity, each
    new observation replaces a uniformly random slot with probability
    ``capacity / seen`` (Algorithm R), keeping the reservoir a uniform
    sample of the whole stream.  The sample is kept sorted (binary
    insertion), so quantile reads never pay a sort.

    ``observe`` takes seconds; summaries report milliseconds — the unit
    latency SLOs are written in.
    """

    __slots__ = ("_capacity", "_lock", "_rng", "_sample", "_seen", "_sum", "_max")

    def __init__(self, capacity: int = 2048, *, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be positive")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._sample: list[float] = []
        self._seen = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency observation (in seconds)."""
        value = float(seconds)
        with self._lock:
            self._seen += 1
            self._sum += value
            if value > self._max:
                self._max = value
            if len(self._sample) < self._capacity:
                insort(self._sample, value)
                return
            slot = self._rng.randrange(self._seen)
            if slot < self._capacity:
                # Replace one uniformly chosen resident observation.
                del self._sample[self._rng.randrange(self._capacity)]
                insort(self._sample, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._seen

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of the sampled stream, in seconds."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if not self._sample:
            return 0.0
        # Nearest-rank on the sorted sample: robust for the small-n
        # exact regime and unbiased enough for the sampled one.
        rank = min(len(self._sample) - 1, int(q * len(self._sample)))
        return self._sample[rank]

    def summary(self) -> dict[str, float | int]:
        """JSON-ready summary in **milliseconds** (plus the raw count)."""
        with self._lock:
            out: dict[str, float | int] = {
                "count": self._seen,
                "mean_ms": (self._sum / self._seen * 1e3) if self._seen else 0.0,
                "max_ms": self._max * 1e3,
            }
            for label, q in PERCENTILES:
                out[f"{label}_ms"] = self._quantile_locked(q) * 1e3
            return out


class MetricsRegistry:
    """A named collection of counters, gauges, and latency reservoirs.

    Instruments are created on first touch (``registry.counter("x")``)
    and live for the registry's lifetime; :meth:`snapshot` freezes the
    whole registry into the stats-op wire dict.  Creation is
    lock-protected so two threads first-touching the same name get the
    same instrument.
    """

    def __init__(self, *, reservoir_capacity: int = 2048, seed: int = 0) -> None:
        self._lock = threading.Lock()
        self._reservoir_capacity = reservoir_capacity
        self._seed = seed
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._reservoirs: dict[str, LatencyReservoir] = {}

    def counter(self, name: str) -> Counter:
        """The named counter, created on first touch."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first touch."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def reservoir(self, name: str) -> LatencyReservoir:
        """The named latency reservoir, created on first touch."""
        with self._lock:
            instrument = self._reservoirs.get(name)
            if instrument is None:
                instrument = self._reservoirs[name] = LatencyReservoir(
                    self._reservoir_capacity, seed=self._seed
                )
            return instrument

    def snapshot(self) -> dict:
        """Every instrument's current reading as one JSON-ready dict."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            reservoirs = dict(self._reservoirs)
        return {
            "counters": {
                name: counters[name].value for name in sorted(counters)
            },
            "gauges": {name: gauges[name].value for name in sorted(gauges)},
            "latency": {
                name: reservoirs[name].summary() for name in sorted(reservoirs)
            },
        }

    def format_line(self) -> str:
        """One compact human-readable stats line (the interval log)."""
        snap = self.snapshot()
        parts = [
            f"{name}={value}" for name, value in snap["counters"].items()
        ]
        parts += [
            f"{name}={value:g}" for name, value in snap["gauges"].items()
        ]
        for name, summary in snap["latency"].items():
            parts.append(
                f"{name}[p50={summary['p50_ms']:.1f}ms "
                f"p95={summary['p95_ms']:.1f}ms "
                f"p99={summary['p99_ms']:.1f}ms n={summary['count']}]"
            )
        return " ".join(parts) if parts else "(no metrics yet)"

"""The metrics registry — named counters, gauges and histograms.

Production schedulers ship first-class statistics (the kernel qdisc's
``tc -s`` counters, DPDK's ``rte_sched`` stats API); this module is the
reproduction's equivalent. Components obtain named instruments from a
:class:`MetricsRegistry` and update them on the hot path, or — cheaper
still — register *probes*: zero-argument callables evaluated only when
a snapshot is taken, so counters a component already keeps (ring
depths, drop tallies) cost nothing extra per packet.

The registry mirrors the :class:`~repro.sim.trace.Tracer` /
``NullTracer`` split: :class:`NullMetricsRegistry` is the default on
every simulator and discards everything at near zero cost, so
instrumented hot paths guard with ``if registry.enabled:`` exactly like
they do for tracing.

:class:`MetricsSampler` is a simulation process that snapshots a
registry on a fixed period; its rows (and any registry snapshot) export
to JSONL for offline analysis alongside :meth:`Tracer.to_jsonl`.
"""

from __future__ import annotations

import bisect
import json
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "MetricsSampler",
    "write_jsonl",
]


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must not be negative for a counter)."""
        self.value += amount


class Gauge:
    """A named value that moves both ways (queue depth, rate)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bound bucketed distribution (latency, batch sizes).

    ``bounds`` are the inclusive upper edges of each bucket; one
    overflow bucket catches everything above the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    #: Default bounds suit seconds-scale latencies (1 µs .. 1 s).
    DEFAULT_BOUNDS = (
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
    )

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None):
        self.name = name
        self.bounds: List[float] = sorted(bounds if bounds is not None else self.DEFAULT_BOUNDS)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly state: bucket counts keyed by upper bound."""
        buckets = {f"le_{bound:g}": count for bound, count in zip(self.bounds, self.counts)}
        buckets["overflow"] = self.counts[-1]
        return {"count": self.count, "sum": self.total, "mean": self.mean, "buckets": buckets}


class MetricsRegistry:
    """Creates, deduplicates and snapshots named instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same instrument, so independent
    components can share a tally. :meth:`probe` registers a callable
    evaluated lazily at snapshot time — the preferred hook for state a
    component already maintains.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._probes: Dict[str, Callable[[], Any]] = {}

    @property
    def enabled(self) -> bool:
        """True — instruments record (see :class:`NullMetricsRegistry`)."""
        return True

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    def probe(self, name: str, fn: Callable[[], Any]) -> None:
        """Register *fn* to supply ``name``'s value at snapshot time."""
        self._probes[name] = fn

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """All registered instrument and probe names, sorted."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms) | set(self._probes)
        )

    def snapshot(self) -> Dict[str, Any]:
        """One flat dict of every instrument's current value.

        Counters and gauges map to scalars, histograms to nested
        dicts, probes to whatever their callable returns (which must be
        JSON-serialisable for the JSONL export).
        """
        out: Dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.snapshot()
        for name, fn in self._probes.items():
            out[name] = fn()
        return out


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    value = 0.0
    count = 0
    mean = 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Discards everything; the default on every simulator.

    All instrument getters return one shared no-op object and probes
    are ignored, so components can instrument unconditionally — though
    hot paths should still guard on :attr:`enabled` to skip building
    payloads at all.
    """

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def probe(self, name: str, fn: Callable[[], Any]) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {}


class MetricsSampler:
    """Periodically snapshots a registry during a simulation run.

    A generator process on the shared simulator: every ``interval``
    simulated seconds it appends ``{"time": now, **registry.snapshot()}``
    to :attr:`rows`. With a :class:`NullMetricsRegistry` no process is
    even started, so the default configuration schedules zero events.
    """

    def __init__(self, sim, registry: MetricsRegistry, interval: float = 0.1):
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.rows: List[Dict[str, Any]] = []
        self._process = sim.process(self._run()) if registry.enabled else None

    def _run(self):
        interval = self.interval
        while True:
            yield interval
            self.sample()

    def sample(self) -> Dict[str, Any]:
        """Take one snapshot now (also usable manually, e.g. at t=end).

        Each sample is an observation point: the simulator first
        settles lazily-deferred work up to now (``Simulator.settle``),
        so the probes read what the per-packet engine would show.
        """
        self.sim.settle()
        row = {"time": self.sim.now}
        row.update(self.registry.snapshot())
        self.rows.append(row)
        return row

    def to_jsonl(self, path: str) -> int:
        """Write all sampled rows as JSON lines; returns the row count."""
        return write_jsonl(path, self.rows)


def write_jsonl(path: str, rows: List[Dict[str, Any]]) -> int:
    """Write dict *rows* one-JSON-object-per-line; returns the count."""
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True))
            handle.write("\n")
    return len(rows)

"""Constant-memory streaming statistics (ROADMAP item 4).

Million-flow trace runs deliver millions of frames; keeping every
one-way delay sample (``PacketSink.record_delays``) or a rate bin per
elapsed window (:class:`~repro.stats.timeseries.RateSeries`) makes
observation memory grow with traffic. This module provides the two
bounded replacements the megaflow engine routes its accounting
through:

* :class:`QuantileSketch` — a DDSketch-style log-bucketed quantile
  sketch (Masson et al., VLDB'19): values land in geometrically-sized
  buckets ``[γ^(i-1), γ^i)`` with ``γ = (1+ε)/(1-ε)``, so any
  reported quantile is within *relative* error ε of the exact sample
  quantile while the footprint stays at the number of *occupied*
  buckets (bounded by ``max_bins``, and in practice by the dynamic
  range of the data — ~900 buckets span twelve decades at ε = 1%).
  Count, sum/mean, min, max and jitter (Welford) are tracked exactly;
  only the percentiles are approximate. Sketches over the same ε are
  mergeable (shard fan-in).
* :class:`WindowedRateSketch` — a fixed-size ring of time bins for
  "recent rate" queries: constant memory in both packet count and run
  length, unlike ``RateSeries``'s one-bin-per-elapsed-window list.

Exact-list mode stays available everywhere these are wired in; the
conformance suite (``tests/test_stats_sketch.py``) bounds the sketch
error against the exact summaries.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .latency import LatencySummary

__all__ = ["QuantileSketch", "WindowedRateSketch"]


class QuantileSketch:
    """Mergeable log-bucketed quantile sketch with exact moments.

    Parameters
    ----------
    relative_error: guaranteed relative accuracy ε of any quantile
        (default 0.5%, twice as tight as the 1% acceptance bound).
    max_bins: hard footprint cap. When the occupied-bucket count would
        exceed it, the lowest buckets collapse together (DDSketch's
        policy), sacrificing accuracy only in the extreme low tail.
    min_value: values below this land in a dedicated underflow bucket
        (log buckets cannot represent 0); delays in this simulator are
        ≥ one DMA latency, so the default never fires in practice.
    """

    __slots__ = (
        "relative_error", "gamma", "_log_gamma", "max_bins", "min_value",
        "_bins", "_underflow", "count", "_sum", "_min", "_max",
        "_mean", "_m2", "collapsed",
    )

    def __init__(
        self,
        relative_error: float = 0.005,
        max_bins: int = 4096,
        min_value: float = 1e-12,
    ):
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1), got {relative_error}"
            )
        if max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {max_bins}")
        if min_value <= 0.0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        self.relative_error = relative_error
        self.gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self.gamma)
        self.max_bins = max_bins
        self.min_value = min_value
        #: bucket index -> count; index i covers (γ^(i-1), γ^i].
        self._bins: Dict[int, int] = {}
        self._underflow = 0
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # Welford accumulators for exact population stddev (jitter).
        self._mean = 0.0
        self._m2 = 0.0
        #: Lowest-bucket collapses performed under the footprint cap.
        self.collapsed = 0

    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Insert one sample. Negative values are clamped into the
        underflow bucket (delays are non-negative by construction)."""
        self.count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min_value:
            self._underflow += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        bins = self._bins
        bins[index] = bins.get(index, 0) + 1
        if len(bins) > self.max_bins:
            self._collapse()

    def add_many(self, values) -> None:
        """Insert samples in order — bit-identical to calling
        :meth:`add` on each (same float operations in the same order),
        with the accumulators held in locals across the run."""
        count = self.count
        total = self._sum
        lo = self._min
        hi = self._max
        mean = self._mean
        m2 = self._m2
        min_value = self.min_value
        log_gamma = self._log_gamma
        max_bins = self.max_bins
        bins = self._bins
        underflow = 0
        log = math.log
        ceil = math.ceil
        for value in values:
            count += 1
            total += value
            if value < lo:
                lo = value
            if value > hi:
                hi = value
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < min_value:
                underflow += 1
                continue
            index = ceil(log(value) / log_gamma)
            n = bins.get(index)
            if n is not None:
                bins[index] = n + 1
            else:
                bins[index] = 1
                if len(bins) > max_bins:
                    self._collapse()
        self.count = count
        self._sum = total
        self._min = lo
        self._max = hi
        self._mean = mean
        self._m2 = m2
        self._underflow += underflow

    def _collapse(self) -> None:
        """Fold the lowest bucket into its neighbour (low-tail accuracy
        is sacrificed first, as in DDSketch's collapsing policy)."""
        lowest = min(self._bins)
        count = self._bins.pop(lowest)
        target = min(self._bins)
        self._bins[target] = self._bins.get(target, 0) + count
        self.collapsed += 1

    def merge(self, other: "QuantileSketch") -> None:
        """Fold *other* (same ε) into this sketch."""
        if other.gamma != self.gamma:
            raise ValueError(
                "cannot merge sketches with different relative_error"
            )
        bins = self._bins
        for index, count in other._bins.items():
            bins[index] = bins.get(index, 0) + count
        while len(bins) > self.max_bins:
            self._collapse()
        self.collapsed += other.collapsed
        self._underflow += other._underflow
        if other.count:
            # Chan et al. parallel-variance combine keeps jitter exact.
            total = self.count + other.count
            delta = other._mean - self._mean
            self._m2 += other._m2 + delta * delta * self.count * other.count / total
            self._mean += delta * other.count / total
            self.count = total
            self._sum += other._sum
            if other._min < self._min:
                self._min = other._min
            if other._max > self._max:
                self._max = other._max

    # ------------------------------------------------------------------
    @property
    def bin_count(self) -> int:
        """Occupied buckets — the sketch's entire variable footprint."""
        return len(self._bins) + (1 if self._underflow else 0)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    @property
    def jitter(self) -> float:
        """Exact population standard deviation (Welford), matching
        :func:`repro.stats.latency.jitter` up to float associativity."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / self.count)

    def quantile(self, q: float) -> float:
        """The *q*-quantile (0..1), within ε relative error.

        Returns the log-midpoint of the bucket holding the target
        rank; exact min/max are returned at the extremes so the
        reported range never exceeds the observed one.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError("quantile of empty sketch")
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        rank = q * (self.count - 1)
        cum = self._underflow
        if cum > rank:
            # The underflow bucket's bound, clamped into the observed
            # range like a bucket midpoint below.
            return min(max(self.min_value, self._min), self._max)
        gamma = self.gamma
        for index in sorted(self._bins):
            cum += self._bins[index]
            if cum > rank:
                value = 2.0 * gamma ** index / (gamma + 1.0)
                # Clamp into the exact observed range: bucket midpoints
                # can poke past min/max for extreme-rank queries.
                if value < self._min:
                    return self._min
                if value > self._max:
                    return self._max
                return value
        return self._max

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (0..100), within ε relative error."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        return self.quantile(p / 100.0)

    def summary(self) -> LatencySummary:
        """A :class:`LatencySummary` — count/mean/min/max/jitter exact,
        p50/p99 within ε relative error."""
        if self.count == 0:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return LatencySummary(
            count=self.count,
            mean=self.mean,
            p50=self.quantile(0.50),
            p99=self.quantile(0.99),
            maximum=self._max,
            minimum=self._min,
            jitter=self.jitter,
        )


class WindowedRateSketch:
    """Recent-rate estimator over a fixed ring of time bins.

    ``add(t, amount)`` accumulates into the bin containing *t*;
    :meth:`rate` reports amount-per-second over the trailing window.
    Bins older than the window are recycled in place, so the footprint
    is ``bins`` floats regardless of run length — the constant-memory
    counterpart of :class:`~repro.stats.timeseries.RateSeries` for
    runs too long to keep a bin per elapsed window.

    Times must be non-decreasing (simulation deliveries are).
    """

    __slots__ = ("window", "bins", "_width", "_counts", "_index", "_total", "_last_time")

    def __init__(self, window: float = 0.1, bins: int = 64):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.window = window
        self.bins = bins
        self._width = window / bins
        self._counts: List[float] = [0.0] * bins
        #: Absolute bin index of the newest bin with data.
        self._index = -1
        self._total = 0.0
        self._last_time = -math.inf

    @property
    def total(self) -> float:
        """Sum of all amounts ever added (exact)."""
        return self._total

    def _advance(self, index: int) -> None:
        counts = self._counts
        bins = self.bins
        current = self._index
        if current < 0 or index - current >= bins:
            for i in range(bins):
                counts[i] = 0.0
        else:
            for i in range(current + 1, index + 1):
                counts[i % bins] = 0.0
        self._index = index

    def add(self, time: float, amount: float) -> None:
        if time < 0:
            raise ValueError(f"times must be >= 0, got {time}")
        if time < self._last_time:
            raise ValueError(
                f"times must be non-decreasing ({time} < {self._last_time})"
            )
        self._last_time = time
        index = int(time / self._width)
        if index > self._index:
            self._advance(index)
        self._counts[index % self.bins] += amount
        self._total += amount

    def rate(self, now: Optional[float] = None) -> float:
        """Amount per second over ``[now - window, now]``.

        ``now=None`` reads at the last added time. Bins newer than the
        data are implicitly zero; bins older than the window are gone.
        """
        if self._index < 0:
            return 0.0
        if now is None:
            now = self._last_time
        index = int(now / self._width)
        if index > self._index:
            self._advance(index)
        return sum(self._counts) / self.window

    def mean_rate(self, elapsed: float) -> float:
        """Exact average rate over ``[0, elapsed]``."""
        if elapsed <= 0:
            return 0.0
        return self._total / elapsed

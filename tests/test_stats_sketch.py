"""Conformance tests for the constant-memory streaming statistics.

The sketch suite bounds the approximation against the exact summaries
(ROADMAP item 4's acceptance: quantiles within the configured relative
error on heavy-tailed data), pins the exact-moment contract, and
checks that the footprint actually stays constant while samples
stream through.
"""

import math
import random

import pytest

from repro.net import FiveTuple, PacketFactory, PacketSink
from repro.sim import Simulator
from repro.stats import (
    LatencySummary,
    QuantileSketch,
    WindowedRateSketch,
    jitter,
    percentile,
    summarize_latencies,
)


def heavy_tail_samples(n=20_000, seed=11):
    """Bounded-Pareto-ish delays spanning ~5 decades — the shape the
    sketch exists for."""
    rng = random.Random(seed)
    return [min(10.0, 1e-5 * rng.paretovariate(1.2)) for _ in range(n)]


class TestQuantileSketchAccuracy:
    def test_quantiles_within_relative_error(self):
        samples = heavy_tail_samples()
        sketch = QuantileSketch(relative_error=0.005)
        for s in samples:
            sketch.add(s)
        ordered = sorted(samples)
        for p in (1.0, 10.0, 50.0, 90.0, 99.0, 99.9):
            exact = percentile(ordered, p)
            approx = sketch.percentile(p)
            # The acceptance bound is 1%; the default ε is 0.5%.
            assert approx == pytest.approx(exact, rel=0.01), f"p{p}"

    def test_moments_are_exact(self):
        samples = heavy_tail_samples(n=5_000)
        sketch = QuantileSketch()
        for s in samples:
            sketch.add(s)
        assert sketch.count == len(samples)
        assert sketch.sum == pytest.approx(sum(samples))
        assert sketch.mean == pytest.approx(sum(samples) / len(samples))
        assert sketch.minimum == min(samples)
        assert sketch.maximum == max(samples)
        assert sketch.jitter == pytest.approx(jitter(samples), rel=1e-9)

    def test_summary_matches_exact_summary(self):
        samples = heavy_tail_samples(n=10_000, seed=3)
        sketch = QuantileSketch()
        for s in samples:
            sketch.add(s)
        exact = summarize_latencies(samples)
        approx = sketch.summary()
        assert isinstance(approx, LatencySummary)
        assert approx.count == exact.count
        assert approx.mean == pytest.approx(exact.mean)
        assert approx.minimum == exact.minimum
        assert approx.maximum == exact.maximum
        assert approx.jitter == pytest.approx(exact.jitter, rel=1e-9)
        assert approx.p50 == pytest.approx(exact.p50, rel=0.01)
        assert approx.p99 == pytest.approx(exact.p99, rel=0.01)

    def test_quantile_extremes_return_observed_range(self):
        sketch = QuantileSketch()
        for s in (0.002, 0.5, 3.0):
            sketch.add(s)
        assert sketch.quantile(0.0) == 0.002
        assert sketch.quantile(1.0) == 3.0
        # Interior quantiles never poke past the observed range either.
        assert 0.002 <= sketch.quantile(0.999) <= 3.0

    def test_empty_and_invalid_queries(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.quantile(0.5)
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            sketch.percentile(-1.0)
        assert sketch.summary().count == 1

    def test_empty_summary_is_zero(self):
        assert QuantileSketch().summary() == LatencySummary(
            0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_error=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(relative_error=1.0)
        with pytest.raises(ValueError):
            QuantileSketch(max_bins=1)
        with pytest.raises(ValueError):
            QuantileSketch(min_value=0.0)


class TestQuantileSketchFootprint:
    def test_bin_count_constant_in_sample_count(self):
        """Memory tracks the dynamic range of the data, not n: once the
        range is filled in, more samples occupy no new buckets."""
        rng = random.Random(5)
        sketch = QuantileSketch()
        for _ in range(10_000):
            sketch.add(10 ** rng.uniform(-5, 1))
        bins_small = sketch.bin_count
        for _ in range(40_000):
            sketch.add(10 ** rng.uniform(-5, 1))
        # 5x the samples over the same six decades: at most a few
        # previously-unlucky buckets fill in.
        assert sketch.bin_count <= bins_small * 1.05
        assert sketch.bin_count < 4096

    def test_collapse_caps_footprint(self):
        sketch = QuantileSketch(relative_error=0.005, max_bins=16)
        rng = random.Random(1)
        for _ in range(5_000):
            sketch.add(10 ** rng.uniform(-6, 6))
        assert sketch.bin_count <= 16
        assert sketch.collapsed > 0
        # Collapsing eats the low tail first: quantiles stay monotone
        # and the top of the range stays exact.
        assert sketch.quantile(0.5) <= sketch.quantile(0.99) <= sketch.maximum
        assert sketch.quantile(1.0) == sketch.maximum

    def test_underflow_bucket_for_tiny_values(self):
        sketch = QuantileSketch(min_value=1e-6)
        sketch.add(0.0)
        sketch.add(1e-9)
        sketch.add(1.0)
        assert sketch.count == 3
        assert sketch.minimum == 0.0
        # Underflow samples rank below everything representable.
        assert sketch.quantile(0.1) == pytest.approx(1e-6)

    def test_underflow_quantile_stays_in_observed_range(self):
        # Regression: an underflow-bucket rank returned min_value
        # (1e-12), above a maximum of 0.0.
        sketch = QuantileSketch()
        for _ in range(3):
            sketch.add(0.0)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.summary().p50 == 0.0
        assert sketch.summary().p99 == 0.0


class TestQuantileSketchMerge:
    def test_merge_equals_single_stream(self):
        samples = heavy_tail_samples(n=8_000, seed=9)
        whole = QuantileSketch()
        left, right = QuantileSketch(), QuantileSketch()
        for i, s in enumerate(samples):
            whole.add(s)
            (left if i % 2 else right).add(s)
        left.merge(right)
        assert left.count == whole.count
        assert left.sum == pytest.approx(whole.sum)
        assert left.minimum == whole.minimum
        assert left.maximum == whole.maximum
        assert left.jitter == pytest.approx(whole.jitter, rel=1e-9)
        assert left._bins == whole._bins

    def test_merge_keeps_collapse_count(self):
        # Regression: merge() dropped other.collapsed, so a merged copy
        # reported 0 collapses where its source reported 4.
        source = QuantileSketch(max_bins=4)
        for value in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
            source.add(value)
        assert source.collapsed == 4
        merged = QuantileSketch(max_bins=4)
        merged.merge(source)
        assert merged.collapsed == 4
        assert merged._bins == source._bins

    def test_merge_rejects_mismatched_error(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_error=0.005).merge(
                QuantileSketch(relative_error=0.01)
            )


class TestWindowedRateSketch:
    def test_rate_over_trailing_window(self):
        ring = WindowedRateSketch(window=1.0, bins=10)
        for i in range(10):
            ring.add(i * 0.1, 100.0)
        assert ring.rate(0.95) == pytest.approx(1000.0)

    def test_old_bins_recycle(self):
        ring = WindowedRateSketch(window=1.0, bins=4)
        ring.add(0.0, 400.0)
        # A full window later the old amount is gone.
        assert ring.rate(2.0) == 0.0
        ring.add(2.0, 100.0)
        assert ring.rate(2.0) == pytest.approx(100.0)
        assert ring.total == 500.0

    def test_footprint_constant_in_run_length(self):
        ring = WindowedRateSketch(window=0.1, bins=8)
        for i in range(10_000):
            ring.add(i * 1.0, 1.0)
        assert len(ring._counts) == 8
        assert ring.total == 10_000.0
        assert ring.mean_rate(10_000.0) == pytest.approx(1.0)

    def test_rejects_time_regressions(self):
        ring = WindowedRateSketch()
        ring.add(1.0, 1.0)
        with pytest.raises(ValueError):
            ring.add(0.5, 1.0)
        with pytest.raises(ValueError):
            WindowedRateSketch(window=0.0)
        with pytest.raises(ValueError):
            WindowedRateSketch(bins=0)

    def test_empty_rate_is_zero(self):
        assert WindowedRateSketch().rate() == 0.0
        assert WindowedRateSketch().mean_rate(0.0) == 0.0


class TestSinkSketchMode:
    """The PacketSink routes its accounting through the sketches."""

    def _run(self, stats_mode, n=500, seed=4):
        sim = Simulator(seed=seed)
        sink = PacketSink(sim, rate_window=1.0, stats_mode=stats_mode)
        factory = PacketFactory()
        flow = FiveTuple("a", "b", 1, 2)
        rng = random.Random(seed)
        for i in range(n):
            at = 0.01 * (i + 1)
            packet = factory.make(
                100, flow, at - min(1.0, 1e-4 * rng.paretovariate(1.2)),
                app="A" if i % 2 else "B",
            )
            sim.schedule_at(at, sink.receive, packet)
        sim.run()
        return sink

    def test_summary_agrees_with_exact_mode(self):
        exact = self._run("exact").latency_summary()
        approx = self._run("sketch").latency_summary()
        assert approx.count == exact.count
        assert approx.mean == pytest.approx(exact.mean)
        assert approx.p50 == pytest.approx(exact.p50, rel=0.01)
        assert approx.p99 == pytest.approx(exact.p99, rel=0.01)
        assert approx.maximum == exact.maximum

    def test_per_app_summary_agrees(self):
        exact = self._run("exact")
        approx = self._run("sketch")
        for app in ("A", "B"):
            ordered = sorted(exact.delays_by_app[app])
            summary = approx.latency_summary(app)
            assert summary.count == len(ordered)
            # The ε-guarantee is against the order statistic at the
            # target rank, not the interpolated percentile (which at
            # 250 heavy-tailed samples can sit far from either
            # neighbour): the sketch's p99 must land within ε of one
            # of the two samples bracketing the rank.
            rank = 0.99 * (len(ordered) - 1)
            neighbours = (ordered[math.floor(rank)], ordered[math.ceil(rank)])
            assert any(
                summary.p99 == pytest.approx(x, rel=0.01) for x in neighbours
            )
        # An app never seen reports zeros rather than raising.
        assert approx.latency_summary("ghost").count == 0

    def test_sample_lists_unavailable_in_sketch_mode(self):
        sink = self._run("sketch")
        with pytest.raises(ValueError):
            sink.delays
        with pytest.raises(ValueError):
            sink.delays_by_app
        assert sink.delay_sketch().count == sink.total_packets
        assert sink.delay_sketch("A").count > 0

    def test_pooled_sketch_is_the_merge_of_per_app_sketches(self):
        sink = self._run("sketch")
        whole = QuantileSketch()
        for app in ("A", "B"):
            whole.merge(sink.delay_sketch(app))
        pooled = sink.delay_sketch()
        assert pooled._bins == whole._bins
        assert pooled.count == sink.total_packets
        assert (pooled.minimum, pooled.maximum) == (whole.minimum, whole.maximum)
        for q in (0.01, 0.5, 0.99):
            assert pooled.quantile(q) == whole.quantile(q)
        # The exact-mode pooled list holds the same delays.
        exact = sorted(self._run("exact").delays)
        assert pooled.minimum == exact[0]
        assert pooled.maximum == exact[-1]

    def test_reading_an_unseen_app_leaves_the_sink_unchanged(self):
        # Regression: delay_sketch(app) stored an empty sketch for an
        # app it had never seen, so a read changed the sink.
        sink = self._run("sketch")
        ghost = sink.delay_sketch("ghost")
        assert ghost.count == 0
        ghost.add(1.0)
        assert sink.delay_sketch("ghost").count == 0
        assert sink.delay_sketch().count == sink.total_packets
        assert sink.latency_summary("ghost").count == 0

    def test_delay_sketch_requires_sketch_mode(self):
        sink = self._run("exact")
        with pytest.raises(ValueError):
            sink.delay_sketch()

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            PacketSink(Simulator(), stats_mode="approximate")
        with pytest.raises(ValueError):
            PacketSink(Simulator(), fold_interval=0.0)

    def test_rates_still_report(self):
        sink = self._run("sketch")
        assert sink.rates["A"].rate() > 0.0
        assert math.isclose(
            sink.rates["A"].total + sink.rates["B"].total,
            sink.total_bytes * 8,
        )

"""Equivalence smoke tests for the E-MEGAFLOW trace experiment.

The full-scale run (a million flows) lives in
``benchmarks/test_bench_megaflow.py``; these tests pin the *contract*
on a short horizon: every engine combination — batched vs process
generation, fluid lane on vs off, sketch vs exact stats — produces
identical traffic tallies, and the cheap combinations only cut kernel
events.
"""

import pytest

from repro.experiments import megaflow


DURATION = 0.01  # nominal seconds: ~9k packets, fast enough for tier 1


def tallies(result):
    return (
        result.flows,
        result.flows_completed,
        result.perf.packets,
        result.delivered,
        result.dropped,
        result.emc_hits,
        result.emc_misses,
        result.emc_evictions,
        result.emc_expirations,
    )


@pytest.fixture(scope="module")
def batched():
    return megaflow.run(duration=DURATION)


class TestEngineEquivalence:
    def test_process_engine_matches_batched(self, batched):
        process = megaflow.run(duration=DURATION, mode="process")
        assert tallies(process) == tallies(batched)
        # The whole point: same traffic, far fewer kernel events.
        assert batched.perf.events < 0.25 * process.perf.events
        assert batched.windows > 0
        assert process.windows == 0

    def test_fluid_off_matches_fluid_on(self, batched):
        off = megaflow.run(duration=DURATION, fluid=False)
        assert tallies(off) == tallies(batched)
        assert (off.absorbed, off.miss_absorbed) == (0, 0)
        assert batched.perf.events < off.perf.events
        # Every flow's first packet is an EMC miss; the lane replays
        # the classification walk instead of spilling it.
        assert batched.miss_absorbed > 0

    def test_exact_stats_agree_with_sketch(self, batched):
        exact = megaflow.run(duration=DURATION, stats_mode="exact")
        assert tallies(exact) == tallies(batched)
        assert exact.sketch_bins == 0
        assert batched.sketch_bins > 0
        assert batched.delay.count == exact.delay.count
        assert batched.delay.mean == pytest.approx(exact.delay.mean)
        assert batched.delay.maximum == pytest.approx(exact.delay.maximum)
        assert batched.delay.p50 == pytest.approx(exact.delay.p50, rel=0.01)
        assert batched.delay.p99 == pytest.approx(exact.delay.p99, rel=0.02)


class TestResultShape:
    def test_result_fields_and_extra(self, batched):
        assert batched.flows > 1_000
        assert batched.delivered + batched.dropped <= batched.perf.packets
        assert batched.emc_hits + batched.emc_misses == batched.perf.packets
        extra = batched.extra()
        for key in (
            "flows", "delivered", "windows", "miss_absorbed",
            "emc_evictions", "delay_p99_nominal", "sketch_bins",
            "peak_rss_kib",
        ):
            assert key in extra
        assert batched.to_table().rows

    def test_registered_as_campaign_spec(self):
        from repro.experiments.campaign.spec import REGISTRY

        assert "megaflow" in REGISTRY

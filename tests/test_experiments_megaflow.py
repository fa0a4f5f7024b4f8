"""Equivalence smoke tests for the E-MEGAFLOW trace experiment.

The full-scale run (a million flows) lives in
``benchmarks/test_bench_megaflow.py``; these tests pin the *contract*
on a short horizon: every engine combination — batched vs process
generation, fluid lane on vs off, sketch vs exact stats — produces
identical traffic tallies, and the cheap combinations only cut kernel
events.
"""

from dataclasses import dataclass, replace

import pytest

from repro.experiments import megaflow
from repro.topology.setup import ScaledSetup


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


@dataclass(frozen=True)
class _NicOverrides(ScaledSetup):
    """The megaflow setup with fixed NIC config overrides on top."""

    overrides: tuple = ()

    def nic_config(self, **kw):
        return replace(super().nic_config(**kw), **dict(self.overrides))


def _engine_outcome(fast_path: bool, fluid: bool, tx_ring_depth=None):
    """Everything a megaflow world simulates, read through public
    counters, on one engine: ``(engine, outcome, release_drops)``, the
    last counting Tx-ring tail drops taken while the fluid lane
    released a parked reorder run."""
    base = megaflow.DEFAULT_SETUP
    overrides = (("fast_path", fast_path),)
    if tx_ring_depth is not None:
        overrides += (("tx_ring_depth", tx_ring_depth),)
    setup = _NicOverrides(
        base.nominal_link_bps, base.scale, base.wire_bps, base.seed, overrides=overrides
    )
    sim, nic, sink, _ = megaflow.build(setup, duration=DURATION, fluid=fluid)
    release_drops = [0]
    lane = nic._fluid
    if lane is not None:
        release = lane._release

        def counting(tv, ticket, packet):
            before = nic.tx_ring.tail_drops
            release(tv, ticket, packet)
            release_drops[0] += nic.tx_ring.tail_drops - before

        lane._release = counting
    sim.run(until=DURATION * setup.scale * 1.02)
    apps = sorted(sink.packets)
    outcome = {
        "packets": dict(sink.packets),
        "bytes": dict(sink.bytes),
        "latency": sink.latency_summary(),
        "latency_by_app": {app: sink.latency_summary(app) for app in apps},
        "max_parked": nic.reorder.max_parked,
        "tx_max_occupancy": nic.tx_ring.max_occupancy,
        "tx_tail_drops": nic.tx_ring.tail_drops,
        "link_bytes_sent": nic.link.bytes_sent,
        "min_free": nic.buffers.min_free,
        "drops_by_reason": {r.value: n for r, n in nic.drops_by_reason.items()},
    }
    return nic.engine, outcome, release_drops[0]


class TestThreeEngines:
    """The per-packet engine (``fast_path=False``), the batched engine
    (``fluid=False``) and the fluid lane simulate the same megaflow
    world, compared with ``==`` on every outcome they report."""

    @pytest.mark.parametrize("tx_ring_depth", [None, 8], ids=["default-ring", "tiny-ring"])
    def test_engines_agree(self, tx_ring_depth):
        engines = {}
        for fast_path, fluid_on in ((True, True), (True, False), (False, True)):
            engine, outcome, drops = _engine_outcome(fast_path, fluid_on, tx_ring_depth)
            engines[engine] = outcome
            if engine == "fluid":
                release_drops = drops
        assert sorted(engines) == ["fast", "fluid", "per-packet"]
        fluid = engines["fluid"]
        assert fluid == engines["fast"] == engines["per-packet"]
        assert fluid["max_parked"] > 0
        if tx_ring_depth is None:
            assert fluid["tx_tail_drops"] == 0
        else:
            # A Tx ring this small overflows, and some of the overflow
            # happens while the fluid lane releases a parked run.
            assert fluid["drops_by_reason"]["queue_full"] > 0
            assert release_drops > 0


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

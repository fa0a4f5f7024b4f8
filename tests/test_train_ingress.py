"""Train ingress: the single train shape and its sender bookkeeping.

Every batched producer hands ``NicPipeline.submit_train`` the same
shape — ascending emission instants with parallel per-item flows and
sizes (DESIGN.md §7). A ``FixedRateSender`` burst repeats one flow and
size; a batched ``TraceWorkload`` window pre-merges many flows. These
tests pin that both shapes share one NIC and one merged ingress run
with the fluid lane's bit-identity intact, and that a long-running
sender's train list stays bounded.
"""

from __future__ import annotations

import pytest

from repro.experiments import hotpath, megaflow
from repro.host import FixedRateSender

#: Per-sender emissions of the canonical hotpath run (seed 7, 20 s),
#: in sorted app order — the BENCH_hotpath.json packet count split.
HOTPATH_SENT = {"KVS": 29_161, "ML": 29_172, "NC": 91_659, "WS": 29_162}


def _recording_senders(monkeypatch) -> list:
    """Capture every FixedRateSender that ``hotpath.build`` constructs."""
    senders = []

    class Recording(FixedRateSender):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            senders.append(self)

    monkeypatch.setattr(hotpath, "FixedRateSender", Recording)
    return senders


class TestSenderTrainList:
    def test_hotpath_senders_hold_bounded_trains(self, monkeypatch):
        """Settled trains fold as each new train is submitted, so the
        list no longer grows with run length; the lazy count is
        unchanged."""
        senders = _recording_senders(monkeypatch)
        sim, nic = hotpath.build()
        sim.run(until=hotpath.DEFAULT_DURATION)
        assert len(senders) == 4
        # Read the lists before sent_packets, which folds on its own.
        assert all(len(s._trains) <= 2 for s in senders)
        assert {s.name: s.sent_packets for s in senders} == HOTPATH_SENT
        assert nic.submitted == sum(HOTPATH_SENT.values())
        assert sim.events_executed == 14_843


class TestMixedTrainShapes:
    """A fixed-rate sender's bursts and a trace workload's windows feed
    one NIC, so with the lane on both merge into one shared ingress
    run. Fluid on and off must agree on every delivered packet."""

    DURATION = 0.01  # nominal seconds of trace arrivals

    def _run(self, fluid: bool) -> dict:
        setup = megaflow.DEFAULT_SETUP
        sim, nic, sink, workloads = megaflow.build(
            setup,
            duration=self.DURATION,
            fluid=fluid,
            stats_mode="exact",
            mix=(("KVS", "kvs", 0.40), ("WS", "web", 0.20)),
        )
        assert (nic._fluid is not None) == fluid
        sender = FixedRateSender(
            sim, "NC", workloads[0].factory, nic.submit,
            rate_bps=setup.sender_rate(), packet_size=1500,
            vf_index=len(workloads), jitter=0.1, rng=sim.random.stream("NC"),
        )
        # Record each folded delivery; the sink stays a plain lazy
        # PacketSink, so the lane's construction guard still holds.
        delivered = []
        account = sink._account

        def recording(packet, now):
            delivered.append((packet.seq, packet.app, now))
            account(packet, now)

        sink._account = recording
        sim.run(until=self.DURATION * setup.scale * 1.02)
        assert sender._trains or sender._train_folded
        assert sum(w.windows_generated for w in workloads) > 0
        lane = nic._fluid
        return {
            "delivered": delivered,
            "delivered_by_app": dict(sink.packets),
            "drops_by_reason": {r.value: n for r, n in nic.drops_by_reason.items()},
            "delay_sums": {app: sum(d) for app, d in sink.delays_by_app.items()},
            "submitted": nic.submitted,
            "sent": sender.sent_packets,
            "flows": sum(w.flows_started for w in workloads),
            "absorbed": lane.absorbed if lane is not None else 0,
            "events": sim.events_executed,
        }

    @pytest.fixture(scope="class")
    def runs(self):
        return self._run(fluid=True), self._run(fluid=False)

    def test_fluid_on_matches_fluid_off(self, runs):
        on, off = runs
        assert on["absorbed"] > 0
        assert off["absorbed"] == 0
        assert on["events"] < off["events"]
        engine = ("absorbed", "events")
        assert {k: v for k, v in on.items() if k not in engine} == {
            k: v for k, v in off.items() if k not in engine
        }

    def test_both_shapes_carry_traffic(self, runs):
        on, _ = runs
        assert set(on["delivered_by_app"]) == {"KVS", "NC", "WS"}
        assert on["flows"] > 100
        assert on["sent"] > 0
        assert sum(on["drops_by_reason"].values()) > 0

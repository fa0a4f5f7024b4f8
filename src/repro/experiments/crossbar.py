"""The scheduler crossbar: any scheduler × any workload, one spec.

ROADMAP item 3. ``run(setup, scheduler=..., workload=...)`` drives a
named crossbar scheduler (:mod:`repro.sched.registry`) against a named
workload (policy + demand timeline) on the shared NIC model and
returns the usual :class:`~repro.experiments.base.TimelineResult`.

The default FlowValve scheduler routes through the *unchanged*
calibrated NIC pipeline (:func:`repro.topology.timeline`) — selecting
it reproduces the Fig. 11 numbers byte-identically. Every other scheduler runs on the
:class:`~repro.sched.runtime.ScheduledPort` worker-model runtime,
which charges the scheduler's step costs and paces the same wire.
"""

from __future__ import annotations

from typing import Optional

from ..errors import CampaignError
from ..net import Link, PacketFactory, PacketSink
from ..nic.config import NicConfig
from ..host import FixedRateSender
from ..sim import Simulator
from ..sched import ScheduledPort, build_scheduler
from ..topology import timeline
from .base import ScaledSetup, TimelineResult, _collect_timeline, _scale_demand
from .policies import fair_policy, motivation_policy
from .workloads import fair_queueing_demands, motivation_demands

__all__ = ["WORKLOADS", "run"]

#: Workload name -> (policy builder, demand builder, default setup).
WORKLOADS = {
    "motivation": (
        motivation_policy,
        lambda link_bps: motivation_demands(link_bps),
        lambda seed: ScaledSetup(seed=seed),  # 10 Gbit policy, 40 Gbit wire
    ),
    "fair": (
        fair_policy,
        lambda link_bps: fair_queueing_demands(),
        lambda seed: ScaledSetup.for_link(40e9, seed=seed),
    ),
}

#: The NFP worker clock the crossbar charges step costs at (nominal) —
#: the same micro-engine clock the calibrated pipeline runs on.
WORKER_FREQ_HZ = NicConfig().freq_hz


def run(
    setup: Optional[ScaledSetup] = None,
    *,
    scheduler: str = "flowvalve",
    workload: str = "motivation",
    backend: str = "pifo",
    duration: float = 20.0,
    bin_seconds: float = 5.0,
    queue_limit: int = 512,
) -> TimelineResult:
    """Run one scheduler×workload cell of the crossbar.

    Parameters
    ----------
    scheduler: registry name (``fv campaign`` axis / ``--scheduler``).
    workload: ``"motivation"`` (Fig. 11a policy + timeline) or
        ``"fair"`` (Fig. 11b fair queueing).
    backend: queue backend for rank-program schedulers
        (``"pifo"``/``"eiffel"``; adapters ignore it).
    queue_limit: per-scheduler buffering in packets.
    """
    if workload not in WORKLOADS:
        raise CampaignError(
            f"unknown crossbar workload {workload!r}; known: {sorted(WORKLOADS)}"
        )
    policy_of, demands_of, default_setup = WORKLOADS[workload]
    if setup is None:
        setup = default_setup(7)
    # Same convention as fig11: the policy is built at the *scaled*
    # link rate (its class rates live in sim units), demands at the
    # nominal rate (scaled per-sender below / by timeline()).
    policy = policy_of(setup.link_bps)
    demands = demands_of(setup.nominal_link_bps)
    title = f"crossbar — {scheduler} on {workload}"
    if scheduler == "flowvalve":
        # The reference path: identical assembly (and event stream) to
        # the Fig. 11 reproductions — the crossbar must not perturb it.
        return timeline(
            policy, demands, setup,
            duration=duration, bin_seconds=bin_seconds, title=title,
        )

    sim = Simulator(seed=setup.seed)
    sink = PacketSink(sim, rate_window=1.0, record_delays=False)
    link = Link(sim, setup.scaled_wire_bps, receiver=sink.receive)
    sched = build_scheduler(
        scheduler, policy, setup.link_bps,
        backend=backend, queue_limit=queue_limit,
        params=setup.sched_params(),
    )
    port = ScheduledPort(
        sim, sched, link, freq_hz=WORKER_FREQ_HZ / setup.scale,
    )
    factory = PacketFactory()
    for index, (app, demand) in enumerate(sorted(demands.items())):
        FixedRateSender(
            sim, app, factory, port.submit,
            rate_bps=setup.sender_rate(),
            packet_size=1500,
            demand=_scale_demand(demand, setup.scale),
            vf_index=index,
            jitter=0.1,
            rng=sim.random.stream(app),
        )
    sim.run(until=duration)
    notes = (
        f"scale=1/{setup.scale:.0f}, scheduler={sched.name}, "
        f"drops={port.dropped}/{port.submitted}"
    )
    return _collect_timeline(
        sink, sorted(demands), duration, bin_seconds, setup.scale, title,
        notes=notes,
    )

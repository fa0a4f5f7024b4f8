"""One benchmark repetition in a fresh process: import, build, run, report.

``run.py`` spawns this file once per repetition, so every repetition
pays interpreter start, the ``repro``/numpy imports and world
construction exactly as a user's process would. Its last stdout line
is one JSON object (``setup_s``, ``run_s``, outcomes, layer counters
and, with ``--trace 1``, the per-layer profile).

Usage (normally only via ``run.py``)::

    python3 perfbench/worker.py --workload hotpath --seed 7 \
        --spawned-at <time.monotonic() of the parent at spawn> [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Simulated horizon (scaled seconds) of the Fig. 11(a) world that
#: ``hotpath`` and ``observed`` run: the canonical BENCH_hotpath run,
#: 179k packets on seed 7. NC runs alone until 15 s; KVS, ML and WS
#: join at 15 s, so a shorter horizon would leave the tree idle.
HOTPATH_DURATION = 20.0
#: ``observed`` samples the registry 100 times per run, as
#: ``fv simulate --metrics`` does.
OBSERVED_SAMPLES = 100
#: Nominal seconds of megaflow flow arrivals: enough distinct flows
#: (~114k) to overflow the 65,536-entry exact-match cache.
MEGAFLOW_DURATION = 0.2
#: Ring fabric size: 32 hosts at rate scale 200 over 1 simulated
#: second (100 barrier windows).
FABRIC_HOSTS = 32
FABRIC_SCALE = 200.0
FABRIC_DURATION = 1.0


# ----------------------------------------------------------------------
# worlds: the constructor is the set-up, run() the measured work,
# outcome() what was simulated and counters() the layers' tallies
# ----------------------------------------------------------------------
class HotpathWorld:
    """Fig. 11(a) motivation world: 4 backlogged fixed-rate senders."""

    def __init__(self, seed: int, observed: bool = False):
        from dataclasses import replace

        from repro.experiments import hotpath

        self.setup = replace(hotpath.DEFAULT_SETUP, seed=seed)
        self.sampler = None
        if observed:
            self.sim, self.nic = self._build_observed(hotpath)
        else:
            self.sim, self.nic = hotpath.build(self.setup)
        # The builder keeps its PacketSink private; the NIC wire's
        # receiver is that sink's bound ``receive``.
        self.sink = self.nic.link.receiver.__self__

    def _build_observed(self, hotpath):
        """The same builder with a live registry and sampler, the
        ``fv simulate --metrics`` configuration."""
        from repro.stats.metrics import MetricsRegistry, MetricsSampler

        registry = MetricsRegistry()
        simulator = hotpath.Simulator
        hotpath.Simulator = lambda **kw: simulator(metrics=registry, **kw)
        try:
            sim, nic = hotpath.build(self.setup)
        finally:
            hotpath.Simulator = simulator
        self.sampler = MetricsSampler(
            sim, registry, interval=HOTPATH_DURATION / OBSERVED_SAMPLES
        )
        return sim, nic

    def run(self) -> None:
        self.sim.run(until=HOTPATH_DURATION)

    def outcome(self) -> dict:
        return nic_outcome(self.nic, self.sink)

    def counters(self) -> dict:
        out = nic_counters(self.nic, self.sink)
        out["metrics.samples"] = len(self.sampler.rows) if self.sampler else 0
        return out


class MegaflowWorld:
    """KVS/web/ML heavy-tailed trace mix on the batched generators."""

    def __init__(self, seed: int):
        from dataclasses import replace

        from repro.experiments import megaflow

        self.setup = replace(megaflow.DEFAULT_SETUP, seed=seed)
        self.sim, self.nic, self.sink, self.workloads = megaflow.build(
            self.setup, duration=MEGAFLOW_DURATION
        )

    def run(self) -> None:
        # Arrivals stop at the duration; 2% more drains what is in
        # flight, as ``megaflow.run`` does.
        self.sim.run(until=MEGAFLOW_DURATION * self.setup.scale * 1.02)

    def outcome(self) -> dict:
        sink, emc = self.sink, self.nic.app.labeler.cache
        delay = sink.latency_summary().scaled(1.0 / self.setup.scale)
        return {
            **nic_outcome(self.nic, sink),
            "flows": sum(w.flows_started for w in self.workloads),
            "flows_completed": sum(w.flows_completed for w in self.workloads),
            "emc": {
                "hits": emc.hits,
                "misses": emc.misses,
                "evictions": emc.evictions,
                "expirations": emc.expirations,
            },
            "delay_p50": delay.p50,
            "delay_p99": delay.p99,
        }

    def counters(self) -> dict:
        out = nic_counters(self.nic, self.sink)
        out["workload.windows"] = sum(w.windows_generated for w in self.workloads)
        out["workload.flows"] = sum(w.flows_started for w in self.workloads)
        out["sketch.bins"] = self.sink.delay_sketch().bin_count
        return out


class FabricWorld:
    """32-host ring over the sharded engine.

    Domains are built inside ``SimulationSpec.run`` (in the shard
    workers when ``shards > 1``), so set-up here is the imports plus
    the topology, spec and shard plan; domain construction is run time.
    """

    def __init__(self, seed: int, shards: int):
        from repro.experiments import fabric
        from repro.topology import ScaledSetup, SimulationSpec

        setup = ScaledSetup(scale=FABRIC_SCALE, seed=seed)
        self.spec = SimulationSpec(
            topology=fabric.build_fabric(setup, hosts=FABRIC_HOSTS),
            setup=setup,
            duration=FABRIC_DURATION,
            shards=shards,
        )
        self.spec.plan()
        self.result = None

    def run(self) -> None:
        self.result = self.spec.run()

    def outcome(self) -> dict:
        result = self.result
        delivered: dict = {}
        for domain in result.domains.values():
            for app, n in domain.packets.items():
                delivered[app] = delivered.get(app, 0) + n
        return {
            "packets": result.total_submitted,
            "dropped": result.total_dropped,
            "delivered": dict(sorted(delivered.items())),
            "events": result.total_events,
            "windows": result.windows,
            "domain_events": {n: d.events for n, d in sorted(result.domains.items())},
            "fluid": [
                result.total_fluid_absorbed,
                result.total_fluid_spills,
                result.total_fluid_suspends,
            ],
            "degraded": result.degraded,
        }

    def counters(self) -> dict:
        result = self.result
        return {
            "workload.packets": result.total_submitted,
            "sim.events": result.total_events,
            "fluid.absorbed": result.total_fluid_absorbed,
            "fluid.spills": result.total_fluid_spills,
            "fluid.suspends": result.total_fluid_suspends,
            "nic.dropped": result.total_dropped,
            "sink.deliveries": result.total_packets,
            "shard.windows": result.windows,
        }


def nic_outcome(nic, sink) -> dict:
    """What a single-NIC world simulated."""
    return {
        "packets": nic.submitted,
        "forwarded": nic.forwarded,
        "dropped": nic.dropped,
        "drops_by_reason": {
            reason.value: n for reason, n in nic.drops_by_reason.items() if n
        },
        "delivered": dict(sorted(sink.packets.items())),
        "delivered_bytes": dict(sorted(sink.bytes.items())),
        "events": nic.sim.events_executed,
    }


def nic_counters(nic, sink) -> dict:
    """Counters of one single-NIC world after its run."""
    emc = nic.app.labeler.cache
    # The fluid lane has no public handle; megaflow.run reads it the
    # same way.
    lane = getattr(nic, "_fluid", None)
    return {
        "workload.packets": nic.submitted,
        "sim.events": nic.sim.events_executed,
        "emc.hits": emc.hits,
        "emc.misses": emc.misses,
        "emc.evictions": emc.evictions,
        "fluid.absorbed": lane.absorbed if lane is not None else 0,
        "fluid.spills": lane.spills if lane is not None else 0,
        "fluid.suspends": lane.suspends if lane is not None else 0,
        "fluid.miss_absorbed": lane.miss_absorbed if lane is not None else 0,
        "nic.dropped": nic.dropped,
        "sink.deliveries": sink.total_packets,
    }


WORLDS = {
    "hotpath": lambda seed, shards: HotpathWorld(seed),
    "observed": lambda seed, shards: HotpathWorld(seed, observed=True),
    "megaflow": lambda seed, shards: MegaflowWorld(seed),
    "fabric": FabricWorld,
}


# ----------------------------------------------------------------------
# layer meters for ``--trace 1`` invocations
# ----------------------------------------------------------------------
class RouteMeter:
    """Times ``repro.sim.shard.route_records`` and counts what it routes.

    The shard coordinator calls the function by its module-global name,
    so replacing that name for the duration of a run meters every call.
    """

    def __init__(self):
        from repro.sim import shard

        self._shard = shard
        self._inner = shard.route_records
        self.seconds = 0.0
        self.records = 0
        shard.route_records = self

    def __call__(self, shipments):
        start = time.perf_counter()
        routed = self._inner(shipments)
        self.seconds += time.perf_counter() - start
        self.records += sum(len(records) for records in routed.values())
        return routed

    def close(self) -> None:
        self._shard.route_records = self._inner


def call_counts(stats) -> dict:
    """Exact call counts of the functions behind the per-layer ratios."""
    from repro.stats.sketch import QuantileSketch
    from repro.tc.classifier import MatchSpec

    def calls(func) -> int:
        code = func.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        return entry[1] if entry else 0

    return {
        "classify.matches": calls(MatchSpec.matches),
        "sketch.adds": calls(QuantileSketch.add),
    }


def numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORLDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--meter-routes", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Library output must not mix with the one-line result on stdout.
    result_out = sys.stdout
    sys.stdout = sys.stderr

    # A traced repetition is profiled instead: the timer's snippet would
    # land in whatever layer it interrupts.
    profiler = calibration = None
    if args.trace:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    else:
        from calibrate import Calibration

        calibration = Calibration()
        calibration.start()
    sys.path.insert(0, SRC)
    world = WORLDS[args.workload](args.seed, args.shards)
    setup_s = time.monotonic() - args.spawned_at
    laps = {"setup": calibration.lap()} if calibration else {}
    shard_calibration = None
    if calibration is not None and args.workload == "fabric" and args.shards > 1:
        # The work runs in the shard workers: calibrate their CPUs.
        from calibrate import ShardCalibration

        calibration.stop()
        shard_calibration = ShardCalibration()
    meter = RouteMeter() if args.meter_routes else None
    start = time.perf_counter()
    world.run()
    outcome = world.outcome()
    run_s = time.perf_counter() - start
    if calibration is not None:
        if shard_calibration is not None:
            laps["run"] = shard_calibration.close()
        else:
            laps["run"] = calibration.lap()
            calibration.stop()
        setup_s -= laps["setup"]["wall_s"]
        run_s -= laps["run"]["wall_s"]
    if profiler is not None:
        profiler.disable()
    if meter is not None:
        meter.close()

    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calibration": laps,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": outcome,
        "counters": world.counters(),
        "numpy": numpy_available(),
    }
    if meter is not None:
        report["counters"]["shard.records_routed"] = meter.records
        report["counters"]["shard.route_s"] = meter.seconds
    if profiler is not None:
        import pstats

        import repro
        from layers import attribute

        stats = pstats.Stats(profiler).stats
        report["layers"] = attribute(stats, os.path.dirname(repro.__file__))
        report["counters"].update(call_counts(stats))
    print(json.dumps(report, sort_keys=True), file=result_out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

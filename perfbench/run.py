"""The repository benchmark: host time per simulated packet on four
workloads, with a traced per-layer ledger.

Usage, from the repository root::

    python3 perfbench/run.py --workload <hotpath|megaflow|observed|fabric> \
        --seed <n> --seconds <s> --trace <0|1>

Each repetition runs ``worker.py`` in a fresh process; repetitions
repeat until ``--seconds`` is spent (at least three untraced), every
outcome is checked (``checks.py``) and medians are reported.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from alternating untraced and cProfile-traced
repetitions (``layers.py``). The last stdout line is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before
it give per-repetition values, quartiles, ``failed_frac`` and the host.
``README.md`` describes the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from calibrate import scale
from checks import SIMULATED, check_invariants, check_pins, check_same
from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("hotpath", "megaflow", "observed", "fabric")
#: Repetitions per untraced run, at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Wall budget of one whole invocation; a repetition still running at
#: this point is killed and counted as failed.
BUDGET_S = 170.0

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END = (("us_per_pkt", "us"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

#: (name, unit) of every per-layer metric, printed with ``--trace 1``.
#: A layer a workload does not exercise reads 0.
PER_LAYER = (
    ("workload.self_s", "s"), ("workload.windows", "count"),
    ("workload.flows", "count"), ("workload.packets", "count"),
    ("classify.self_s", "s"), ("classify.matches", "count"),
    ("classify.matches_per_miss", "ratio"),
    ("emc.hits", "count"), ("emc.misses", "count"),
    ("emc.evictions", "count"), ("emc.hit_ratio", "ratio"),
    ("sink.self_s", "s"), ("sink.deliveries", "count"),
    ("sketch.adds", "count"), ("sketch.adds_per_delivery", "ratio"),
    ("sketch.bins", "count"),
    ("fluid.self_s", "s"), ("fluid.absorbed", "count"),
    ("fluid.spills", "count"), ("fluid.suspends", "count"),
    ("fluid.miss_absorbed", "count"), ("fluid.absorb_ratio", "ratio"),
    ("sched.self_s", "s"),
    ("nic.self_s", "s"), ("nic.drop_ratio", "ratio"),
    ("tm.self_s", "s"),
    ("sim.self_s", "s"), ("sim.events", "count"),
    ("sim.events_per_pkt", "ratio"),
    ("metrics.self_s", "s"), ("metrics.samples", "count"),
    ("shard.self_s", "s"), ("shard.windows", "count"),
    ("shard.records_routed", "count"), ("shard.route_s", "s"),
    ("shard.speedup_2v1", "ratio"),
    ("build.self_s", "s"), ("other.self_s", "s"),
    ("trace.overhead", "ratio"),
)


class Repetition:
    """One spawned worker process and what it reported."""

    def __init__(self, role: str, report=None, problems=None):
        self.role = role
        self.report = report
        self.problems = problems if problems is not None else []

    @property
    def ok(self) -> bool:
        return self.report is not None and not self.problems


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.deadline = self.start + BUDGET_S
        self.first = {}
        self.reference = None
        self.reps = []

    # ------------------------------------------------------------------
    def spawn(self, role: str, workload: str, *, shards=2, trace=0, meter=0):
        """Run one worker to completion; returns a Repetition."""
        timeout = max(1.0, self.deadline - time.monotonic())
        cmd = [
            sys.executable, WORKER, "--workload", workload,
            "--seed", str(self.seed), "--shards", str(shards),
            "--trace", str(trace), "--meter-routes", str(meter),
            "--spawned-at", repr(time.monotonic()),
        ]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            out = None
        finally:
            # The worker may leave shard processes behind if it died.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if out is None:
            return Repetition(role, problems=["timed out"])
        if proc.returncode != 0:
            return Repetition(role, problems=[f"worker exited {proc.returncode}"])
        lines = out.decode().strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            return Repetition(role, problems=["worker printed no result"])
        return Repetition(role, report)

    def measured(self, role: str, **kw) -> Repetition:
        """Spawn a repetition of this workload and check its outcome."""
        rep = self.spawn(role, self.workload, **kw)
        self.reps.append(rep)
        if rep.report is None:
            return rep
        outcome = rep.report["outcome"]
        rep.problems += check_invariants(outcome)
        rep.problems += check_pins(self.workload, self.seed, outcome)
        shards = kw.get("shards", 2)
        first = self.first.setdefault(shards, outcome)
        rep.problems += check_same(outcome, first, sorted(outcome), "first repetition")
        if self.workload in ("observed", "fabric"):
            ref = self.reference_outcome()
            if ref is None:
                rep.problems.append("reference run failed")
            elif self.workload == "observed":
                rep.problems += check_same(outcome, ref, SIMULATED, "hotpath")
            else:
                rep.problems += check_same(outcome, ref, sorted(outcome), "1-shard")
        return rep

    def reference_outcome(self):
        """``hotpath`` for ``observed``; the 1-shard run for ``fabric``."""
        if self.reference is None:
            if self.workload == "observed":
                self.reference = self.spawn("reference", "hotpath")
            else:
                self.reference = self.spawn("reference", "fabric", shards=1)
            if self.reference.report is not None:
                self.reference.problems += check_invariants(
                    self.reference.report["outcome"]
                )
        return self.reference.report["outcome"] if self.reference.ok else None

    def more(self, walls, floor: int = 1) -> bool:
        """Whether to start another repetition (or cycle): while fewer
        than *floor* have run, or while one more fits ``--seconds``;
        never when it might overrun the whole-run budget."""
        now = time.monotonic()
        typical = statistics.median(walls)
        if now + 1.5 * typical > self.deadline:
            return False
        return len(walls) < floor or now + typical - self.start <= self.seconds

    def reported(self, role: str) -> list:
        """Reports of the *role* repetitions that ran to the end. A
        repetition that failed a check still has valid timings; the
        failure shows in ``correct`` and ``failed``."""
        return [r.report for r in self.reps if r.role == role and r.report]

    # ------------------------------------------------------------------
    def run_untraced(self) -> dict:
        walls = []
        while not walls or self.more(walls, MIN_REPS):
            began = time.monotonic()
            self.measured("timed")
            walls.append(time.monotonic() - began)
        good = self.reported("timed")
        if not good:
            return {}
        raw_us = [r["run_s"] / r["outcome"]["packets"] * 1e6 for r in good]
        print("host us_per_pkt before scaling: " + " ".join(f"{v:.6g}" for v in raw_us))
        print("host setup_s before scaling: "
              + " ".join(f"{r['setup_s']:.6g}" for r in good))
        series = {
            "us_per_pkt": [
                us * scale(r["calibration"]["run"]) for us, r in zip(raw_us, good)
            ],
            "setup_s": [r["setup_s"] * scale(r["calibration"]["setup"]) for r in good],
            "peak_rss_mib": [r["rss_mib"] for r in good],
        }
        for name, values in series.items():
            print(f"{name}: " + " ".join(f"{v:.6g}" for v in values))
            print(f"{name}: median {statistics.median(values):.6g}, "
                  f"quartiles {quartiles(values)}, n={len(values)}")
        return {name: statistics.median(v) for name, v in series.items()}

    def run_traced(self) -> dict:
        if self.workload == "fabric":
            # The profile and the overhead base run on 1 shard, where
            # every domain is in the profiled process.
            cycle = (("base", {"shards": 1}),
                     ("base2", {"shards": 2, "meter": 1}),
                     ("traced", {"shards": 1, "trace": 1}))
        else:
            cycle = (("base", {}), ("traced", {"trace": 1}))
        walls = []
        while not walls or self.more(walls):
            began = time.monotonic()
            for role, kw in cycle:
                self.measured(role, **kw)
            walls.append(time.monotonic() - began)
        traced, base = self.reported("traced"), self.reported("base")
        if not traced or not base:
            return {}
        counters = traced[0]["counters"]
        for rep in self.reps:
            if rep.role == "traced" and rep.report and rep.report["counters"] != counters:
                rep.problems.append("layer counters differ between repetitions")
        metrics = {name: 0.0 for name, _unit in PER_LAYER}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = statistics.median(
                r["layers"][layer] for r in traced
            )
        for name in metrics:
            if name in counters:
                metrics[name] = counters[name]
        packets = counters["workload.packets"]
        hits, misses = counters.get("emc.hits", 0), counters.get("emc.misses", 0)
        metrics["classify.matches_per_miss"] = ratio(counters["classify.matches"], misses)
        metrics["emc.hit_ratio"] = ratio(hits, hits + misses)
        metrics["sketch.adds_per_delivery"] = ratio(
            counters["sketch.adds"], counters["sink.deliveries"]
        )
        metrics["fluid.absorb_ratio"] = ratio(counters["fluid.absorbed"], packets)
        metrics["nic.drop_ratio"] = ratio(counters["nic.dropped"], packets)
        metrics["sim.events_per_pkt"] = ratio(counters["sim.events"], packets)
        metrics["trace.overhead"] = (
            statistics.median(r["setup_s"] + r["run_s"] for r in traced)
            / statistics.median(r["setup_s"] + r["run_s"] for r in base)
        )
        base2 = self.reported("base2")
        if base2:
            metrics["shard.route_s"] = statistics.median(
                r["counters"]["shard.route_s"] for r in base2
            )
            metrics["shard.records_routed"] = base2[0]["counters"]["shard.records_routed"]
            metrics["shard.speedup_2v1"] = (
                statistics.median(r["run_s"] for r in base)
                / statistics.median(r["run_s"] for r in base2)
            )
        total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        print(f"traced {len(traced)}x, profiled {total:.3f} s, "
              f"overhead {metrics['trace.overhead']:.2f}x; self-time shares:")
        for layer in LAYERS:
            value = metrics[f"{layer}.self_s"]
            print(f"  {layer:9s} {value:9.4f} s  {value / total:7.2%}")
        print("bases: classify.matches / emc.misses = "
              f"{counters['classify.matches']} / {misses}; "
              f"sketch.adds / sink.deliveries = {counters['sketch.adds']} / "
              f"{counters['sink.deliveries']}; fluid.absorbed / workload.packets = "
              f"{counters['fluid.absorbed']} / {packets}")
        return metrics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quartiles(values):
    if len(values) < 2:
        return f"{values[0]:.6g}..{values[0]:.6g}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.6g}..{q3:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    values = bench.run_traced() if args.trace else bench.run_untraced()
    attempted = len(bench.reps)
    failed = sum(1 for rep in bench.reps if not rep.ok)
    for rep in bench.reps + ([bench.reference] if bench.reference else []):
        for problem in rep.problems:
            print(f"FAILED {rep.role}: {problem}")
    if not values:
        print("perfbench: no repetition ran to the end", file=sys.stderr)
        return 1
    reports = [rep.report for rep in bench.reps if rep.report is not None]
    print(json.dumps({"host": {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": all(r["numpy"] for r in reports),
        "workload": args.workload,
        "seed": args.seed,
        "failed_frac": failed / attempted,
    }}))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

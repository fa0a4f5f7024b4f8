"""Output checks for benchmark repetitions.

Every repetition's simulated outcome is checked before its timing
counts. Three kinds of check:

* pins — on seed 7 (the seed every committed figure uses) the exact
  packets, drops and per-app deliveries of each workload, plus flows,
  exact-match-cache counters and delay quantiles for megaflow. Kernel
  events are pinned as a ceiling, not an equality: an engine that
  needs fewer events for the same outcome is the kind of change the
  benchmark exists to measure, while more events means a fast lane
  silently disengaged.
* agreements that hold for any seed — every repetition of a run
  matches the first (same seed, same outcome); ``observed`` matches a
  ``hotpath`` reference run (metrics must not change what is
  simulated); the 2-shard ``fabric`` matches a 1-shard reference run.
* invariants — conservation between submitted, dropped, forwarded and
  delivered packets.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

from typing import Dict, List

PIN_SEED = 7
#: Relative error ε the megaflow sink's delay sketch guarantees
#: (``QuantileSketch``'s default).
SKETCH_ERROR = 0.005

#: Seed-7 outcomes. ``events`` is a ceiling (see the module docstring).
#: Megaflow's ``delay_p50``/``delay_p99`` are the exact sample
#: quantiles (nominal seconds) from an exact-statistics run of the same
#: world; the sketch must report them within its relative error.
_HOTPATH = {
    "packets": 179_154,
    "forwarded": 76_830,
    "dropped": 102_283,
    "drops_by_reason": {"sched_red": 102_283},
    "delivered": {"KVS": 4_932, "ML": 3_638, "NC": 63_998, "WS": 4_258},
}
PINS: Dict[str, dict] = {
    "hotpath": {**_HOTPATH, "events": 14_843},
    # The per-packet engine: 9.8 events/packet, 100 sampler ticks.
    "observed": {**_HOTPATH, "events": 1_763_280},
    "megaflow": {
        "packets": 193_800,
        "forwarded": 184_915,
        "dropped": 8_885,
        "drops_by_reason": {"sched_red": 8_885},
        "delivered": {"KVS": 134_953, "ML": 12_958, "WS": 37_004},
        "events": 17_701,
        "flows": 113_855,
        "flows_completed": 113_855,
        "emc": {"evictions": 48_319, "expirations": 0, "hits": 79_945,
                "misses": 113_855},
        "delay_p50": 1.8193833506785496e-05,
        "delay_p99": 0.000889625318459721,
    },
    "fabric": {
        "packets": 186_719,
        "dropped": 58_716,
        "delivered": {"NC": 126_216},
        "events": 13_613,
        "windows": 100,
    },
}

#: Outcome fields that describe what was simulated, as opposed to how
#: (kernel events are an engine property and differ between the fast
#: and the per-packet engine).
SIMULATED = ("packets", "forwarded", "dropped", "drops_by_reason",
             "delivered", "delivered_bytes")


def check_pins(workload: str, seed: int, outcome: dict) -> List[str]:
    pins = PINS.get(workload)
    if seed != PIN_SEED or pins is None:
        return []
    problems = []
    for key, want in pins.items():
        if key == "events":
            if outcome["events"] > want:
                problems.append(f"events {outcome['events']} > pinned ceiling {want}")
        elif key in ("delay_p50", "delay_p99"):
            got = outcome[key]
            if abs(got - want) > SKETCH_ERROR * want:
                problems.append(
                    f"{key} {got!r} not within {SKETCH_ERROR} of exact {want!r}"
                )
        elif outcome.get(key) != want:
            problems.append(f"{key} {outcome.get(key)!r} != pinned {want!r}")
    return problems


def check_invariants(outcome: dict) -> List[str]:
    problems = []
    packets, dropped = outcome["packets"], outcome["dropped"]
    delivered = sum(outcome["delivered"].values())
    if packets <= 0 or delivered <= 0:
        problems.append(f"empty run: {packets} submitted, {delivered} delivered")
    if "forwarded" in outcome:
        forwarded = outcome["forwarded"]
        if forwarded + dropped > packets:
            problems.append(f"forwarded {forwarded} + dropped {dropped} > submitted {packets}")
        if delivered > forwarded:
            problems.append(f"delivered {delivered} > forwarded {forwarded}")
        if sum(outcome["drops_by_reason"].values()) != dropped:
            problems.append("drop reasons do not sum to drops")
    elif delivered + dropped > packets:
        problems.append(f"delivered {delivered} + dropped {dropped} > submitted {packets}")
    if outcome.get("degraded"):
        problems.append("shard plan degraded to a single process")
    return problems


def check_same(outcome: dict, reference: dict, fields, what: str) -> List[str]:
    return [
        f"{key} {outcome.get(key)!r} != {what} {reference.get(key)!r}"
        for key in fields
        if outcome.get(key) != reference.get(key)
    ]

"""Interpreter speed sampled on the measuring CPU while it measures.

On a shared host the speed of one CPU drifts by 20-30 % within seconds
and for minutes at a time, as other tenants load the same cores. The
drift is per CPU: a probe on the other CPU does not follow it, and a
probe before and after a repetition misses the changes in between.
So a repetition samples its own CPU 100 times a second. A timer signal
interrupts the simulation, runs a fixed snippet of interpreter work
(slotted method calls, float arithmetic, a heap and a dict lookup, the
operations the simulator is made of) and records the snippet's CPU
time. The wall time spent in the snippet is taken out of the measured
phase, and the phase's time is scaled by
``REFERENCE_S / (mean snippet CPU time)``: what the phase would have
taken at the reference host's speed.

The snippet allocates no objects the garbage collector tracks, so it
neither triggers nor absorbs collections of the simulation's heap.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import time

#: Mean CPU time of one snippet call on the reference host (a 2-core
#: Xeon VM, Python 3.11) in its faster periods. It only sets the unit:
#: scaled times read as host times at that speed.
REFERENCE_S = 100e-6
#: Sampling period of the timer.
INTERVAL_S = 0.01


class _Bucket:
    __slots__ = ("rate", "tokens", "last")

    def __init__(self, rate: float):
        self.rate = rate
        self.tokens = 0.0
        self.last = 0.0

    def refill(self, now: float) -> float:
        self.tokens = min(1e6, self.tokens + (now - self.last) * self.rate)
        self.last = now
        return self.tokens


class Calibration:
    """Samples the snippet on a timer between :meth:`start` and
    :meth:`stop`; :meth:`lap` returns and resets the tallies."""

    def __init__(self):
        self._buckets = [_Bucket(float(i + 1)) for i in range(64)]
        self._table = {i: i & 3 for i in range(4096)}
        self._heap: list = []
        self._cpu_s = 0.0
        self._wall_s = 0.0
        self._calls = 0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def lap(self) -> dict:
        """``cpu_s``/``calls`` of the snippet and ``wall_s`` spent in it
        since the previous lap."""
        tallies = {"cpu_s": self._cpu_s, "wall_s": self._wall_s, "calls": self._calls}
        self._cpu_s = self._wall_s = 0.0
        self._calls = 0
        return tallies

    def _tick(self, _signum, _frame) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        self._snippet()
        self._cpu_s += time.thread_time() - cpu
        self._wall_s += time.perf_counter() - wall
        self._calls += 1

    def _snippet(self) -> float:
        buckets, table, heap = self._buckets, self._table, self._heap
        now = acc = 0.0
        for i in range(120):
            now += 1e-3
            acc += buckets[i & 63].refill(now)
            heapq.heappush(heap, now + (i % 7) * 1e-4)
            if len(heap) > 32:
                heapq.heappop(heap)
            acc += table.get((i * 2654435761) & 4095, 0)
        heap.clear()
        return acc


class ShardCalibration:
    """A :class:`Calibration` inside every shard worker process.

    With ``shards > 1`` the simulation runs in worker processes that
    ``repro.sim.shard`` forks with ``_shard_worker`` as their target,
    looked up by name when the workers start. Replacing that name while
    a run starts its workers calibrates each worker's own CPU; the laps
    come back over a pipe the forked workers inherit.
    """

    def __init__(self):
        from repro.sim import shard

        self._shard = shard
        self._inner = inner = shard._shard_worker
        self._read, self._write = os.pipe()
        write = self._write

        def calibrated(*args):
            calibration = Calibration()
            calibration.start()
            try:
                inner(*args)
            finally:
                calibration.stop()
                os.write(write, (json.dumps(calibration.lap()) + "\n").encode())

        shard._shard_worker = calibrated

    def close(self) -> dict:
        """One lap for the whole run: the workers' snippet samples
        pooled, and the mean time each worker spent in its snippets
        (the workers run side by side)."""
        self._shard._shard_worker = self._inner
        os.close(self._write)
        with os.fdopen(self._read) as pipe:
            laps = [json.loads(line) for line in pipe]
        if not laps:
            return {"cpu_s": 0.0, "wall_s": 0.0, "calls": 0}
        return {
            "cpu_s": sum(lap["cpu_s"] for lap in laps),
            "wall_s": sum(lap["wall_s"] for lap in laps) / len(laps),
            "calls": sum(lap["calls"] for lap in laps),
        }


def scale(lap: dict) -> float:
    """Factor that takes a phase's time to the reference speed."""
    if not lap["calls"]:
        return 1.0
    return REFERENCE_S / (lap["cpu_s"] / lap["calls"])

"""The receiving end of the testbed.

Plays the role of the Intel X710 receiver in the paper's setup: counts
delivered frames per application/class, computes one-way delay
statistics, and (optionally) notifies a congestion-control callback so
AIMD senders learn their delivery rate.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..stats.latency import LatencySummary, summarize_latencies
from ..stats.sketch import QuantileSketch, WindowedRateSketch
from ..stats.timeseries import RateSeries
from .packet import Packet

__all__ = ["PacketSink"]

#: Sketch-mode delays buffered per app before one ``add_many`` call.
_SKETCH_RUN = 1024


class PacketSink:
    """Terminal packet consumer with per-app accounting.

    Two delivery routes feed the same tallies (:meth:`_account`):

    * :meth:`receive` — the eventful route (``Link.receiver``): one
      link-delivery event per frame, accounted immediately.
    * :meth:`receive_later` — the lazy route (burst-ingress fast path,
      DESIGN.md §7): the link records ``(delivery_time, packet)`` with
      *no* simulator event, and the tallies are folded in at the next
      observation of any public counter, using each frame's recorded
      delivery time. Mirrors ``BufferPool.release_at``. Only wired up
      when nothing can observe the difference (no ``on_delivery``
      hook, no tracing — the pipeline decides).

    In sketch mode delays stream into one sketch per app; the pooled
    sketch is their merge, built on read (one sketch add per delivery).

    Parameters
    ----------
    sim: the shared simulator.
    rate_window: averaging window for per-app throughput series.
    on_delivery: optional ``callable(packet)`` invoked per delivery
        (used to drive TCP ack feedback).
    record_delays: keep every one-way delay sample (memory grows with
        traffic; disable for long stress runs).
    stats_mode: ``"exact"`` (default — a list per delay sample, a rate
        bin per elapsed window) or ``"sketch"`` (constant memory in
        the packet count and run length: delays stream into
        :class:`~repro.stats.sketch.QuantileSketch` instances with
        *sketch_error* relative quantile accuracy, rates into
        :class:`~repro.stats.sketch.WindowedRateSketch` rings). Packet
        and byte tallies stay exact either way; :meth:`latency_summary`
        works in both modes.
    sketch_error: relative quantile error ε of sketch-mode delays.
    fold_interval: if set, lazily-recorded deliveries are folded into
        the tallies at least this often (one kernel event per interval
        while traffic flows, none when drained). Without it the lazy
        route buffers every ``(time, packet)`` pair until the *next
        observation* — correct, but a run that never looks at the sink
        mid-flight holds its entire delivered traffic in memory. The
        megaflow bench sets this to keep peak RSS constant in the
        packet count.
    """

    def __init__(
        self,
        sim,
        rate_window: float = 0.1,
        on_delivery: Optional[Callable[[Packet], None]] = None,
        record_delays: bool = True,
        delay_start: float = 0.0,
        stats_mode: str = "exact",
        sketch_error: float = 0.005,
        fold_interval: Optional[float] = None,
    ):
        if fold_interval is not None and fold_interval <= 0:
            raise ValueError(
                f"fold_interval must be positive, got {fold_interval}"
            )
        if stats_mode not in ("exact", "sketch"):
            raise ValueError(
                f"stats_mode must be 'exact' or 'sketch', got {stats_mode!r}"
            )
        self.sim = sim
        self.on_delivery = on_delivery
        self.record_delays = record_delays
        self.stats_mode = stats_mode
        self.sketch_error = sketch_error
        #: Delay samples before this time are discarded (warm-up cut).
        self.delay_start = delay_start
        self._packets: Dict[str, int] = defaultdict(int)
        self._bytes: Dict[str, int] = defaultdict(int)
        self._rates: Dict[str, RateSeries] = {}
        self._delays: List[float] = []
        self._delays_by_app: Dict[str, List[float]] = defaultdict(list)
        self._sketch = stats_mode == "sketch"
        self._sketches_by_app: Dict[str, QuantileSketch] = {}
        #: Per app: delays not yet in its sketch (sketch mode). Read
        #: paths settle them first (:meth:`_settle_sketches`).
        self._sketch_runs: Dict[str, List[float]] = {}
        self._rate_window = rate_window
        self._total_packets = 0
        self._total_bytes = 0
        #: Lazily-recorded deliveries: (delivery_time, packet), times
        #: non-decreasing (one link feeds the lazy route, FIFO wire).
        self._pending: Deque[Tuple[float, Packet]] = deque()
        self._drain_hook_registered = False
        self._fold_interval = fold_interval
        self._fold_armed = False
        # Observability: one identity check per delivery when off.
        tracer = sim.tracer
        self._trace = tracer if tracer.enabled else None
        if sim.metrics.enabled:
            sim.metrics.probe("sink.total_packets", lambda: self.total_packets)
            sim.metrics.probe("sink.total_bytes", lambda: self.total_bytes)
            sim.metrics.probe("sink.packets_by_app", lambda: dict(self.packets))
            sim.metrics.probe("sink.bytes_by_app", lambda: dict(self.bytes))

    # ------------------------------------------------------------------
    # delivery routes
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Account one delivered frame. Wire this to ``Link.receiver``."""
        self._account(packet, self.sim._now)

    def receive_later(self, time: float, packet: Packet) -> None:
        """Record a delivery at absolute *time*, folded in on observation.

        Times must be non-decreasing across calls (the serialising link
        guarantees this). The simulator learns about pending folds via
        a drain hook so an open-ended ``run()`` still ends at the last
        delivery time.
        """
        if not self._drain_hook_registered:
            self._drain_hook_registered = True
            self.sim.add_drain_hook(
                lambda: self._pending[-1][0] if self._pending else None
            )
        if self._fold_interval is not None and not self._fold_armed:
            self._arm_fold()
        self._pending.append((time, packet))

    def _arm_fold(self) -> None:
        """Schedule the periodic fold. Re-armed on the first pending
        delivery after a drain, so the periodic fold never keeps an
        otherwise-empty event queue alive."""
        self._fold_armed = True
        self.sim.schedule(self._fold_interval, self._periodic_fold)

    def _periodic_fold(self) -> None:
        self._fold()
        if self._pending:
            self.sim.schedule(self._fold_interval, self._periodic_fold)
        else:
            self._fold_armed = False

    def _account(self, packet: Packet, now: float) -> None:
        """The tally rules of one delivery at *now*, shared by both
        routes. In sketch mode the delay is appended to its app's run,
        which enters the app's sketch with one ``add_many`` call (equal
        to adding the delays one by one) when it fills or when a reader
        settles it: one sketch add per delivery."""
        app = packet.app
        size = packet.size
        self._packets[app] += 1
        self._bytes[app] += size
        self._total_packets += 1
        self._total_bytes += size
        series = self._rates.get(app)
        if series is None:
            series = (
                WindowedRateSketch(window=self._rate_window)
                if self._sketch
                else RateSeries(window=self._rate_window)
            )
            self._rates[app] = series
        series.add(now, size * 8)
        if self.record_delays and packet.created_at >= 0 and now >= self.delay_start:
            delay = now - packet.created_at
            if self._sketch:
                run = self._sketch_runs.get(app)
                if run is None:
                    # First delay of this app: its sketch joins the
                    # pooled merge in first-delivery order.
                    self._sketches_by_app[app] = QuantileSketch(
                        relative_error=self.sketch_error
                    )
                    run = self._sketch_runs[app] = []
                run.append(delay)
                if len(run) >= _SKETCH_RUN:
                    self._sketches_by_app[app].add_many(run)
                    run.clear()
            else:
                self._delays.append(delay)
                self._delays_by_app[app].append(delay)
        if self._trace is not None:
            self._trace.emit(
                now, "net.sink", "deliver",
                app=app, size=size,
                delay=(now - packet.created_at) if packet.created_at >= 0 else None,
            )
        if self.on_delivery is not None:
            self.on_delivery(packet)

    def _settle_sketches(self) -> None:
        """Move every buffered sketch-mode delay into its app's sketch."""
        sketches = self._sketches_by_app
        for app, run in self._sketch_runs.items():
            if run:
                sketches[app].add_many(run)
                run.clear()

    def _fold(self, until: Optional[float] = None) -> None:
        """Account every pending lazy delivery with time <= *until*.

        ``until=None`` folds up to the simulator clock (the matured
        set). An explicit later bound additionally folds deliveries
        whose wire schedule is already committed but whose instant lies
        past a stale ``sim.now`` — the window-accounting contract of
        :meth:`throughput_bps`.
        """
        pending = self._pending
        if not pending:
            return
        now = self.sim._now
        if until is not None and until > now:
            now = until
        account = self._account
        while pending and pending[0][0] <= now:
            time, packet = pending.popleft()
            packet.delivered_at = time
            account(packet, time)

    # ------------------------------------------------------------------
    # observed tallies (fold-first)
    # ------------------------------------------------------------------
    @property
    def packets(self) -> Dict[str, int]:
        """Delivered frame count per app name ('' for unnamed)."""
        self._fold()
        return self._packets

    @property
    def bytes(self) -> Dict[str, int]:
        """Delivered bytes per app name."""
        self._fold()
        return self._bytes

    @property
    def rates(self) -> Dict[str, RateSeries]:
        """Windowed throughput series per app name."""
        self._fold()
        return self._rates

    @property
    def delays(self) -> List[float]:
        """One-way delay samples in seconds (all apps pooled).

        Exact mode only — sketch mode keeps no sample list; use
        :meth:`latency_summary` or :meth:`delay_sketch` instead.
        """
        if self._sketch:
            raise ValueError(
                "sketch-mode sink keeps no delay sample list; "
                "use latency_summary() / delay_sketch()"
            )
        self._fold()
        return self._delays

    @property
    def delays_by_app(self) -> Dict[str, List[float]]:
        """One-way delay samples per app name (exact mode only)."""
        if self._sketch:
            raise ValueError(
                "sketch-mode sink keeps no delay sample lists; "
                "use latency_summary(app) / delay_sketch(app)"
            )
        self._fold()
        return self._delays_by_app

    def _pooled_sketch(self) -> QuantileSketch:
        """All apps' delays in one sketch: the per-app sketches merged
        in first-delivery order. Bins, count, min and max (so every
        quantile) equal a single sketch fed every delay; sum, mean and
        jitter agree up to float associativity."""
        pooled = QuantileSketch(relative_error=self.sketch_error)
        for sketch in self._sketches_by_app.values():
            pooled.merge(sketch)
        return pooled

    def delay_sketch(self, app: Optional[str] = None) -> QuantileSketch:
        """The streaming delay sketch (sketch mode only): pooled, or
        one app's. The sketch's ``bin_count`` is the sink's entire
        variable delay-stats footprint — the megaflow bench asserts it
        stays bounded while millions of samples stream through.

        The pooled sketch is built by merging on each call, and an app
        with no delivery gets a fresh empty sketch; neither is stored.
        An app's sketch takes later deliveries at the next read."""
        if not self._sketch:
            raise ValueError("delay_sketch() requires stats_mode='sketch'")
        self._fold()
        self._settle_sketches()
        if app is None:
            return self._pooled_sketch()
        sketch = self._sketches_by_app.get(app)
        if sketch is None:
            return QuantileSketch(relative_error=self.sketch_error)
        return sketch

    def latency_summary(self, app: Optional[str] = None) -> LatencySummary:
        """One-way delay statistics, pooled or per app — mode-blind.

        Exact mode summarises the kept sample list (one sort); sketch
        mode reads the streaming sketch (count/mean/min/max/jitter
        exact, p50/p99 within ``sketch_error`` relative error).
        """
        self._fold()
        if self._sketch:
            self._settle_sketches()
            if app is None:
                return self._pooled_sketch().summary()
            sketch = self._sketches_by_app.get(app)
            return sketch.summary() if sketch is not None else LatencySummary(
                0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
            )
        samples = self._delays if app is None else self._delays_by_app.get(app, [])
        return summarize_latencies(samples)

    @property
    def total_packets(self) -> int:
        self._fold()
        return self._total_packets

    @property
    def total_bytes(self) -> int:
        self._fold()
        return self._total_bytes

    def throughput_bps(self, app: str, elapsed: float) -> float:
        """Average delivered rate for *app* over ``[0, elapsed]``.

        Folds lazy deliveries up to *elapsed* explicitly: called with a
        stale ``sim.now`` (a paused run, a bound past the clock), every
        delivery already committed to the wire inside the window is
        counted — the eventful route's value at *elapsed* — instead of
        silently stopping at whatever had matured.
        """
        if elapsed <= 0:
            return 0.0
        self._fold(until=elapsed)
        return self._bytes[app] * 8 / elapsed

    def total_throughput_bps(self, elapsed: float) -> float:
        """Average delivered rate across all apps over ``[0, elapsed]``."""
        if elapsed <= 0:
            return 0.0
        self._fold(until=elapsed)
        return self._total_bytes * 8 / elapsed

"""A compact ack-clocked AIMD TCP model.

The paper drives its experiments with TCP (iperf3 against kernel
qdiscs; an mTCP-based tool against FlowValve and DPDK QoS). What the
throughput figures need from TCP is its control loop: slow start,
additive increase, multiplicative decrease on loss, and — critically —
**self-clocking**: a sender may only have ``cwnd`` bytes in flight, so
its rate can never exceed the bottleneck's delivery rate for longer
than one RTT. (An open-loop ``cwnd/RTT`` pacer without the in-flight
cap oscillates wildly against a bufferless policer; the ack clock is
what keeps real TCP smooth.)

Segment-level reliability (retransmission, SACK) is irrelevant to
throughput shape under a policer/shaper and is deliberately left out;
a lost packet only matters as a congestion signal and as an in-flight
decrement.

Wiring: the experiment connects :meth:`TcpRegistry.handle_delivery` to
the receiving sink and :meth:`TcpRegistry.handle_drop` to the
scheduler/NIC drop hook, so each connection sees its own acks and
losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..net.flow import FiveTuple
from ..net.packet import Packet, PacketFactory

__all__ = ["TcpParams", "AimdConnection", "TcpRegistry"]


@dataclass(frozen=True)
class TcpParams:
    """Congestion-control constants.

    ``base_rtt`` seeds the RTT estimator; the estimator then tracks
    measured one-way delays. All times scale with the experiment's
    rate scale.
    """

    mss: int = 1500
    initial_cwnd_segments: float = 10.0
    min_cwnd_segments: float = 2.0
    base_rtt: float = 100e-6
    #: Multiplicative-decrease factor on loss (0.5 = classic Reno;
    #: Linux's default CUBIC uses ~0.7).
    beta: float = 0.5
    #: EWMA weight for the RTT estimate.
    rtt_alpha: float = 0.2
    #: Idle longer than this many RTTs triggers slow-start restart.
    idle_restart_rtts: float = 10.0


class AimdConnection:
    """One TCP connection: ack-clocked window with AIMD control."""

    def __init__(
        self,
        sim,
        conn_id: int,
        flow: FiveTuple,
        app: str,
        factory: PacketFactory,
        submit: Callable[[Packet], bool],
        params: Optional[TcpParams] = None,
        demand: Optional[Callable[[float], float]] = None,
        vf_index: int = 0,
        on_send_cost: Optional[Callable[[int], None]] = None,
    ):
        self.sim = sim
        self.conn_id = conn_id
        self.flow = flow
        self.app = app
        self.factory = factory
        self.submit = submit
        self.params = params if params is not None else TcpParams()
        #: Time-varying application demand in bit/s (None = unbounded).
        self.demand = demand
        self.vf_index = vf_index
        #: Called with the packet size for every send (CPU accounting).
        self.on_send_cost = on_send_cost
        p = self.params
        self.cwnd = p.initial_cwnd_segments * p.mss  # bytes
        self.ssthresh = math.inf
        self.srtt = p.base_rtt
        self.in_slow_start = True
        #: Unacknowledged segments currently in the network.
        self.in_flight = 0
        self._last_cut = -math.inf
        self._last_send = -math.inf
        self._window_waiter = None
        # --- statistics ----------------------------------------------
        self.sent_packets = 0
        self.acked_packets = 0
        self.lost_packets = 0
        self._process = sim.process(self._run())

    # ------------------------------------------------------------------
    @property
    def cwnd_segments(self) -> float:
        """Current window in segments."""
        return self.cwnd / self.params.mss

    def pacing_rate_bps(self) -> float:
        """Smoothing rate used to space sends within a window."""
        window_rate = self.cwnd * 8.0 / max(self.srtt, 1e-12)
        if self.demand is None:
            return window_rate
        return min(window_rate, self.demand(self.sim.now))

    def _run(self):
        # Deliberately per-packet, even against a train-capable
        # pipeline (``NicPipeline.submit_train``). An ack-clocked
        # sender has no usable CBR horizon: every ack mutates cwnd/srtt
        # and therefore the pacing of every later emission. A design
        # that trained TCP emissions and retired a train's unsent tail
        # on each feedback was measured and rejected: in a fig-style
        # workload (4 apps x 2 conns, scale 2000, 6 s) it cost 65,412
        # kernel events against 18,245 per-packet, a 3.6x
        # pessimization. Worse, RTT-symmetric connections emit at
        # exactly equal instants, and a wake re-armed at retire time
        # cannot reproduce the per-packet resume-lane seq order among
        # those simultaneous emissions, so deliveries shift by whole
        # serialization quanta. Open-loop senders (FixedRateSender,
        # TraceWorkload) are where emission trains pay off, and trains
        # carry no retire protocol.
        p = self.params
        size = p.mss
        size_bits = size * 8.0
        while True:
            if self.demand is not None and self.demand(self.sim.now) <= 0:
                yield max(p.base_rtt, self.srtt)
                continue
            if self.sim.now - self._last_send > p.idle_restart_rtts * max(self.srtt, p.base_rtt):
                self._slow_start_restart()
            if self.in_flight >= max(1.0, self.cwnd_segments):
                # Ack clock: wait for a delivery/loss to open the window.
                self._window_waiter = self.sim.event()
                yield self._window_waiter
                continue
            packet = self.factory.make(
                size, self.flow, self.sim.now, app=self.app,
                vf_index=self.vf_index, conn_id=self.conn_id,
            )
            if self.on_send_cost is not None:
                self.on_send_cost(size)
            self._last_send = self.sim.now
            self.sent_packets += 1
            self.in_flight += 1
            self.submit(packet)
            rate = self.pacing_rate_bps()
            if rate <= 0:
                yield self.srtt
            else:
                yield size_bits / rate

    def _slow_start_restart(self) -> None:
        p = self.params
        self.cwnd = p.initial_cwnd_segments * p.mss
        self.in_slow_start = True
        self.ssthresh = math.inf

    def _open_window(self) -> None:
        if self.in_flight > 0:
            self.in_flight -= 1
        waiter = self._window_waiter
        if waiter is not None and not waiter.triggered:
            self._window_waiter = None
            waiter.succeed()

    # ------------------------------------------------------------------
    # feedback from the network
    # ------------------------------------------------------------------
    def on_delivered(self, packet: Packet) -> None:
        """An ack: grow the window, refresh RTT, open the ack clock."""
        p = self.params
        self.acked_packets += 1
        owd = packet.one_way_delay
        if owd > 0:
            sample = max(p.base_rtt, 2.0 * owd)
            self.srtt += p.rtt_alpha * (sample - self.srtt)
        if self.in_slow_start:
            self.cwnd += p.mss
            if self.cwnd >= self.ssthresh:
                self.in_slow_start = False
        else:
            self.cwnd += p.mss * p.mss / self.cwnd
        self._open_window()

    def on_dropped(self, packet: Packet) -> None:
        """A loss: at most one multiplicative decrease per RTT; the
        lost segment still opens the ack clock (it left the network)."""
        p = self.params
        self.lost_packets += 1
        if self.sim.now - self._last_cut >= self.srtt:
            self._last_cut = self.sim.now
            self.cwnd = max(p.min_cwnd_segments * p.mss, self.cwnd * p.beta)
            self.ssthresh = self.cwnd
            self.in_slow_start = False
        self._open_window()


class TcpRegistry:
    """Routes network feedback to connections by ``conn_id``.

    Point the sink's ``on_delivery`` at :meth:`handle_delivery` and
    the scheduler/NIC drop hook at :meth:`handle_drop`. Loss signals
    are delayed by half the connection's RTT estimate (the time a real
    sender needs to detect the loss via dup-acks).
    """

    def __init__(self, sim):
        self.sim = sim
        self._connections: Dict[int, AimdConnection] = {}
        self._next_id = 0

    def new_id(self) -> int:
        conn_id = self._next_id
        self._next_id += 1
        return conn_id

    def register(self, conn: AimdConnection) -> None:
        self._connections[conn.conn_id] = conn

    def get(self, conn_id: int) -> Optional[AimdConnection]:
        return self._connections.get(conn_id)

    def __len__(self) -> int:
        return len(self._connections)

    def handle_delivery(self, packet: Packet) -> None:
        conn = self._connections.get(packet.conn_id)
        if conn is None:
            return
        # Ack returns after the reverse path (half an RTT).
        self.sim.schedule(conn.srtt / 2.0, conn.on_delivered, packet)

    def handle_drop(self, packet: Packet) -> None:
        conn = self._connections.get(packet.conn_id)
        if conn is None:
            return
        self.sim.schedule(conn.srtt / 2.0, conn.on_dropped, packet)

"""The packet buffer pool and its manager core.

Paper §III-B: "a manager core (other than worker cores) collects freed
buffers and re-links them to the buffer lists for new incoming
packets." Arrivals that find the free list empty are dropped in
hardware. The model keeps a free-buffer count; frees return to the
list only after the manager core's recycle delay, so a burst can
transiently exhaust the pool even when long-run demand fits.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..errors import BufferExhausted, CapacityError

__all__ = ["BufferPool"]


class BufferPool:
    """Counted packet buffers with delayed recycling.

    Two release routes coexist:

    * :meth:`release` — schedules a ``_relink`` simulator event after
      the recycle delay (one kernel event per free). The observable
      route: the free count advances with the clock even when nobody
      looks.
    * :meth:`release_at` — the *lazy* fast-path route: the relink time
      goes on a heap and matured entries are folded into the free
      count the next time anything observes it (``try_allocate`` or
      the ``free`` property). ``_free`` is only ever read at those
      observation points, so deferring the bookkeeping to them is
      exactly equivalent — same allocation outcomes, same ``min_free``
      (the free count only falls at allocations, so sampling the
      low-water mark there loses nothing) — with zero kernel events.
    """

    def __init__(self, sim, count: int, recycle_delay: float = 2e-6):
        if count <= 0:
            raise CapacityError(f"buffer count must be positive, got {count}")
        self.sim = sim
        self.count = count
        self.recycle_delay = recycle_delay
        self._free = count
        self._outstanding = 0
        #: Heap of pending lazy relink times (release_at route).
        self._pending: list = []
        #: Arrivals dropped for lack of a free buffer.
        self.exhaustion_drops = 0
        #: Low-water mark of the free list (diagnostic).
        self.min_free = count

    @property
    def free(self) -> int:
        """Buffers currently on the free list."""
        if self._pending:
            self._drain_pending(self.sim._now)
        return self._free

    def _drain_pending(self, now: float) -> None:
        pending = self._pending
        free = self._free
        while pending and pending[0] <= now:
            heappop(pending)
            free += 1
        if free > self.count:
            raise BufferExhausted("buffer pool over-released")
        self._free = free

    @property
    def outstanding(self) -> int:
        """Buffers held by in-flight packets (excludes recycling)."""
        return self._outstanding

    def try_allocate(self) -> bool:
        """Take one buffer; False (counted) when the list is empty."""
        if self._pending:
            self._drain_pending(self.sim._now)
        if self._free == 0:
            self.exhaustion_drops += 1
            return False
        self._free -= 1
        self._outstanding += 1
        if self._free < self.min_free:
            self.min_free = self._free
        return True

    def try_allocate_asof(self, time: float) -> bool:
        """:meth:`try_allocate` as it would have decided at *time*.

        The train-ingress route runs admission inside a DMA-completion
        callback (wall clock = emission + DMA latency), but the
        per-packet reference decides at the emission instant. Draining
        only relinks matured by *time* reproduces that decision
        exactly: any ``release_at`` recorded after *time* has a finish
        time past *time*, so its relink (finish + recycle delay)
        could not have matured by *time* either way.
        """
        if self._pending:
            self._drain_pending(time)
        if self._free == 0:
            self.exhaustion_drops += 1
            return False
        self._free -= 1
        self._outstanding += 1
        if self._free < self.min_free:
            self.min_free = self._free
        return True

    def replay_asof(self, times, now: float):
        """Read-only :meth:`try_allocate_asof` at each of *times*.

        *times* ascend and none exceeds *now*. Returns ``(free,
        min_free, drops)``: :attr:`free` at *now*, :attr:`min_free` and
        the count of exhaustion drops those allocations would produce,
        as if they had been decided already. The pool is not touched:
        observers use this to read train admissions that are past
        their instant but not yet executed.
        """
        free = self._free
        min_free = self.min_free
        drops = 0
        relinks = sorted(t for t in self._pending if t <= now)
        j = 0
        for time in times:
            while j < len(relinks) and relinks[j] <= time:
                j += 1
                free += 1
            if free == 0:
                drops += 1
            else:
                free -= 1
                if free < min_free:
                    min_free = free
        return free + len(relinks) - j, min_free, drops

    def release(self) -> None:
        """Free one buffer; it re-enters the list after the manager
        core's recycle delay."""
        if self._outstanding == 0:
            raise BufferExhausted("release without a matching allocation")
        self._outstanding -= 1
        if self.recycle_delay > 0:
            self.sim.schedule(self.recycle_delay, self._relink)
        else:
            self._relink()

    def release_at(self, time: float) -> None:
        """Free one buffer effective at *time* + the recycle delay,
        without a simulator event (see the class docstring)."""
        if self._outstanding == 0:
            raise BufferExhausted("release without a matching allocation")
        self._outstanding -= 1
        heappush(self._pending, time + self.recycle_delay)

    def _relink(self) -> None:
        self._free += 1
        if self._free > self.count:
            raise BufferExhausted("buffer pool over-released")

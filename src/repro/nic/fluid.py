"""The fluid fast-forward lane (DESIGN.md §7).

The batched ingress/egress fast paths still execute one merged worker
wakeup per packet. This lane removes that last kernel event for the
common case: a *quiescent* flow — EMC hit, resolved path, every class
on the path provably skip-only at the packet's walk time, and the
whole worst-case decision inside the run horizon. For such a packet
the entire remaining trajectory of the fast handler
(:meth:`FlowValveNicApp.handle_fast`, elided branch) is determined at
arrival: the merged wakeup time ``t2``, the meter outcome against a
closed-form token balance, and (on red) the borrow walk's bounded
yield chain.

Instead of parking a worker generator on an ``At(t2)`` kernel event,
the lane performs the arrival-side effects immediately (ticket, cache
refresh, early path touch — exactly what the real handler does before
its first yield) and *defers* the rest as micro-steps on a private
heap keyed ``(virtual_time, seq)``, with seqs drawn from the kernel
queue's shared counter at the same moments the real path would create
its resume events. Deferred steps are **flushed** — applied at their
original virtual times, in kernel order — before anything can observe
the affected state: at every later NIC arrival (and at ``submit``/
train-arrival admission, ahead of the buffer-pool read) and at end of
``run()`` via the simulator's end hooks. Completions — head-of-line,
parked reorder runs and drops alike — release through the lane's own
virtual-ring emission (:meth:`FluidLane._emit`), so egress arithmetic,
lazy sink deliveries and buffer returns all use the packet's true
completion time.

Absorption runs in one of two modes. In **mixed** mode — whenever a
real worker may still be mid-packet (cold caches, an update-due spill
draining) — eligible packets are still absorbed, but each deferred
step is pushed as an ordinary kernel event at its exact virtual time,
so it interleaves with in-flight worker resumes by (time, seq) just
as the real wakeup would (one event per packet — still cheaper than a
generator resume, and crucially it keeps real workers parked). Once
every worker is parked and the dispatch queue is empty, the lane
**engages**: steps go to the private heap and cost zero kernel
events. A packet that fails eligibility *suspends* an engaged lane —
pending micro-steps are materialised as kernel events (ascending push
order preserves their relative order) — and takes the real path: a
parked worker picks it up synchronously, exactly as ``_arrive_fast``
would. The lane re-engages a few arrivals later, as soon as that
worker parks again; materialised steps may still be pending then,
which is safe because their kernel events flush matured private steps
before running.

Bit-identity argument: eligibility is judged with exactly the state
the real handler's elide branch would read at the same instant (the
elide conditions are already robust to concurrent workers — a trylock
on a non-due class cannot be won, and ``last_update`` only grows), so
the lane absorbs precisely the packets whose real trajectory is
determined at arrival. Each handler then replicates the corresponding
slice of the elided fast handler with the same float expressions (via
the app's cycle memo) at the same virtual timestamps: in mixed mode
the kernel orders the steps; while engaged, flush-before-observation
keeps shared state (tree flags, buckets, EMC, reorder tickets, TM/
link, buffer pool) coherent with what the real interleaving would
have produced. The only divergence window is an exact floating-point
time tie between a deferred step and an unrelated kernel event after
a suspend re-keys seqs — measure-zero under the jittered/offset
workloads this repo runs (see DESIGN.md §7).
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush

from ..errors import BufferExhausted
from ..net.boundary import BoundaryOutbox
from ..net.packet import DropReason, Packet
from ..units import ETH_OVERHEAD

__all__ = ["FluidLane"]


class _FluidJob:
    """In-flight per-packet state between deferred micro-steps."""

    __slots__ = ("packet", "ticket", "path", "size_bits", "lenders", "idx", "won")

    def __init__(self, packet, ticket: int, path: list, lenders: list | None):
        self.packet = packet
        self.ticket = ticket
        self.path = path
        self.size_bits = 0.0
        #: Flattened lender leaves (shared cached list), or None.
        self.lenders = lenders
        #: Cursor into ``lenders`` during the borrow walk.
        self.idx = 0
        #: Whether the current lender's update trylock was won.
        self.won = False


class FluidLane:
    """Analytic fast-forward of quiescent-flow packets (one per-packet
    kernel event → zero). Constructed by :class:`NicPipeline` only when
    the full fast path is on, the app's fast handler is FlowValve's
    trylock handler, deliveries are lazy and no drop hook is attached.
    """

    def __init__(self, pipeline):
        self._pipeline = pipeline
        sim = pipeline.sim
        self._sim = sim
        self._queue = sim._queue
        app = pipeline.app
        self._labeler = app.labeler
        self._scheduler = app.scheduler
        self._cycles = app._cycles
        self._costs = pipeline.config.costs
        self._params = app.scheduler.params
        # Constant cycle->seconds conversions of the fast handler's
        # fixed cost terms, folded out of the per-packet path. Each is
        # the exact float the app's cycle memo returns for the same
        # argument, so the arithmetic below stays bit-identical.
        cyc = app._cycles
        costs = pipeline.config.costs
        self._c_label = cyc(costs.fixed_overhead)
        self._c_emc = cyc(costs.emc_hit)
        self._c_meter = cyc(costs.meter)
        self._c_borrow_lost = cyc(costs.borrow_query)
        self._c_borrow_won = cyc(costs.borrow_query + costs.update_body)
        #: n_nodes -> cyc(n * (sched_per_class + update_trylock)).
        self._c_walk: dict = {}
        self._dispatch = pipeline.dispatch
        self._reorder = pipeline.reorder
        self._tm = pipeline.traffic_manager
        self._overhead_bytes = app.scheduler.params.overhead_bytes
        self._continuous_refill = self._params.continuous_refill
        # Egress-chain bindings for the inlined forward epilogue (the
        # construction guard pins this exact chain: virtual Tx ring,
        # lazy sink deliveries, lazy buffer returns, no tracing).
        self._buffers = pipeline.buffers
        self._tx_ring = pipeline.tx_ring
        self._link = pipeline.link
        self._sink = pipeline.link._lazy_sink
        #: True when the lazy sink is a cross-shard BoundaryOutbox
        #: (DESIGN.md §11): deliveries become WireRecord appends at the
        #: exact virtual arrival time instead of PacketSink pendings.
        #: The sink's class never changes after construction, so this
        #: is resolved once. Never cache ``.records`` itself — barrier
        #: drains rebind it.
        self._boundary = self._sink.__class__ is BoundaryOutbox
        self._rate_bps = pipeline.link.rate_bps
        self._prop_delay = pipeline.link.propagation_delay
        self._n_workers = pipeline.config.n_workers
        #: Deferred steps may mature past a window-barrier ``run()``
        #: pause up to this absolute time (see Simulator.carry_horizon;
        #: the topology builder sets it to the spec duration before the
        #: pipeline is constructed).
        self._carry = sim.carry_horizon
        #: cyc(emc_hit + classify_per_rule * max(1, n_rules)) — the
        #: miss-path labeling cost; resolved lazily (rule count is
        #: fixed after policy install).
        self._c_miss = None
        #: Deferred micro-steps: ``(virtual_time, seq, fn, job)`` heap.
        self._micro: list = []
        #: Engaged: absorbing eligible packets, deferring to the heap.
        #: Starts False — workers must be parked before first engage.
        self._active = False
        #: In-flight fluid jobs; each stands for one busy worker.
        self._live = 0
        #: Micro-steps materialised as kernel events, not yet executed.
        self._materialized = 0
        #: Borrow tuple -> flattened lender-leaf list.
        self._lender_cache: dict = {}
        #: Borrow tuple -> worst-case borrow-walk duration bound.
        self._lender_bound: dict = {}
        #: hierarchy tuple -> (path, [(node, interval, expire), ...]):
        #: the per-class params of the quiescence test, prefetched once
        #: (SchedulingParams never change after tree construction). The
        #: stored path is identity-checked against the scheduler's
        #: path cache on every hit, so a cache rebuild invalidates it.
        self._path_meta: dict = {}
        # --- statistics -------------------------------------------------
        #: Packets absorbed by the lane (no worker wakeup).
        self.absorbed = 0
        #: Of those, EMC misses absorbed via the analytic classify
        #: replay.
        self.miss_absorbed = 0
        #: Packets that failed eligibility and took the real path.
        self.spills = 0
        #: Suspends that actually materialised pending steps.
        self.suspends = 0
        # Pending micro-steps own no kernel event: report their last
        # virtual time so open-ended runs still end at the right clock,
        # and flush them once the final clock is settled.
        sim.add_drain_hook(self._pending_time)
        sim.add_end_hook(self._end_flush)

    # ------------------------------------------------------------------
    # arrival entry (installed as the pipeline's ``_arrive_dma``)
    # ------------------------------------------------------------------
    def arrival(self, packet) -> None:
        now = self._sim._now
        micro = self._micro
        if micro and micro[0][0] <= now:
            self._flush(now)
        if not self._active:
            # Engage the private heap once no real worker is mid-packet
            # (materialised fluid steps may still be pending — their
            # kernel events flush the heap before running, so the two
            # lanes stay mutually ordered). Until then the lane runs in
            # *mixed* mode: packets are still absorbed, but every
            # deferred step is a kernel event at its exact time, which
            # interleaves correctly with in-flight worker resumes.
            dispatch = self._dispatch
            if not dispatch._items and len(dispatch._getters) == self._n_workers:
                self._active = True
        if not self._try_fluid(packet, now):
            self._spill(packet)

    def train_arrival(self, rec, i: int) -> None:
        """Run-item callback for train ingress with the lane on: the
        pipeline's ``_train_arrival`` + :meth:`arrival` in one frame.
        Two per-packet callees stay inlined because calling them out
        measured >=1% of hotpath wall each (DESIGN.md §7): the
        ``PacketFactory`` mint and the buffer admission."""
        now = self._sim._now
        micro = self._micro
        if micro and micro[0][0] <= now:
            # Matured fluid buffer returns must land in the pool before
            # the admission below reads it.
            self._flush(now)
        pipeline = self._pipeline
        rec.done += 1
        if rec.done == rec.n:
            pipeline._trains.remove(rec)
        pipeline._submitted += 1
        t_emit = rec.times[i]
        factory = rec.factory
        if factory is not None:  # inlined PacketFactory.make
            seq = factory._next_seq
            factory._next_seq = seq + 1
            factory.created += 1
            packet = Packet(seq, rec.sizes[i], rec.flows[i], t_emit, rec.app, rec.vf_index)
        else:
            packet = rec.make(
                rec.sizes[i], rec.flows[i], t_emit, app=rec.app, vf_index=rec.vf_index
            )
        packet.nic_arrival = t_emit
        # Inlined BufferPool.try_allocate_asof(t_emit).
        buffers = self._buffers
        pending = buffers._pending
        if pending and pending[0] <= t_emit:
            free = buffers._free
            while pending and pending[0] <= t_emit:
                _heappop(pending)
                free += 1
            if free > buffers.count:
                raise BufferExhausted("buffer pool over-released")
            buffers._free = free
        free = buffers._free - 1
        if free >= 0:
            buffers._free = free
            buffers._outstanding += 1
            if free < buffers.min_free:
                buffers.min_free = free
        else:
            buffers.exhaustion_drops += 1
            # Same decision the per-packet route takes at t_emit, but
            # recorded at arrival (t_emit + DMA latency), see DESIGN.md §7.
            pipeline._drop(packet, DropReason.NO_BUFFER, release_buffer=False)
            return
        if not self._active:
            dispatch = self._dispatch
            if not dispatch._items and len(dispatch._getters) == self._n_workers:
                self._active = True
        if not self._try_fluid(packet, now):
            self._spill(packet)

    def _spill(self, packet) -> None:
        """An ineligible packet: leave engaged mode (materialising any
        pending steps) and take the real worker path."""
        if self._active:
            self._suspend()
        self.spills += 1
        self._route_real(packet)

    def _route_real(self, packet) -> None:
        """Hand a packet to the real worker path, mirroring what the
        per-packet fast arrival would have done at this instant *in the
        real execution* — where ``_live`` workers are busy with the
        lane's in-flight jobs."""
        dispatch = self._dispatch
        if len(dispatch._getters) > self._live:
            # A conceptual worker is free: synchronous handoff, exactly
            # like ``NicPipeline._arrive_fast``.
            if not dispatch.try_put_now(packet):
                self._pipeline._drop(packet, DropReason.QUEUE_FULL)
            return
        # Every conceptual worker is busy (parked peers stand in for
        # in-flight fluid jobs): queue exactly as try_put would with no
        # getter free; the first finishing job hands it over
        # (:meth:`_job_done`) at its completion time — the same moment
        # the real worker's ``try_get`` would have picked it up.
        if dispatch.capacity > 0 and len(dispatch._items) >= dispatch.capacity:
            self._pipeline._drop(packet, DropReason.QUEUE_FULL)
            return
        dispatch._items.append(packet)
        dispatch.total_put += 1

    # ------------------------------------------------------------------
    # eligibility + arrival-side effects
    # ------------------------------------------------------------------
    def _try_fluid(self, packet, now: float) -> bool:
        """Absorb *packet* if its whole decision is determined; returns
        False (no state touched) when it must take the real path.

        The read-only checks mirror the elided branch of
        ``handle_fast`` term for term; the mutations replicate the
        worker's pre-yield effects (ticket, EMC hit bookkeeping, label
        stamp, early path touch, skip counting) with the same float
        expressions.
        """
        dispatch = self._dispatch
        if dispatch._items or len(dispatch._getters) <= self._live:
            # No conceptual worker free (parked peers stand in for the
            # lane's in-flight jobs; in mixed mode the rest are busy
            # with real packets): the real execution would queue this
            # packet behind the dispatch backlog.
            return False
        cache = self._labeler.cache
        if cache is None:
            return False
        entries = cache._entries
        key = (packet.flow, packet.vf_index)
        entry = entries.get(key)
        if entry is None:
            # EMC miss: replay the classifier walk analytically.
            return self._try_fluid_miss(packet, now, key, None)
        # Label time: arrival + fixed overhead (handle_fast's ``t``).
        t = now + self._c_label
        label, stored_at = entry
        timeout = cache.idle_timeout
        if timeout and (t - stored_at) > timeout:
            # Idle-expired: the real get() would miss — same replay.
            return self._try_fluid_miss(packet, now, key, entry)
        path = self._scheduler.path_cache.entries.get(label.hierarchy)
        if path is None:
            return False
        if not self._absorb(packet, label, path, t + self._c_emc):
            return False
        if timeout:
            entry[1] = t  # get()'s idle refresh, in place
        entries.move_to_end(key)
        cache.hits += 1
        # Inlined label.apply_to(packet): ~1.1% of hotpath wall as a call.
        packet.hierarchy_label = label.hierarchy
        packet.borrow_label = label.borrow
        return True

    def _try_fluid_miss(self, packet, now: float, key, expired) -> bool:
        """Absorb an EMC-miss packet with one classification walk.

        *expired* is the idle-expired cache entry under *key*, or None
        when the key is absent. The walk (``Classifier.resolve``) and
        the gate are side-effect-free. On commit the lane performs what
        ``LabelingFunction.label`` does on a miss — cache get-miss (or
        idle expiry) bookkeeping, the classifier's ``lookups``/
        ``misses`` counters, cache insert with its eviction/expiry
        decision, label stamp — then the path memoisation, early touch
        and skip counts, all at the fast handler's virtual timestamps,
        so outcomes are bit-identical to the per-packet path; only the
        kernel-event count differs. Caller guarantees the dispatch gate
        and a non-None cache.
        """
        labeler = self._labeler
        classifier = labeler.classifier
        leaf_id = classifier.resolve(packet)
        matched = leaf_id is not None
        if not matched:
            leaf_id = labeler.default_leaf
            if leaf_id is None:
                return False  # unclassified drop: slow path handles it
        label = labeler._labels.get(leaf_id)
        if label is None:
            return False  # UnknownClassError: let the real path raise
        t = now + self._c_label
        c_miss = self._c_miss
        if c_miss is None:
            costs = self._costs
            c_miss = self._c_miss = self._cycles(
                costs.emc_hit + costs.classify_per_rule * max(1, len(classifier))
            )
        scheduler = self._scheduler
        hierarchy = label.hierarchy
        path = scheduler.path_cache.entries.get(hierarchy)
        resolved = path is not None
        if path is None:
            # Pure resolve for the quiescence probe; the commit below
            # memoises through the real PathCache (counter included).
            tree = scheduler.tree
            path = [tree.node(classid) for classid in hierarchy]
        if not self._absorb(packet, label, path, t + c_miss):
            return False
        # Commit LabelingFunction.label's miss at the label timestamp.
        cache = labeler.cache
        if expired is not None:  # ExactMatchCache.get's idle expiry
            del cache._entries[key]
            cache.expirations += 1
        cache.misses += 1
        classifier.lookups += 1
        if not matched:
            classifier.misses += 1
        cache.put(key, label, t)
        packet.hierarchy_label = label.hierarchy
        packet.borrow_label = label.borrow
        if not resolved:
            scheduler.path_cache.resolve(scheduler.tree, hierarchy)
        self.miss_absorbed += 1
        return True

    def _absorb(self, packet, label, path: list, t_walk: float) -> bool:
        """The gate and absorb tail shared by the EMC hit and miss paths.

        Gate (read-only): every class on *path* quiescent at the walk
        time *t_walk*, and the whole worst-case decision inside the run
        horizon. On a pass, performs the worker's pre-yield effects
        that do not depend on how the label was found — reorder ticket,
        early path touch, skip counting — and defers the meter step.
        The caller then applies its own label bookkeeping; none of it
        reads or writes what this tail touches, so the split order is
        behaviour-neutral.
        """
        hierarchy = label.hierarchy
        meta = self._path_meta.get(hierarchy)
        if meta is None or meta[0] is not path:
            meta = self._path_meta[hierarchy] = (
                path,
                [(n, n.params.update_interval, n.params.expire_after) for n in path],
            )
        # Inlined ClassNode.is_quiescent_at — three conditions per
        # class, checked in the fast handler's short-circuit order.
        for node, interval, expire in meta[1]:
            if node.updating:
                return False
            if t_walk - node.last_update >= interval:
                return False
            if t_walk - node.last_seen > expire:
                return False
        n_nodes = len(path)
        walk = self._c_walk
        c_walk = walk.get(n_nodes)
        if c_walk is None:
            costs = self._costs
            c_walk = walk[n_nodes] = self._cycles(
                n_nodes * (costs.sched_per_class + costs.update_trylock)
            )
        t2 = t_walk + c_walk
        t2 += self._c_meter
        horizon = self._sim._horizon
        if self._carry > horizon:
            horizon = self._carry  # window barrier: a pause, not an end
        if t2 > horizon:
            return False  # handle_fast would keep the slow wakeups
        lenders = None
        if self._params.borrow_enabled and label.borrow:
            lenders = self._lenders(label.borrow)
            if lenders and t2 + self._lender_bound[label.borrow] > horizon:
                # Worst case every lender wins its update trylock. The
                # precomputed bound over-approximates the real chain's
                # rounded step-by-step adds (see _lenders), so it can
                # only spill a borderline packet to the real path —
                # behavior-neutral by construction — never absorb one
                # whose chain would outrun the horizon.
                return False
        # --- absorbed: the worker's pre-yield effects -----------------
        reorder = self._reorder
        ticket = reorder.take_ticket() if reorder is not None else -1
        for node in path:  # inlined Scheduler.touch_path
            if t_walk > node.last_seen:
                node.last_seen = t_walk
        self._scheduler.stats.updates_skipped += n_nodes
        job = _FluidJob(packet, ticket, path, lenders)
        self._live += 1
        self.absorbed += 1
        # Inlined _defer: one call per absorbed packet measured ~1.5%
        # of hotpath wall (DESIGN.md §7).
        if self._active:
            _heappush(
                self._micro, (t2, next(self._queue._counter), self._meter_step, job)
            )
        else:
            self._materialized += 1
            self._queue.push(t2, self._run_mat, (self._meter_step, job))
        return True

    def _lenders(self, borrow) -> list:
        """The flattened lender-leaf walk of a borrow label, memoised
        (the tree never changes shape after construction), along with
        an upper bound on the walk's worst-case duration: the real
        chain adds ``cycles(bq+update)`` once per lender with a float
        rounding per add, so ``L*step`` scaled by a generous relative
        margin (adds lose at most one ulp each) always dominates it."""
        lenders = self._lender_cache.get(borrow)
        if lenders is None:
            tree = self._scheduler.tree
            lenders = []
            for lender_id in borrow:
                lenders.extend(tree.node(lender_id).leaf_descendants())
            self._lender_cache[borrow] = lenders
            self._lender_bound[borrow] = (
                len(lenders) * self._c_borrow_won * (1.0 + 1e-9)
            )
        return lenders

    # ------------------------------------------------------------------
    # the deferred micro-queue
    # ------------------------------------------------------------------
    def _defer(self, t: float, fn, job) -> None:
        # Seqs come from the kernel counter at the same moment the real
        # path would create its resume event, so (time, seq) ordering —
        # including exact ties — matches the real interleaving.
        if self._active:
            _heappush(self._micro, (t, next(self._queue._counter), fn, job))
        else:
            self._materialized += 1
            self._queue.push(t, self._run_mat, (fn, job))

    def _run_mat(self, fn, job) -> None:
        """A materialised micro-step executing as a kernel event (the
        wall clock IS the step's virtual time here). If the lane has
        engaged since this step was pushed, matured private steps are
        flushed first so the two lanes stay in (time, seq) order."""
        self._materialized -= 1
        now = self._sim._now
        micro = self._micro
        if micro and micro[0][0] <= now:
            self._flush(now)
        fn(now, job)

    def _flush(self, limit: float) -> None:
        """Apply every deferred step with virtual time <= *limit*, in
        (time, seq) order. Handlers may defer follow-up steps; the heap
        keeps the combined order."""
        micro = self._micro
        while micro and micro[0][0] <= limit:
            tv, _, fn, job = _heappop(micro)
            fn(tv, job)

    def _suspend(self) -> None:
        """Leave engaged mode: pending steps become kernel events at
        their virtual times (all strictly in the future — matured steps
        were flushed first), pushed in ascending order so their
        relative order is preserved."""
        self._active = False
        micro = self._micro
        if not micro:
            return
        self.suspends += 1
        push = self._queue.push
        run_mat = self._run_mat
        n = 0
        while micro:
            tv, _, fn, job = _heappop(micro)
            push(tv, run_mat, (fn, job))
            n += 1
        self._materialized += n

    def _pending_time(self) -> float | None:
        micro = self._micro
        if not micro:
            return None
        return max(item[0] for item in micro)

    def _end_flush(self) -> None:
        if self._micro:
            self._flush(self._sim._now)

    # ------------------------------------------------------------------
    # micro-step handlers (``tv`` is the step's virtual wall time)
    # ------------------------------------------------------------------
    def _meter_step(self, tv: float, job: _FluidJob) -> None:
        """The merged wakeup at ``t2``: leaf meter, then verdict or the
        borrow walk (handle_fast's post-yield body). The leaf bucket's
        refill + meter are inlined with TokenBucket's exact float
        expressions."""
        leaf = job.path[-1]
        bucket = leaf.bucket
        # Inlined params.packet_bits — same expression, same float.
        size_bits = (job.packet.size + self._overhead_bytes) * 8.0
        job.size_bits = size_bits
        tokens = bucket.tokens
        if self._continuous_refill:  # inlined bucket.refill(tv)
            dt = tv - bucket.last_refill
            if dt > 0:
                tokens = min(bucket.capacity, tokens + bucket.rate_bps * dt)
                bucket.tokens = tokens
                bucket.last_refill = tv
        if tokens >= size_bits:  # inlined bucket.meter(size_bits)
            bucket.tokens = tokens - size_bits
            bucket.greens += 1
            self._finish_forward(tv, job, None)
            return
        bucket.reds += 1
        if job.lenders:
            self._borrow_try(tv, job)
            return
        self._finish_drop(tv, job)

    def _borrow_try(self, tv: float, job: _FluidJob) -> None:
        """Probe the current lender's update trylock at ``tv`` (the
        flag-hold window starts here, exactly as in the real walk) and
        defer the post-yield settle. The trylock gate is inlined
        (ClassNode.try_begin_update) — this runs once per red packet
        per lender probed."""
        lender = job.lenders[job.idx]
        if lender.updating or tv - lender.last_update < lender.params.update_interval:
            job.won = False
            t = tv + self._c_borrow_lost
        else:
            lender.updating = True
            job.won = True
            t = tv + self._c_borrow_won
        self._defer(t, self._borrow_settle, job)

    def _borrow_settle(self, tv: float, job: _FluidJob) -> None:
        """After the borrow yield: run the won update, query the shadow
        bucket (meter inlined), and either finish or move on."""
        leaf_lender = job.lenders[job.idx]
        size_bits = job.size_bits
        if job.won:
            leaf_lender.perform_update(tv)
            leaf_lender.end_update()
            self._scheduler.stats.updates_run += 1
        shadow = leaf_lender.shadow
        tokens = shadow.tokens
        if tokens >= size_bits:  # inlined shadow.meter(size_bits)
            shadow.tokens = tokens - size_bits
            shadow.greens += 1
            leaf_lender.lent_bits += size_bits
            # scheduler.tracer is None whenever the fast path is on.
            self._finish_forward(tv, job, leaf_lender)
            return
        shadow.reds += 1
        job.idx += 1
        if job.idx < len(job.lenders):
            self._borrow_try(tv, job)
            return
        self._finish_drop(tv, job)

    # ------------------------------------------------------------------
    # completion (the worker's post-handle epilogue)
    # ------------------------------------------------------------------
    def _finish_forward(self, tv: float, job: _FluidJob, borrowed_from) -> None:
        packet = job.packet
        path = job.path
        size_bits = job.size_bits
        # Inlined Scheduler.commit(packet, path, borrowed_from,
        # size_bits=...): Γ observed here (``gamma_mode="forwarded"``),
        # interior buckets drained with consume()'s exact clamp.
        for node in path:
            node.gamma.observe(size_bits)
            node.forwarded_packets += 1
            node.forwarded_bits += size_bits
            if node.children:
                bucket = node.bucket
                rest = bucket.tokens - size_bits
                bucket.tokens = rest if rest > 0.0 else 0.0
        stats = self._scheduler.stats
        stats.forwarded += 1
        if borrowed_from is None:
            stats.forwarded_on_own_tokens += 1
        else:
            stats.forwarded_on_borrowed_tokens += 1
            leaf = path[-1]
            leaf.borrowed_bits += size_bits
            bkey = (leaf.classid, borrowed_from.classid)
            stats.borrow_matrix[bkey] = stats.borrow_matrix.get(bkey, 0) + 1
        stats.decisions += 1
        reorder = self._reorder
        if reorder is None:
            self._emit(tv, packet)
        elif job.ticket == reorder._next_release and not reorder._pending:
            # Head-of-line with nothing parked: complete() would only
            # bump the cursor and emit.
            reorder._next_release = job.ticket + 1
            self._emit(tv, packet)
        else:
            self._release(tv, job.ticket, packet)
        self._job_done()

    def _finish_drop(self, tv: float, job: _FluidJob) -> None:
        stats = self._scheduler.stats
        stats.dropped += 1
        stats.decisions += 1
        packet = job.packet
        packet.dropped = True  # inlined mark_dropped(SCHED_RED)
        packet.drop_reason = DropReason.SCHED_RED
        reorder = self._reorder
        if reorder is not None:
            if job.ticket == reorder._next_release and not reorder._pending:
                reorder._next_release = job.ticket + 1
            else:
                # Frees the ticket; a parked run behind it goes out.
                self._release(tv, job.ticket, None)
        # Inlined NicPipeline._drop (no tracer, no drop counters, no
        # on_drop under the fluid construction guard): count the
        # discard and return the buffer lazily at the drop's virtual
        # time.
        pipeline = self._pipeline
        pipeline.dropped += 1
        pipeline.drops_by_reason[DropReason.SCHED_RED] += 1
        buffers = self._buffers
        buffers._outstanding -= 1
        _heappush(buffers._pending, tv + buffers.recycle_delay)
        self._job_done()

    def _release(self, tv: float, ticket: int, packet) -> None:
        """``ReorderBuffer.complete`` at virtual time *tv* for a
        completion that is not a plain head-of-line one: park it, or
        release it together with the parked run behind it. *packet*
        None is a drop that only frees its ticket. The released run
        goes out frame by frame through :meth:`_emit`, which is what
        ``TrafficManager.offer_burst`` computes for the same burst."""
        reorder = self._reorder
        pending = reorder._pending
        if ticket != reorder._next_release:
            pending[ticket] = packet
            if len(pending) > reorder.max_parked:
                reorder.max_parked = len(pending)
            return
        ticket += 1
        sent = packet is not None and self._emit(tv, packet)
        while ticket in pending:
            released = pending.pop(ticket)
            ticket += 1
            if released is not None and self._emit(tv, released):
                sent = True
        reorder._next_release = ticket
        if sent and not self._boundary:
            # A released run arms the sink's idle periodic fold, as its
            # burst route (Link.send_batch -> receive_later) does; the
            # committed event counts include those fold events.
            sink = self._sink
            if sink._fold_interval is not None and not sink._fold_armed:
                sink._arm_fold()

    def _emit(self, tv: float, packet) -> bool:
        """Egress of one released frame at virtual time *tv*: the whole
        chain ``_emit_to_tx_fast -> TrafficManager.offer -> Link.send
        -> lazy sink delivery + lazy buffer return``, with the
        pipeline's QUEUE_FULL drop on a full Tx ring. The construction
        guard pins exactly this chain (virtual Tx ring, lazy sink or
        boundary outbox, lazy buffer returns, no tracer, no on_drop).
        Returns False when the frame was dropped."""
        pipeline = self._pipeline
        ring = self._tx_ring
        starts = ring._starts
        while starts and starts[0] <= tv:  # TxRing.virtual_accept
            starts.popleft()
        buffers = self._buffers
        if len(starts) >= ring.depth:
            ring.tail_drops += 1
            packet.dropped = True
            packet.drop_reason = DropReason.QUEUE_FULL
            pipeline.dropped += 1
            pipeline.drops_by_reason[DropReason.QUEUE_FULL] += 1
            buffers._outstanding -= 1
            _heappush(buffers._pending, tv + buffers.recycle_delay)
            return False
        self._tm._frames_out += 1
        link = self._link
        prior = link._busy_until  # Link.send(packet, now=tv)
        start = prior if prior > tv else tv
        finish = start + (packet.size + ETH_OVERHEAD) * 8.0 / self._rate_bps
        link._busy_until = finish
        packet.tx_start = start
        link.frames_sent += 1
        link.bytes_sent += packet.size
        sink = self._sink
        if self._boundary:
            # Cross-shard wire: inlined BoundaryOutbox.receive_later —
            # one WireRecord at the virtual arrival instant, identical
            # to what the real lazy route would have recorded.
            sink.records.append((
                finish + self._prop_delay, packet.seq, packet.size,
                packet.created_at, packet.app, packet.vf_index,
            ))
        elif sink._drain_hook_registered:
            sink._pending.append((finish + self._prop_delay, packet))
        else:  # first delivery registers the drain hook
            sink.receive_later(finish + self._prop_delay, packet)
        if prior > tv:  # TxRing.virtual_push(prior)
            starts.append(prior)
            occ = len(starts)
            if occ > ring.max_occupancy:
                ring.max_occupancy = occ
        # _on_sent_at: lazy buffer return at serialisation end.
        buffers._outstanding -= 1
        _heappush(buffers._pending, finish + buffers.recycle_delay)
        pipeline.forwarded += 1
        return True

    def _job_done(self) -> None:
        self._live -= 1
        dispatch = self._dispatch
        if dispatch._items and dispatch._getters:
            self._job_handoff(dispatch)

    def _job_handoff(self, dispatch) -> None:
        """Hand a queued packet to a parked peer when a job completes.

        Only reachable in materialised mode (engaged mode keeps the
        dispatch queue empty), so the wall clock equals the finished
        job's completion time: the handoff runs exactly when the freed
        worker's ``try_get`` would."""
        item = dispatch._items.popleft()
        dispatch.total_got += 1
        dispatch._admit_waiting_putter()
        getter = dispatch._getters.popleft()
        getter.succeed_now(item)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Fluid jobs between absorption and completion."""
        return self._live

    @property
    def engaged(self) -> bool:
        """True while the lane is absorbing eligible packets."""
        return self._active

"""Discrete-event simulation of the single-port full-overlap model.

This module executes a tree platform running the paper's event-driven
schedules (Section 6.2) — or any other routing controller — and records a
full :class:`~repro.sim.tracing.Trace`.

Model (Section 3), enforced exactly:

* a node *overlaps* receiving, computing and sending;
* the **send port** transmits to at most one child at a time,
  non-interruptibly, taking ``c`` time units per task;
* the **receive port** handles one incoming transfer at a time — automatic
  in a tree, since the unique parent sends sequentially;
* computing one task takes ``w`` time units.

Scheduling semantics:

* **non-root nodes are clock-free** (Section 6.2): the j-th task a node ever
  receives is routed by its bunch order (``order[j mod Ψ]``) the moment it
  arrives — to the local compute queue, or to the FIFO send queue drained by
  the send port;
* **the root is the only clocked node**: it owns the task supply and
  releases the designations of each bunch evenly spaced over its consumption
  period ``T^w`` (``Ψ`` releases per period).  Pacing is required — a
  work-conserving root would exceed its steady-state rates and flood its
  children — and even spacing implements the paper's "disseminate the tasks
  along the period";
* the root stops releasing when its *supply* runs out or the *horizon* is
  reached; the simulation then drains — the **wind-down** phase.

The ``compute_during_startup`` flag selects between the paper's start-up
strategy (Section 7: every node applies its event-driven schedule from the
beginning, computing immediately) and the traditional baseline (a node
computes nothing until it has buffered its steady-state task count χ_in).

One production kernel, one reference.  :class:`Simulation` is the kernel
everything runs — and is benchmarked — on:

* **time is integer ticks** over one global denominator
  (:mod:`repro.core.timeline`): every duration is normalised once, the
  event queue and all clock arithmetic run on plain Python ints, and
  ``Fraction`` views are materialised only at the API boundaries (the
  trace when it is *read*, ``engine.now``, telemetry).  A value with an
  incommensurate denominator appearing mid-run (an injected control
  latency, a link-degradation factor) grows the scale in place;
* **per-node state lives in flat parallel arrays** indexed by a dense
  node id (:func:`~repro.core.timeline.dense_index`), from the constructor
  on: ``bytearray`` flags (dead/computing/sending/receiving/overlap),
  plain-int lists (compute queue depth, arrival/buffer counters,
  compute/transfer durations in ticks) and send queues of dense child ids;
* **the event loop is the bucketed** :class:`~repro.sim.engine.ArrayEngine`
  — same-tick events drain in one batch, and the hot events are scheduled
  as ``(handler, small_arg)`` pairs: no Timer, no closure, no per-event
  allocation beyond one tuple;
* **routing is precompiled**: each node's bunch order is translated once
  into a dense-id route table, so the per-task destination lookup is two
  list indexes instead of a dict walk through schedule objects (a custom
  :class:`Controller` transparently takes the generic per-event path).

Lemma 1's periods are lcms of rational rates, so the tick scale has no
bound: the duration tables are plain lists of exact Python ints, loaded
and rescaled by slice assignment so the compiled handlers keep their
identity.

:class:`~repro.sim.reference.ReferenceSimulation` is the independent
``Fraction``-per-event oracle.  The two are **bit-identical** — same
trace, same event order, same rationals, including crashes, rejoin,
reconfiguration and mid-run rescales — property-tested across 25 seeds in
``tests/test_timeline.py``; :data:`KERNELS` names them (``"array"``,
``"fraction"``) for the callers that let a test pick (see
``benchmarks/bench_e27_timeline.py`` and ``docs/perf.md`` for the gap).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from heapq import heappush
from typing import Callable, Hashable, List, Mapping, Optional

from ..core.allocation import Allocation
from ..core.rates import ZERO, is_infinite
from ..core.timeline import dense_index, timeline_for
from ..exceptions import ScheduleError, SimulationError
from ..platform.tree import Tree
from ..schedule.eventdriven import NodeSchedule, build_schedules
from ..schedule.local import interleaved_order
from ..schedule.periods import NodePeriods, global_period, tree_periods
from ..telemetry.core import Registry
from .base import (
    BufferedStartController,
    Controller,
    SimulationBase,
    SimulationResult,
)
from .engine import ArrayEngine
from .reference import ReferenceSimulation
from .tracing import COMPUTE, CTRL, RECV, SEND


class Simulation(SimulationBase):
    """The production simulator: integer ticks, struct-of-arrays state.

    All internal clock arithmetic happens in ticks; ``self._units(value)``
    converts a rational into ticks (growing the timeline's scale when
    needed) and ``self._frac(ticks)`` materialises the exact rational
    view.  Per-node state is a set of parallel arrays indexed by dense
    node id (``self._index[name]``); ``send_queue`` entries are dense
    child ids, not names.  See the module docstring for the layout and
    :class:`~repro.sim.base.SimulationBase` for the parameters.

    *kernel* is accepted only as the checked no-op ``"array"`` (callers
    that name the production kernel explicitly); the ``Fraction`` oracle is
    :class:`~repro.sim.reference.ReferenceSimulation`.
    """

    def __init__(
        self,
        tree: Tree,
        schedules: Mapping[Hashable, NodeSchedule],
        periods: Mapping[Hashable, NodePeriods],
        controller: Optional[Controller] = None,
        horizon: Optional[Fraction] = None,
        supply: Optional[int] = None,
        overlap: Optional[Mapping[Hashable, bool]] = None,
        root_pacing: str = "even",
        record_segments: bool = True,
        record_buffers: bool = True,
        record_events: bool = True,
        max_events: int = 5_000_000,
        telemetry: Optional[Registry] = None,
        kernel: str = "array",
    ):
        if kernel != "array":
            raise SimulationError(
                f"Simulation is the 'array' kernel (got kernel={kernel!r}); "
                "for the Fraction oracle construct ReferenceSimulation, or "
                f"pick a class by name from repro.sim.KERNELS {tuple(KERNELS)}")
        super().__init__(tree, schedules, periods, controller, horizon,
                         supply, overlap, root_pacing, record_segments,
                         record_buffers, record_events, max_events, telemetry)

    def _build_state(self, overlap) -> None:
        tree = self.tree
        self._timeline = timeline_for(tree, self.schedules,
                                      horizon=self.horizon)
        # the engine registers for rescales first: by the time _on_rescale
        # runs, the clock and the queue are already at the new scale
        self.engine = ArrayEngine(self._timeline)
        self._names, self._index = dense_index(tree.nodes())
        # the trace records ticks and dense ids, decoded when it is read
        self.trace.use_ticks(self._timeline, self._names, self._index)
        n = len(self._names)
        self._parent = [-1] * n
        self._dead = bytearray(n)
        self._computing = bytearray(n)
        self._sending = bytearray(n)
        self._receiving = bytearray(n)
        self._overlap = bytearray(
            bool(overlap.get(name, True)) for name in self._names)
        self._w_inf = bytearray(n)
        self._compute_queue = [0] * n
        self._arrivals = [0] * n  # tasks received (or released, for the root)
        self._buffered = [0] * n  # tasks currently held at the node
        self._send_queue = [deque() for _ in range(n)]
        self._w_frac: List = [None] * n
        # exact ticks, updated in place: the compiled handlers close over them
        self._w_ticks: List[int] = [0] * n
        self._cost_ticks: List[int] = [0] * n
        self._routes: List[Optional[list]] = [None] * n
        # one-element / two-element cells: the compiled handlers (see
        # _bind_hot) close over these lists, so a value that moves mid-run
        # is written *into* them.  [fast_routes, default_may_compute]:
        self._route_flags = [True, True]
        self._horizon_units: Optional[int] = None
        #: cached (root schedule, T^w, release offsets) in ticks
        self._grid_cache = None
        self._timeline.on_rescale(self._on_rescale)
        self._platform_changed()
        if self.horizon is not None:
            self._horizon_units = self._units(self.horizon)
        if self.telemetry is not None:
            self.telemetry.gauge("timeline.scale_bits").set(
                self._timeline.scale.bit_length())
        self._bind_hot()

    # ------------------------------------------------------------------
    # scaled-integer plumbing
    # ------------------------------------------------------------------
    def _units(self, value) -> int:
        return self._timeline.ensure(
            value if isinstance(value, Fraction) else Fraction(value))

    def _frac(self, ticks: int) -> Fraction:
        return self._timeline.to_fraction(ticks)

    def _platform_changed(self) -> None:
        """(Re)read everything derived from ``self.tree``: parent ids,
        weights, every known duration in ticks (one joint rescale), the
        root id, and the compiled routes.  Runs at construction, after a
        failover and after a platform swap."""
        tree, index = self.tree, self._index
        n = len(self._names)
        parent = [-1] * n
        finite, edges, durations, costs = [], [], [], []
        for name in tree.nodes():
            i = index[name]
            w = self._w_frac[i] = tree.w(name)
            if is_infinite(w):
                self._w_inf[i] = 1
            else:
                self._w_inf[i] = 0
                finite.append(i)
                durations.append(w)
            p = tree.parent(name)
            if p is not None:
                parent[i] = index[p]
                edges.append(i)
                costs.append(tree.c(name))
        self._parent[:] = parent
        ticks = self._timeline.ensure_all(durations + costs)
        w_ticks, cost_ticks = [0] * n, [0] * n
        for i, t in zip(finite, ticks):
            w_ticks[i] = t
        for i, t in zip(edges, ticks[len(finite):]):
            cost_ticks[i] = t
        self._w_ticks[:] = w_ticks
        self._cost_ticks[:] = cost_ticks
        self._root_idx = index[tree.root]
        self._rebuild_routes()

    def _on_rescale(self, factor: int) -> None:
        """The timeline grew: bring every cached tick value to the new scale.

        (The engine rescaled its clock and queue already — it registered
        first.)  Multiplication by a positive int preserves all orderings,
        so state machines in flight are unaffected."""
        self._w_ticks[:] = [v * factor for v in self._w_ticks]
        self._cost_ticks[:] = [v * factor for v in self._cost_ticks]
        if self._horizon_units is not None:
            self._horizon_units *= factor
        if self._grid_cache is not None:
            schedule, t_w, offsets = self._grid_cache
            self._grid_cache = (schedule, t_w * factor,
                                [o * factor for o in offsets])
        for node, jobs in self._control_jobs.items():
            self._control_jobs[node] = deque(
                (duration * factor, cb) for duration, cb in jobs)
        if self.telemetry is not None:
            self.telemetry.counter("timeline.rescales").inc()
            self.telemetry.gauge("timeline.scale_bits").set(
                self._timeline.scale.bit_length())

    # ------------------------------------------------------------------
    # precompiled routing
    # ------------------------------------------------------------------
    def _rebuild_routes(self) -> None:
        """Translate every node's bunch order into dense ids, validated
        once: an entry is an ``int`` destination id when the per-event
        checks (self-route on a finite-w node, or a genuine child) are
        known to pass, else the raw destination name so the generic path
        raises the routing error lazily at event time."""
        index = self._index
        tree = self.tree
        tree_nodes = set(tree.nodes())
        routes: List[Optional[list]] = [None] * len(self._names)
        for name, schedule in self.schedules.items():
            i = index.get(name)
            order = schedule.order
            if i is None or not order or name not in tree_nodes:
                continue
            children = set(tree.children(name))
            entries: list = []
            for dest in order:
                if dest == name and not self._w_inf[i]:
                    entries.append(i)
                elif dest in children:
                    entries.append(index[dest])
                else:
                    entries.append(dest)
            routes[i] = entries
        # in-place: the compiled hot handlers close over the route list
        # and the flag cell, so both identities must survive a rebuild
        self._routes[:] = routes
        controller = self.controller
        self._route_flags[0] = (
            type(controller).destination is Controller.destination)
        self._route_flags[1] = (
            type(controller).may_compute is Controller.may_compute)

    # ------------------------------------------------------------------
    # root release driver
    # ------------------------------------------------------------------
    def _root_grid(self, schedule: NodeSchedule):
        """``(T^w, release offsets)`` of *schedule* in ticks, cached per
        schedule object (a reconfiguration or failover installs a new one;
        a rescale multiplies the cached ticks)."""
        cached = self._grid_cache
        if cached is not None and cached[0] is schedule:
            return cached[1], cached[2]
        units = self._units
        bunch = schedule.bunch
        if self.root_pacing == "even" and bunch:
            # the even grid is an arithmetic progression: one conversion of
            # the spacing, then plain multiplications (the bunch can be in
            # the thousands on big trees — per-offset Fraction conversion
            # would dominate start-up)
            spacing = units(Fraction(schedule.periods.t_consume) / bunch)
            t_w = spacing * bunch  # exact: T^w == Ψ · (T^w/Ψ)
            offsets = [j * spacing for j in range(bunch)]
        else:
            t_w = units(Fraction(schedule.periods.t_consume))
            offsets = [units(o) for o in self._release_offsets(schedule)]
            # a conversion above may have rescaled: re-read at final scale
            t_w = units(Fraction(schedule.periods.t_consume))
            offsets = [units(o) for o in self._release_offsets(schedule)]
        self._grid_cache = (schedule, t_w, offsets)
        return t_w, offsets

    def _schedule_period(self, k: int, origin: Fraction = ZERO,
                         generation: int = 0) -> None:
        """Lazily schedule the k-th bunch of root releases.

        *origin* anchors the period grid (non-zero after a reconfiguration);
        a stale *generation* means :meth:`reconfigure` retired this chain.
        *origin* is carried as a Fraction across periods — it is converted
        to ticks afresh each call, so a mid-run rescale between two periods
        cannot stale it.
        """
        if generation != self._generation:
            return
        schedule = self._root_schedule()
        # absorb origin's denominator into the scale FIRST: then the final
        # conversion below cannot rescale, so the grid locals stay current
        self._units(origin)
        t_w, offsets = self._root_grid(schedule)
        start = self._units(origin) + k * t_w
        stopped = False
        engine = self.engine
        route = self._routes[self._root_idx]  # None only for an empty order
        for j in range(len(schedule.order)):
            t = start + offsets[j]
            if self._horizon_units is not None and t >= self._horizon_units:
                stopped = True
                break
            if self.supply is not None and self._released >= self.supply:
                stopped = True
                break
            self._released += 1
            d = route[j]
            if type(d) is int:
                engine.defer(t, self._release, (d, generation))
            else:
                engine.defer(t, self._release_slow, (d, generation))
        if stopped:
            # remember when the supply was effectively cut
            if self._stop_time is None:
                self._stop_time = self._frac(t)
        else:
            engine.defer(start + t_w, self._next_period,
                         (k + 1, origin, generation))

    def _next_period(self, arg) -> None:
        self._schedule_period(*arg)

    def _release_slow(self, arg) -> None:
        """Generic release: the destination name goes through the full
        per-event checks of :meth:`_route_by_name`."""
        dest, generation = arg
        if generation != self._generation:
            self._released -= 1  # the retired chain never released this task
            return
        ri = self._root_idx
        self._arrivals[ri] += 1
        self._buffered[ri] += 1
        root = self._names[ri]
        di = self._index.get(dest)
        if di is not None:  # a name the run never had: routing will raise
            now = self.engine._now
            self.trace.add_release(now, di)
            self.trace.add_buffer_delta(now, ri, +1)
        if self.telemetry is not None:
            self.telemetry.counter("sim.tasks_released", node=root).inc()
            self._tel_buffer(root, self._buffered[ri])
        self._route_by_name(ri, dest)

    # ------------------------------------------------------------------
    # task movement
    # ------------------------------------------------------------------
    def _route_by_name(self, i: int, dest) -> None:
        """The one slow routing path: a destination *name* (custom
        controller, retired schedule, or an order entry the route compiler
        could not validate), checked per event."""
        name = self._names[i]
        if dest == name:
            if self._w_inf[i]:
                raise SimulationError(
                    f"switch {name!r} was routed a compute task")
            self._compute_queue[i] += 1
            self._try_compute(i)
        else:
            if dest not in self.tree.children(name):
                raise SimulationError(
                    f"{name!r} cannot send to non-child {dest!r}")
            self._send_queue[i].append(self._index[dest])
            self._try_send(i)

    # ------------------------------------------------------------------
    # compiled hot handlers
    # ------------------------------------------------------------------
    def _bind_hot(self) -> None:
        """Compile the five per-event handlers into closures.

        CPython resolves closure cells several times faster than instance
        attributes, and these handlers run once per task movement — the
        whole point of the array layout.  Everything captured here is
        identity-stable for the simulation's lifetime: the state arrays
        and duration lists are only ever updated in place, the
        engine swaps its bucket dict/heap in place on compaction and
        rescale, and the route table and flag/segment cells are list
        objects whose contents (not identity) change on reconfiguration.
        Scalars that genuinely move mid-run (generation, root id, link
        factor, controller) are read through ``sim`` on every call.

        Guard order and side-effect order match the reference simulator
        exactly — the cross-kernel equivalence property suite pins this.
        """
        sim = self
        engine = self.engine
        buckets = engine._buckets
        tick_heap = engine._tick_heap
        names = self._names
        parent = self._parent
        dead = self._dead
        computing = self._computing
        sending = self._sending
        receiving = self._receiving
        overlap = self._overlap
        compute_queue = self._compute_queue
        arrivals = self._arrivals
        buffered = self._buffered
        send_queue = self._send_queue
        w_vals = self._w_ticks
        cost_vals = self._cost_ticks
        w_frac = self._w_frac
        routes = self._routes
        flags = self._route_flags
        jobs = self._control_jobs
        trace = self.trace
        tel = self.telemetry
        frac = self._frac
        rec_events = self._record_events
        rec_buffers = self._record_buffers
        rec_segments = self._record_segments
        # recording is appending plain ints to the trace's key columns;
        # `tail` is its [max segment end in ticks, unrecorded completions]
        rel_t, rel_n = trace.columns("releases")
        comp_t, comp_n = trace.columns("completions")
        arr_t, arr_n = trace.columns("arrivals")
        buf_t, buf_n, buf_d = trace.columns("buffer_deltas")
        seg_n, seg_k, seg_s, seg_e, seg_p = trace.columns("segments")
        tail = trace._tail
        # lean == the transfer-start tail has no observers (no segments,
        # no telemetry): send_done may then start follow-up transfers in
        # place instead of re-entering try_send (the link factor, which
        # can be installed mid-run, is re-checked per use)
        lean = tel is None and not rec_segments

        def release(arg):
            # hot release: destination id pre-validated by the route table
            di, generation = arg
            if generation != sim._generation:
                sim._released -= 1  # the retired chain never released it
                return
            ri = sim._root_idx
            arrivals[ri] += 1
            buffered[ri] += 1
            if rec_events:
                now = engine._now
                rel_t.append(now)
                rel_n.append(di)
                if rec_buffers:
                    buf_t.append(now)
                    buf_n.append(ri)
                    buf_d.append(1)
            if tel is not None:
                root = names[ri]
                tel.counter("sim.tasks_released", node=root).inc()
                sim._tel_buffer(root, buffered[ri])
            if di == ri:
                compute_queue[ri] += 1
                if not computing[ri]:
                    try_compute(ri)
            else:
                send_queue[ri].append(di)
                if not sending[ri]:
                    try_send(ri)

        def try_compute(i):
            if dead[i] or computing[i] or not compute_queue[i]:
                return
            if not overlap[i] and (sending[i] or receiving[i]):
                return  # a no-overlap node cannot compute while communicating
            if not flags[1] and not sim.controller.may_compute(
                    names[i], arrivals[i]):
                return
            computing[i] = 1
            compute_queue[i] -= 1
            start = engine._now
            end = start + w_vals[i]
            if end > tail[0]:
                tail[0] = end
            if rec_segments:
                seg_n.append(i)
                seg_k.append(COMPUTE)
                seg_s.append(start)
                seg_e.append(end)
                seg_p.append(None)
            if tel is not None:
                tel.counter("sim.busy_time", node=names[i],
                            resource="cpu").inc(w_frac[i])
            # inline ArrayEngine.defer: end >= now by construction, so the
            # past-time check is unnecessary
            b = buckets.get(end)
            if b is None:
                buckets[end] = [(compute_done, i, None)]
                heappush(tick_heap, end)
            else:
                b.append((compute_done, i, None))
            engine._size += 1

        def compute_done(i):
            if dead[i]:
                return  # the task died with the node (already counted lost)
            computing[i] = 0
            buffered[i] -= 1
            if rec_events:
                # (the compute segment ending now already moved tail[0])
                now = engine._now
                comp_t.append(now)
                comp_n.append(i)
                if rec_buffers:
                    buf_t.append(now)
                    buf_n.append(i)
                    buf_d.append(-1)
            else:
                tail[1] += 1
            if tel is not None:
                name = names[i]
                tel.counter("sim.tasks_computed", node=name).inc()
                sim._tel_buffer(name, buffered[i])
                tel.gauge("sim.events_processed").set(engine.processed)
                tel.gauge("sim.clock").set(frac(engine._now))
            # wake order matches the reference: parent's port, own port, own
            # CPU (each call guarded by the callee's cheap reject so idle
            # wakes cost no call)
            p = parent[i]
            if p >= 0 and not sending[p] and (send_queue[p] or jobs):
                try_send(p)
            if not sending[i] and (send_queue[i] or jobs):
                try_send(i)
            if compute_queue[i] and not computing[i]:
                try_compute(i)

        def try_send(i):
            if dead[i] or sending[i]:
                return
            if not overlap[i] and computing[i]:
                return  # a no-overlap node cannot send while computing
            if jobs:
                # control messages pre-empt task transfers (cold path)
                j = jobs.get(names[i])
                if j:
                    duration, callback = j.popleft()
                    sending[i] = 1
                    name = names[i]
                    start = engine._now
                    end = start + duration
                    trace.add_segment(i, CTRL, start, end)
                    if tel is not None:
                        tel.counter("sim.ctrl_jobs", node=name).inc()
                        tel.counter("sim.busy_time", node=name,
                                    resource="send").inc(frac(duration))

                    def ctrl_done(i=i, callback=callback):
                        sending[i] = 0
                        if callback is not None:
                            callback()
                        try_send(i)
                        try_compute(i)

                    # a Timer: its callback may change anything (see _drive)
                    engine.push(end, ctrl_done)
                    return
            queue = send_queue[i]
            if not queue:
                return
            # an in-order transfer to a no-overlap child waits for its CPU
            ci = queue[0]
            if not overlap[ci] and computing[ci]:
                return  # the child's compute completion will wake us
            queue.popleft()
            sending[i] = 1
            receiving[ci] = 1
            cost = cost_vals[ci]
            if sim._link_factor is not None:
                # the factor callback sees the exact rational time;
                # converting its (possibly incommensurate) result may grow
                # the scale, so only read the tick clock afterwards
                name, child = names[i], names[ci]
                start_frac = frac(engine._now)
                cost = sim._units(
                    sim.tree.edge_cost(name, child)
                    * Fraction(sim._link_factor(name, child, start_frac))
                )
            start = engine._now
            end = start + cost
            if end > tail[0]:
                tail[0] = end
            if rec_segments:
                seg_n.extend((i, ci))
                seg_k.extend((SEND, RECV))
                seg_s.extend((start, start))
                seg_e.extend((end, end))
                seg_p.extend((ci, i))
            if tel is not None:
                name, child = names[i], names[ci]
                cost_frac = frac(cost)
                tel.counter("sim.busy_time", node=name,
                            resource="send").inc(cost_frac)
                tel.counter("sim.busy_time", node=child,
                            resource="recv").inc(cost_frac)
            # inline ArrayEngine.defer: end >= now by construction
            b = buckets.get(end)
            if b is None:
                buckets[end] = [(send_done, (i, ci), None)]
                heappush(tick_heap, end)
            else:
                b.append((send_done, (i, ci), None))
            engine._size += 1

        def send_done(arg):
            # the single hottest event: one call per task transfer.  The
            # delivery to the child is inlined and the wake-up calls are
            # guarded by their cheap reject conditions, so the common case
            # runs with no Python call beyond the queue insert.  Observable
            # order matches the reference: deliver child (route, child
            # port, child CPU), own port, own CPU.
            i, ci = arg
            if dead[i]:
                # the sender crashed mid-transfer: the task was counted
                # lost at crash time; just release the child's receive port
                receiving[ci] = 0
                return
            sending[i] = 0
            buffered[i] -= 1
            receiving[ci] = 0
            if rec_buffers:
                buf_t.append(engine._now)
                buf_n.append(i)
                buf_d.append(-1)
            if tel is not None:
                tel.counter("sim.tasks_forwarded", node=names[i],
                            child=names[ci]).inc()
                sim._tel_buffer(names[i], buffered[i])
            # --- deliver to the child ---
            if dead[ci]:
                sim.tasks_lost += 1  # delivered into a crashed node
                if tel is not None:
                    tel.counter("sim.tasks_lost", node=names[ci]).inc()
            else:
                index = arrivals[ci]
                arrivals[ci] = index + 1
                buffered[ci] += 1
                if rec_events:
                    now = engine._now
                    arr_t.append(now)
                    arr_n.append(ci)
                    if rec_buffers:
                        buf_t.append(now)
                        buf_n.append(ci)
                        buf_d.append(1)
                if tel is not None:
                    tel.counter("sim.tasks_received",
                                node=names[ci]).inc()
                    sim._tel_buffer(names[ci], buffered[ci])
                route = routes[ci] if flags[0] else None
                if route is not None:
                    d = route[index % len(route)]
                    if type(d) is int:
                        if d == ci:
                            compute_queue[ci] += 1
                        else:
                            send_queue[ci].append(d)
                            if not sending[ci]:
                                # forwarders relay every task: start the
                                # child's transfer in place when nothing
                                # observes the start (try_send otherwise —
                                # the guards below mirror its rejects)
                                if (lean and not jobs
                                        and sim._link_factor is None):
                                    if overlap[ci] or not computing[ci]:
                                        cj = send_queue[ci][0]
                                        if overlap[cj] or not computing[cj]:
                                            send_queue[ci].popleft()
                                            sending[ci] = 1
                                            receiving[cj] = 1
                                            end = engine._now + cost_vals[cj]
                                            if end > tail[0]:
                                                tail[0] = end
                                            b = buckets.get(end)
                                            if b is None:
                                                buckets[end] = [
                                                    (send_done, (ci, cj),
                                                     None)]
                                                heappush(tick_heap, end)
                                            else:
                                                b.append((send_done,
                                                          (ci, cj), None))
                                            engine._size += 1
                                else:
                                    try_send(ci)
                    else:
                        sim._route_by_name(ci, d)
                else:
                    # generic path: custom controller or retired schedule
                    sim._route_by_name(
                        ci, sim.controller.destination(names[ci], index))
                if compute_queue[ci] and not computing[ci]:
                    try_compute(ci)
            # --- wake the sender's port, then (no-overlap) its CPU ---
            if not sending[i] and (send_queue[i] or jobs):
                if (lean and not jobs and sim._link_factor is None
                        and not dead[i]):
                    # start the sender's next queued transfer in place
                    if overlap[i] or not computing[i]:
                        ck = send_queue[i][0]
                        if overlap[ck] or not computing[ck]:
                            send_queue[i].popleft()
                            sending[i] = 1
                            receiving[ck] = 1
                            end = engine._now + cost_vals[ck]
                            if end > tail[0]:
                                tail[0] = end
                            b = buckets.get(end)
                            if b is None:
                                buckets[end] = [(send_done, (i, ck), None)]
                                heappush(tick_heap, end)
                            else:
                                b.append((send_done, (i, ck), None))
                            engine._size += 1
                else:
                    try_send(i)
            if compute_queue[i] and not computing[i]:
                try_compute(i)

        self._release = release
        self._try_compute = try_compute
        self._try_send = try_send

    # ------------------------------------------------------------------
    # periods the kernel does not step
    # ------------------------------------------------------------------
    def _drive(self) -> Optional[Fraction]:
        """Step to each global-period boundary ``k·T``; once two consecutive
        boundaries hold the same state (Lemma 1: the run repeats from
        there), write the whole periods left as shifted copies of the last
        one, then step the rest; return the first of the two boundaries.
        Telemetry, a horizon under ``3T`` or a ``T`` beyond
        ``MAX_PERIOD_BITS`` step every event."""
        engine, first = self.engine, self.engine.processed

        def left():  # the livelock guard counts written events too
            if self.max_events is not None:
                return self.max_events - (engine.processed - first)

        period = found = previous = None
        if self.telemetry is None and self.horizon is not None:
            try:
                period = global_period(self.periods)
            except ScheduleError:
                pass
        if period is not None and self.horizon < 3 * period:
            period = None  # too short to compare two boundaries and write
        k = 1
        while period is not None and (k + 1) * period <= self.horizon:
            at = self._units(k * period)
            engine.run_all(left(), until=at)
            if not engine.pending:  # drained: nothing left to write
                break
            state = self._boundary(at)
            if state and previous and state[0] == previous[0]:
                whole = self._replicate(previous, state, self._units(period),
                                        left())
                if whole:
                    found = found or Fraction((k - 1) * period)
                    k, state = k + whole, None
            previous = state
            k += 1
        engine.run_all(left())
        return found

    def _boundary(self, at: int) -> Optional[tuple]:
        """The exact state at tick *at*, every earlier bucket drained —
        what the handlers read, pending kernel events relative to *at* —
        then the counters and how far the pending events may move.  None
        unless only the compiled kernel moves: default routing and compute
        gating, no link factor, no queued control job, no dead node."""
        flags = self._route_flags
        if not (flags[0] and flags[1] and self._link_factor is None
                and self._dead.find(1) < 0
                and not any(self._control_jobs.values())):
            return None
        next_period = self._next_period
        releases = (self._release, self._release_slow)
        buckets = self.engine._buckets
        pending, chains, timer_at, last = [], [], None, at
        for tick in sorted(buckets):
            for j, (fn, arg, timer) in enumerate(buckets[tick]):
                if timer is not None:  # not a kernel event: bounds the shift
                    timer_at = tick if timer_at is None else timer_at
                    continue
                if fn == next_period:  # its bunch counter k is absolute
                    chains.append((buckets[tick], j, arg[0]))
                    arg = arg[1:]
                elif fn in releases:  # a chain off the grid (reconfigured)
                    return None
                pending.append((tick - at, fn, arg))
                last = tick
        # a shift may move no kernel event onto or past the first Timer
        reach = self._horizon_units - at
        if timer_at is not None:
            reach = min(reach, timer_at - last - 1)
        tail = self.trace._tail
        key = (self.engine._timers_fired, self._timeline.scale, tail[0] - at,
               bytes(self._computing), bytes(self._sending),
               bytes(self._receiving), tuple(self._compute_queue),
               tuple(self._buffered), tuple(map(tuple, self._send_queue)),
               tuple([a % len(r) if r else a
                      for a, r in zip(self._arrivals, self._routes)]),
               tuple(pending))
        return (key, list(self._arrivals), self._released, tail[1],
                self.engine.processed,
                {n: len(cols[0]) for n, cols in self.trace._cols.items()},
                chains, last, reach)

    def _replicate(self, previous: tuple, state: tuple, span: int,
                   events_left: Optional[int]) -> int:
        """Write as many copies of the period between two equal boundaries
        as the reach, the supply and the event budget admit — trace rows
        shifted, counters advanced by the per-period delta, pending events
        moved ahead — and return how many."""
        _, arrived, released, unrecorded, processed, rows, chains, _, _ = \
            previous
        _, _, _, _, now_processed, now_rows, now_chains, last, reach = state
        events = now_processed - processed
        released = self._released - released
        whole = reach // span
        if self.supply is not None and released:
            whole = min(whole, (self.supply - self._released) // released)
        if events_left is not None:
            whole = min(whole, events_left // max(events, 1))
        if whole <= 0:
            return 0
        arrivals = self._arrivals
        arrivals[:] = [a + whole * (a - b) for a, b in zip(arrivals, arrived)]
        self._released += whole * released
        tail = self.trace._tail
        tail[0] += whole * span
        tail[1] += whole * (tail[1] - unrecorded)
        self.trace.repeat(rows, now_rows, whole, span)
        self.engine.skip(whole * span, whole * events, before=last + 1)
        for (bucket, j, k), (_, _, k0) in zip(now_chains, chains):
            fn, arg, _ = bucket[j]
            bucket[j] = (fn, (k + whole * (k - k0),) + arg[1:], None)
        return whole

    # ------------------------------------------------------------------
    # fault injection and online reconfiguration: the state-touching halves
    # ------------------------------------------------------------------
    def _is_dead(self, node: Hashable):
        i = self._index.get(node)
        return None if i is None else bool(self._dead[i])

    def dead_nodes(self) -> List[Hashable]:
        """Every currently-crashed node, in tree order (O(#dead): the
        heartbeat asks on every beat)."""
        names, dead, out = self._names, self._dead, []
        i = dead.find(1)
        while i >= 0:
            out.append(names[i])
            i = dead.find(1, i + 1)
        return out

    def _kill(self, node: Hashable) -> None:
        """Fail-stop body: destroy *node*'s state, count the losses."""
        i = self._index[node]
        now = self._frac(self.engine._now)
        buffered = self._buffered[i]
        self._dead[i] = 1
        self.failed_at[node] = now
        if self.telemetry is not None:
            self.telemetry.counter("sim.crashes", node=node).inc()
            self.telemetry.record_span("crash", now, now, node=node,
                                       buffered=buffered)
        if buffered > 0:
            self.tasks_lost += buffered
            self.trace.add_buffer_delta(self.engine._now, i, -buffered)
            if self.telemetry is not None:
                self.telemetry.counter("sim.tasks_lost",
                                       node=node).inc(buffered)
                self._tel_buffer(node, 0)
            self._buffered[i] = 0
        self._compute_queue[i] = 0
        self._send_queue[i].clear()
        self._computing[i] = 0
        self._sending[i] = 0  # send_done's dead-sender guard frees the child
        self._control_jobs.pop(node, None)

    def revive_node(self, node: Hashable) -> None:
        """Bring a crashed *node* back, repaired and empty.

        A no-op for a live node, so rejoin events can be armed
        unconditionally.  The node returns with clean buffers and a free
        port; its crash history in ``failed_at`` is kept for reporting.
        It rejoins the *task flow* only once a reconfiguration routes work
        to it again.
        """
        i = self._index.get(node)
        if i is None:
            raise SimulationError(f"cannot revive unknown node {node!r}")
        if not self._dead[i]:
            return
        self._dead[i] = 0
        self._receiving[i] = 0
        self._computing[i] = 0
        self._sending[i] = 0
        if self.telemetry is not None:
            now = self._frac(self.engine._now)
            self.telemetry.counter("sim.revivals", node=node).inc()
            self.telemetry.record_span("revive", now, now, node=node)

    def inject_control(self, node: Hashable, duration,
                       callback=None) -> None:
        """Queue a control-plane job on *node*'s send port.

        Control jobs model negotiation messages: they pre-empt queued task
        transfers (they are tiny but must cross the same port) and are
        recorded as ``CTRL`` segments.  Jobs for a dead node are dropped —
        its port no longer exists (the callback never fires).
        """
        i = self._index[node]
        if self._dead[i]:
            return
        # convert BEFORE touching the queue dict: a rescale triggered by the
        # conversion replaces every queued deque with a scaled copy, so a
        # reference grabbed earlier would be appended into an orphan
        duration_units = self._units(Fraction(duration))
        self._control_jobs.setdefault(node, deque()).append(
            (duration_units, callback)
        )
        self._try_send(i)

    def reconfigure(self, schedules, periods) -> None:
        super().reconfigure(schedules, periods)
        self._rebuild_routes()


#: the simulator classes by kernel name — what ``simulate(kernel=)``,
#: ``resilient_run(kernel=)`` and the equivalence tests select from
KERNELS = {"array": Simulation, "fraction": ReferenceSimulation}


def kernel_class(kernel: str):
    """The simulator class registered under *kernel* in :data:`KERNELS`."""
    try:
        return KERNELS[kernel]
    except KeyError:
        raise SimulationError(
            f"unknown kernel {kernel!r} (expected one of {tuple(KERNELS)})"
        ) from None


def simulate(
    tree: Tree,
    allocation: Optional[Allocation] = None,
    policy: Callable = interleaved_order,
    horizon: Optional[Fraction] = None,
    supply: Optional[int] = None,
    compute_during_startup: bool = True,
    overlap: Optional[Mapping[Hashable, bool]] = None,
    root_pacing: str = "even",
    record_segments: bool = True,
    record_buffers: bool = True,
    record_events: bool = True,
    max_events: int = 5_000_000,
    telemetry: Optional[Registry] = None,
    kernel: str = "array",
) -> SimulationResult:
    """One-call simulation of *tree* running its optimal event-driven schedule.

    When *allocation* is omitted it is computed by BW-First.  *policy* orders
    each node's bunch (default: the paper's interleaving).  The root releases
    tasks until *horizon* time units and/or *supply* tasks, whichever comes
    first; the simulation then drains and the result's ``wind_down`` measures
    the drain time.  ``compute_during_startup=False`` selects the traditional
    buffered-start baseline instead of the paper's Section 7 strategy.

    *overlap* maps nodes to their overlap capability (Section 3's operation
    modes; default: every node is full-overlap).  A ``False`` node cannot
    compute while either of its ports is active: its CPU defers to transfers
    (an inbound transfer to it waits for its current task to finish, then
    takes priority over the next one).  Running the *full-overlap-optimal*
    schedule on such nodes measures what the overlap capability is worth —
    experiment E18 — not the optimum of the non-overlap model, which is a
    different scheduling problem.

    *telemetry* attaches a :class:`~repro.telemetry.core.Registry`: the run
    then maintains per-node counters (``sim.tasks_released`` /
    ``sim.tasks_received`` / ``sim.tasks_computed`` / ``sim.tasks_lost``,
    per-link ``sim.tasks_forwarded``), port/CPU busy-time counters
    (``sim.busy_time{node,resource}``) and buffer-occupancy gauges and
    histograms, live as the simulation unfolds.  ``None`` (the default)
    runs the exact uninstrumented code path.

    *kernel* names the simulator class in :data:`KERNELS`: ``"array"``
    (default) is the production :class:`Simulation`, ``"fraction"`` the
    several-times-slower :class:`~repro.sim.reference.ReferenceSimulation`
    oracle that tests compare it against — same results, bit for bit; any
    other name raises :class:`~repro.exceptions.SimulationError`.
    ``record_events=False`` (requires the other two ``record_*`` flags
    off) keeps only the completion counter and end time — the counts-only
    mode for multi-million-event runs.
    """
    simulation_class = kernel_class(kernel)
    if allocation is None:
        from ..core.allocation import from_bw_first
        from ..core.bwfirst import bw_first

        allocation = from_bw_first(bw_first(tree))
    periods = tree_periods(allocation)
    schedules = build_schedules(allocation, policy=policy, periods=periods)
    if compute_during_startup:
        controller: Controller = Controller(schedules)
    else:
        thresholds = {node: periods[node].chi_in for node in schedules}
        controller = BufferedStartController(schedules, thresholds, tree.root)
    sim = simulation_class(
        tree,
        schedules,
        periods,
        controller=controller,
        horizon=horizon,
        supply=supply,
        overlap=overlap,
        root_pacing=root_pacing,
        record_segments=record_segments,
        record_buffers=record_buffers,
        record_events=record_events,
        max_events=max_events,
        telemetry=telemetry,
    )
    return sim.run()

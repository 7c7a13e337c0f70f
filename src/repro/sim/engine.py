"""A minimal deterministic discrete-event engine with exact rational time.

The simulator replaces the SimGrid toolkit the paper suggests for
evaluation (Section 9).  Design choices:

* **time is a :class:`~fractions.Fraction`** — every event timestamp is
  exact, so period/throughput assertions in the tests use equality;
* **deterministic ordering** — events at equal times fire in scheduling
  order (a monotonically increasing sequence number breaks ties), so a
  simulation is a pure function of its inputs;
* **callbacks, not processes** — events carry a zero-argument callable;
  there is no coroutine machinery to keep the core small and auditable.

:class:`Engine` is the heap loop over ``Fraction`` time (the reference
simulator, the protocol network and the baselines run on it);
:class:`ArrayEngine` is its integer-tick, bucketed twin behind the
production simulator — same public clock API, same ``(time, seq)`` order.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from ..core.rates import as_fraction
from ..exceptions import SimulationError

Event = Callable[[], None]


class Timer:
    """Handle for a scheduled event; :meth:`cancel` prevents it from firing.

    A cancelled event is silently skipped by the loop: it does not run, does
    not count as processed, and does not advance the clock.  Cancelling an
    already-fired or already-cancelled timer is a no-op, so callers can
    cancel unconditionally (e.g. a retry timer whose acknowledgment arrived,
    or a heartbeat chain stopped after a failure was detected).

    A timer scheduled through an engine keeps a backreference so the engine
    can count live cancellations and compact its queue when lazily-deleted
    entries start to dominate (see :meth:`Engine._note_cancel`).
    """

    __slots__ = ("_cancelled", "_fired", "_engine")

    def __init__(self, engine: "Optional[Engine]" = None) -> None:
        self._cancelled = False
        self._fired = False
        self._engine = engine

    def cancel(self) -> None:
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        engine = self._engine
        if engine is not None:
            engine._note_cancel()

    @property
    def active(self) -> bool:
        """Whether the event can still fire."""
        return not (self._cancelled or self._fired)


#: Below this many stale entries a queue is never compacted: rebuilding a
#: tiny heap on every few cancellations would cost more than it saves.
_COMPACT_FLOOR = 64


def _invoke(fn: Event) -> None:
    """Adapter: run a zero-argument callback under the one-argument
    calling convention of :class:`ArrayEngine` bucket entries."""
    fn()


class Engine:
    """Heap-based event loop over exact rational time."""

    __slots__ = ("_now", "_heap", "_seq", "_processed", "_stale")
    replicated = 0  # events written rather than stepped: see ArrayEngine

    def __init__(self) -> None:
        self._now: Fraction = Fraction(0)
        self._heap: List[Tuple[Fraction, int, Event, Timer]] = []
        self._seq = 0
        self._processed = 0
        self._stale = 0  # cancelled entries still sitting in the queue

    @property
    def now(self) -> Fraction:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still scheduled (cancelled ones included)."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def push(self, time, fn: Event) -> Timer:
        """Raw scheduling hot path: *time* is already in this engine's
        internal units (a ``Fraction`` here; ticks in :class:`ArrayEngine`).
        The simulator uses this to skip per-event coercion."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} < now {self._now}")
        timer = Timer(self)
        heapq.heappush(self._heap, (time, self._seq, fn, timer))
        self._seq += 1
        return timer

    def _note_cancel(self) -> None:
        """A live queue entry was just cancelled.  Lazy deletion leaves it
        in place until popped; once cancelled entries outnumber live ones
        the queue is compacted so mass cancellation (heartbeat chains,
        retry storms) cannot grow it without bound."""
        self._stale += 1
        if self._stale > _COMPACT_FLOOR and self._stale * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        self._heap = [e for e in self._heap if not e[3]._cancelled]
        heapq.heapify(self._heap)
        self._stale = 0

    def units(self, value):
        """*value* in the clock units :meth:`push` speaks (a ``Fraction``
        here, integer ticks in :class:`ArrayEngine`)."""
        return as_fraction(value)

    def schedule_at(self, time, fn: Event) -> Timer:
        """Schedule *fn* to run at absolute *time* (≥ now); return its handle."""
        return self.push(self.units(time), fn)

    def schedule_in(self, delay, fn: Event) -> Timer:
        """Schedule *fn* to run *delay* time units from now (delay ≥ 0)."""
        d = self.units(delay)  # first: a tick conversion may move _now
        if d < 0:
            raise SimulationError(f"negative delay {as_fraction(delay)}")
        return self.push(self._now + d, fn)

    def step(self) -> bool:
        """Run the single next live event; return ``False`` when none remain."""
        while self._heap:
            time, _, fn, timer = heapq.heappop(self._heap)
            if timer._cancelled:
                if self._stale:
                    self._stale -= 1
                continue
            timer._fired = True
            self._now = time
            self._processed += 1
            fn()
            return True
        return False

    def run_until(self, time) -> None:
        """Run every event with timestamp ≤ *time*; leave later ones queued.

        Afterwards ``now`` equals *time* (even if the queue ran dry sooner),
        so follow-up scheduling is relative to the horizon.
        """
        horizon = as_fraction(time)
        if horizon < self._now:
            raise SimulationError(f"cannot run backwards to {horizon}")
        while self._heap:
            while self._heap and self._heap[0][3]._cancelled:
                heapq.heappop(self._heap)
                if self._stale:
                    self._stale -= 1
            if not self._heap or self._heap[0][0] > horizon:
                break
            self.step()
        self._now = horizon

    def run_all(self, max_events: Optional[int] = None) -> None:
        """Run until the queue is empty (or *max_events* is exceeded).

        The :meth:`step` loop is inlined here — one Python frame per event
        is measurable on million-event runs.  ``self._heap`` is re-read
        every iteration on purpose: a cancellation inside a callback may
        compact the queue, which rebinds it.
        """
        count = 0
        pop = heapq.heappop
        while self._heap:
            time, _, fn, timer = pop(self._heap)
            if timer._cancelled:
                if self._stale:
                    self._stale -= 1
                continue
            timer._fired = True
            self._now = time
            self._processed += 1
            fn()
            count += 1
            if max_events is not None and count > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events — livelock?"
                )


class ArrayEngine(Engine):
    """Bucketed (calendar-queue) event loop over integer ticks — the
    production simulator's engine.

    Timestamps are plain ``int`` ticks over an
    :class:`~repro.core.timeline.IntTimeline`.  The *public* clock API is
    the heap engine's — :meth:`schedule_at` / :meth:`schedule_in` /
    :meth:`run_until` accept ordinary time values and ``now`` returns an
    exact :class:`~fractions.Fraction` — so external consumers (heartbeat
    monitors, fault plans, tests) interoperate with either engine.  Only
    the simulator's hot path talks ticks directly via :meth:`defer`,
    :meth:`push` and ``_now``.

    When the timeline grows its scale mid-run, the engine multiplies its
    clock and every queued tick by the factor; multiplication by a
    positive integer preserves all orderings, so the queue stays valid.

    Events live in a dict keyed by integer tick — one list (bucket) per
    distinct timestamp — plus a min-heap of the tick keys.  The loop pops
    one tick at a time and drains its whole bucket, so N same-tick events
    cost one heap operation instead of N, and a periodic workload (the
    common case here: every release grid point lands many events on the
    same tick) spends its time in a flat list walk.

    Entries are ``(fn, arg, timer)`` triples called as ``fn(arg)``.  The
    :meth:`defer` hot path allocates **no Timer and no closure** — the
    simulator passes a handler plus a small argument (a dense node id or
    a tuple) and ``timer`` stays ``None``.  :meth:`push` wraps a
    zero-argument callback via :func:`_invoke` and returns a live
    :class:`Timer`, so heartbeats, fault plans and crash hooks work as on
    the heap engine.

    Ordering is identical to the heap engine's ``(time, seq)``: buckets
    are FIFO, and a same-tick event scheduled *while the current bucket
    drains* lands in a fresh bucket whose tick is re-pushed on the heap
    and therefore runs right after the current batch — exactly where the
    sequence number would have put it.
    """

    __slots__ = ("timeline", "_buckets", "_tick_heap", "_size", "_cur_tick",
                 "_timers_fired", "replicated")

    def __init__(self, timeline) -> None:
        super().__init__()
        self.timeline = timeline
        self._now = 0  # ticks
        self._buckets: dict = {}      # tick -> [(fn, arg, timer), ...]
        self._tick_heap: List[int] = []
        self._size = 0
        self._cur_tick = 0
        self._timers_fired = 0  # anything not compiled into the simulator
        #: events in ``processed`` that :meth:`skip` wrote, none stepped
        self.replicated = 0
        timeline.on_rescale(self._rescale)

    @property
    def now(self) -> Fraction:
        """Current simulation time as an exact rational (boundary view)."""
        return self.timeline.to_fraction(self._now)

    @property
    def pending(self) -> int:
        return self._size

    def units(self, value) -> int:
        return self.timeline.ensure(as_fraction(value))

    def defer(self, time: int, fn, arg=None) -> None:
        """Schedule ``fn(arg)`` at tick *time* with no cancellation handle.

        This is the simulator's hot path: no Timer, no closure, no tuple
        beyond the bucket entry itself.
        """
        bucket = self._buckets.get(time)
        if bucket is None:
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule at {time} < now {self._now}")
            self._buckets[time] = [(fn, arg, None)]
            heapq.heappush(self._tick_heap, time)
        else:
            # an existing bucket implies its tick was already validated
            bucket.append((fn, arg, None))
        self._size += 1

    def push(self, time, fn: Event) -> Timer:
        timer = Timer(self)
        bucket = self._buckets.get(time)
        if bucket is None:
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule at {time} < now {self._now}")
            self._buckets[time] = [(_invoke, fn, timer)]
            heapq.heappush(self._tick_heap, time)
        else:
            bucket.append((_invoke, fn, timer))
        self._size += 1
        return timer

    def _note_cancel(self) -> None:
        self._stale += 1
        if self._stale > _COMPACT_FLOOR and self._stale * 2 > self._size:
            self._compact()

    def _compact(self) -> None:
        # Rebuild the bucket dict without cancelled entries.  A bucket
        # currently being drained by run_all is not in the dict, so it is
        # untouched (its leftover cancelled entries are skipped on
        # consumption with a guarded _stale decrement).
        buckets = {}
        size = 0
        for tick, entries in self._buckets.items():
            live = [e for e in entries
                    if e[2] is None or not e[2]._cancelled]
            if live:
                buckets[tick] = live
                size += len(live)
        # in-place swap: the simulator's compiled hot handlers close over
        # the bucket dict and tick heap, so their identities must survive
        self._buckets.clear()
        self._buckets.update(buckets)
        self._tick_heap[:] = sorted(buckets)  # a sorted list is a valid heap
        self._size = size
        self._stale = 0

    def _rescale(self, factor: int) -> None:
        self._now *= factor
        self._cur_tick *= factor
        if self._buckets:
            # in-place swap: hot handlers close over dict and heap (see
            # _compact); multiplying by a positive int preserves heap order
            scaled = {t * factor: b for t, b in self._buckets.items()}
            self._buckets.clear()
            self._buckets.update(scaled)
            self._tick_heap[:] = [t * factor for t in self._tick_heap]

    def _repark(self, rest) -> None:
        """Put the undrained remainder of the current bucket back (an event
        callback raised).  The remainder is *older* than anything scheduled
        meanwhile at the same tick, so it goes in front."""
        tick = self._cur_tick
        bucket = self._buckets.get(tick)
        if bucket is None:
            self._buckets[tick] = list(rest)
            heapq.heappush(self._tick_heap, tick)
        else:
            bucket[:0] = rest

    def skip(self, delta: int, events: int, before: int) -> None:
        """Jump *delta* ticks ahead without stepping: the clock and every
        bucket before tick *before* move (none may land on a bucket left
        behind), and *events* count as processed — and as
        :attr:`replicated`.  In place: the compiled handlers hold both."""
        moved = {t + delta if t < before else t: b
                 for t, b in self._buckets.items()}
        self._buckets.clear()
        self._buckets.update(moved)
        self._tick_heap[:] = sorted(moved)
        self._now += delta
        self._cur_tick += delta
        self._processed += events
        self.replicated += events

    def run_all(self, max_events: Optional[int] = None,
                until: Optional[int] = None) -> None:
        """Drain the queue — or, with *until*, every bucket before that
        tick (the simulator stops at its period boundaries)."""
        count = 0
        pop = heapq.heappop
        heap = self._tick_heap  # identity-stable: swaps happen in place
        stop = math.inf if until is None else until
        while heap and heap[0] < stop:
            tick = pop(heap)
            # None: the bucket was retired by _compact (stale heap tick)
            # or this tick is a duplicate heap entry from a re-push
            entries = self._buckets.pop(tick, None)
            if entries is None:
                continue
            # _cur_tick (not the local) is the batch timestamp: a rescale
            # triggered by a callback multiplies it along with _now, so
            # neither needs per-event re-assignment.  The clock advances on
            # the first *live* event only (a fully-cancelled bucket must
            # leave ``now`` untouched, like a cancelled heap head).
            self._cur_tick = tick
            advanced = False
            n = len(entries)
            self._size -= n
            i = 0
            fired = 0
            try:
                while i < n:
                    fn, arg, timer = entries[i]
                    i += 1
                    if timer is not None:
                        if timer._cancelled:
                            if self._stale:
                                self._stale -= 1
                            continue
                        timer._fired = True
                        self._timers_fired += 1
                    if not advanced:
                        self._now = self._cur_tick
                        advanced = True
                    fired += 1
                    fn(arg)
            finally:
                self._processed += fired
                if i < n:
                    rest = entries[i:]
                    self._size += len(rest)
                    self._repark(rest)
            # the livelock guard is per batch, not per event: a bucket's
            # contents are fixed once popped (same-tick events scheduled
            # by callbacks land in a fresh bucket), so every batch is
            # finite and the count check still bounds any infinite chain
            count += fired
            if max_events is not None and count > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events — livelock?"
                )

    def _next_live_tick(self) -> Optional[int]:
        """Tick of the next live event, dropping cancelled heads and stale
        heap entries on the way (mirrors the heap engine's head-popping)."""
        heap = self._tick_heap
        while heap:
            tick = heap[0]
            entries = self._buckets.get(tick)
            if entries is None:
                heapq.heappop(heap)
                continue
            timer = entries[0][2]
            if timer is not None and timer._cancelled:
                entries.pop(0)
                self._size -= 1
                if self._stale:
                    self._stale -= 1
                if not entries:
                    del self._buckets[tick]
                    heapq.heappop(heap)
                continue
            return tick
        return None

    def step(self) -> bool:
        if self._next_live_tick() is None:
            return False
        tick = self._tick_heap[0]
        entries = self._buckets[tick]
        fn, arg, timer = entries.pop(0)
        if not entries:
            del self._buckets[tick]
            heapq.heappop(self._tick_heap)
        self._size -= 1
        if timer is not None:
            timer._fired = True
            self._timers_fired += 1
        self._now = tick
        self._processed += 1
        fn(arg)
        return True

    def run_until(self, time) -> None:
        horizon = as_fraction(time)
        if horizon < self.now:
            raise SimulationError(f"cannot run backwards to {horizon}")
        while True:
            tick = self._next_live_tick()
            # compare in Fractions: an event may rescale the timeline
            if tick is None or self.timeline.to_fraction(tick) > horizon:
                break
            self.step()
        self._now = self.units(horizon)

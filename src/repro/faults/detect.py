"""Failure detection during steady state: a deterministic heartbeat monitor.

The root (the supervisor of :func:`~repro.faults.recovery.resilient_run`)
pings the platform every *interval* time units; a node that misses a beat is
suspected, and declared dead *timeout* time units after the missed beat.
Everything runs on the simulation's exact-rational event engine, so
detection times are deterministic and analytically predictable:

    ``detect_at(crash) = interval · ⌈crash / interval⌉ + timeout``

(a crash exactly on a grid point is caught by that point's beat — the death
is what arms it, so it runs after the death whatever their scheduling order).
:func:`detection_time` computes the same quantity without running anything;
:func:`~repro.faults.recovery.resilient_run` uses it to pre-plan the
recovery and then asserts the live monitor agreed.

The grid is kept, the polling is not: a beat that would find nobody newly
dead observes nothing, so the monitor puts only three kinds of beat on the
engine — the one at t = 0, the first grid point at or after each death
(armed by the simulation's death notification, once per grid point), and
one **closing** beat at the first grid point at or after *until*, which
leaves the engine's final clock where an every-interval chain would have
left it.  ``heartbeats`` counts the grid points the run has passed, beats
elided or not, so the rounds a real detector would have run are still
reported — they just no longer cost events (or count against a
simulation's ``max_events``).  ``tests/test_detect.py`` keeps the
every-interval chain as the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Hashable, Optional

from ..core.rates import as_fraction
from ..exceptions import FaultError
from ..sim.simulator import Simulation

#: Callback invoked as ``on_detect(node, time)`` when a death is declared.
DetectFn = Callable[[Hashable, Fraction], None]


def detection_time(crash_time, interval, timeout) -> Fraction:
    """When a crash at *crash_time* is declared, without simulating.

    The first heartbeat at or after the crash is missed; the declaration
    follows *timeout* later.
    """
    crash = as_fraction(crash_time)
    beat = as_fraction(interval)
    if beat <= 0:
        raise FaultError(f"heartbeat interval must be positive, got {beat}")
    return beat * math.ceil(crash / beat) + as_fraction(timeout)


class HeartbeatMonitor:
    """Detects crashed nodes inside a running :class:`Simulation`.

    * *interval* — time between heartbeat rounds (first round at t = 0);
    * *timeout* — grace period between a missed beat and the declaration;
    * *until* — stop monitoring after this time (required for a run that
      must drain; the last round is the first beat at or after *until*);
    * *on_detect* — called once per dead node, at declaration time.

    ``heartbeats`` counts completed rounds (read-only: the grid points at
    or before the engine's clock, the closing beat or :meth:`stop`,
    whichever came first — minus a round that is armed there but has not
    run yet); ``detected`` maps each declared node to its declaration time.
    """

    def __init__(
        self,
        sim: Simulation,
        interval,
        timeout,
        until=None,
        on_detect: Optional[DetectFn] = None,
    ):
        self.sim = sim
        self.interval = as_fraction(interval)
        self.timeout = as_fraction(timeout)
        if self.interval <= 0:
            raise FaultError(
                f"heartbeat interval must be positive, got {self.interval}"
            )
        if self.timeout < 0:
            raise FaultError(f"timeout must be >= 0, got {self.timeout}")
        self.until = as_fraction(until) if until is not None else None
        self.on_detect = on_detect
        self.detected: Dict[Hashable, Fraction] = {}
        self._suspected: set = set()
        self._timer = None  # the beat at 0, then the last one a death armed
        self._closing = None
        self._stopped = False
        self._rounds: Optional[int] = None  # frozen by stop()
        # the grid in the engine's own clock units (see start()): the armed
        # beat's time, the interval, the closing beat's time
        self._at = self._step = 0
        self._close = None

    def start(self) -> "HeartbeatMonitor":
        """Schedule the beat at t = 0 and the closing beat, and ask the
        simulation to report deaths.

        The grid lives in the engine's clock units
        (:meth:`~repro.sim.engine.Engine.units`: ticks on the production
        kernel), converted once here and multiplied on a timeline rescale
        like every other holder of ticks — arming a beat then costs no
        rational arithmetic beyond reading the clock.
        """
        engine = self.sim.engine
        timeline = getattr(engine, "timeline", None)
        if timeline is not None:  # registered first: the conversions below
            timeline.on_rescale(self._on_rescale)  # may themselves rescale
        self._at = engine.units(0)
        self._step = engine.units(self.interval)
        self._timer = engine.push(self._at, self._beat)
        if self.until is not None:
            until = engine.units(self.until)
            self._close = -(-until // self._step) * self._step
            if self._close > self._at:
                self._closing = engine.push(self._close, self._beat)
        self.sim._death_observers.append(self._on_death)
        return self

    def _on_rescale(self, factor: int) -> None:
        self._at *= factor
        self._step *= factor
        if self._close is not None:
            self._close *= factor

    def stop(self) -> None:
        """Cancel the armed beats; no death is declared from here on."""
        self._rounds = self.heartbeats
        self._stopped = True
        for timer in (self._timer, self._closing):
            if timer is not None:
                timer.cancel()

    @property
    def heartbeats(self) -> int:
        """Rounds completed so far, whether or not a beat ran for them."""
        if self._rounds is not None:
            return self._rounds
        if self._timer is None:
            return 0  # never started
        end = self._now()
        if self._close is not None and end > self._close:
            end = self._close
        return end // self._step + (0 if self._armed(end) else 1)

    # ------------------------------------------------------------------
    def _now(self):
        engine = self.sim.engine
        return engine.units(engine.now)

    def _armed(self, at) -> bool:
        """Whether the beat of grid point *at* is scheduled and yet to run."""
        return (self._timer.active and self._at == at) or (
            self._closing is not None and self._closing.active
            and self._close == at)

    def _on_death(self, node: Hashable) -> None:
        """A node just died: make sure the first grid point at or after
        now has a beat — unless the monitoring is over by then."""
        if self._stopped:
            return
        at = -(-self._now() // self._step) * self._step
        if self._armed(at) or (self._close is not None and at > self._close):
            return
        self._at = at
        self._timer = self.sim.engine.push(at, self._beat)

    def _beat(self) -> None:
        if self._stopped:
            return
        for name in self.sim.dead_nodes():
            if name not in self._suspected:
                self._suspected.add(name)
                self.sim.engine.schedule_in(
                    self.timeout, lambda n=name: self._declare(n)
                )

    def _declare(self, node: Hashable) -> None:
        if self._stopped or node in self.detected:
            return
        now = self.sim.engine.now
        self.detected[node] = now
        if self.on_detect is not None:
            self.on_detect(node, now)

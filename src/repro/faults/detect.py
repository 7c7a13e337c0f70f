"""Failure detection during steady state: a deterministic heartbeat monitor.

The root (the supervisor of :func:`~repro.faults.recovery.resilient_run`)
pings the platform every *interval* time units; a node that misses a beat is
suspected, and declared dead *timeout* time units after the missed beat.
Everything runs on the simulation's exact-rational event engine, so
detection times are deterministic and analytically predictable:

    ``detect_at(crash) = interval · ⌈crash / interval⌉ + timeout``

(a crash exactly on a beat is caught by that very beat — crash events are
scheduled before the monitor starts, so they fire first at equal times).
:func:`detection_time` computes the same quantity without running anything;
:func:`~repro.faults.recovery.resilient_run` uses it to pre-plan the
recovery and then asserts the live monitor agreed.

The monitor's periodic check uses the engine's cancellable timers
(:class:`~repro.sim.engine.Timer`), so it can be stopped — and bounds
itself by *until* so a finite-horizon simulation still drains.
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

    ``heartbeats`` counts completed rounds; ``detected`` maps each declared
    node to its declaration time.
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
        self.heartbeats = 0
        self.detected: Dict[Hashable, Fraction] = {}
        self._suspected: set = set()
        self._timer = None
        self._stopped = False
        # the beat chain in the engine's own clock units (see start())
        self._at = self._step = 0
        self._until = None

    def start(self) -> "HeartbeatMonitor":
        """Schedule the first heartbeat round (at t = 0).

        The chain re-arms itself in the engine's clock units
        (:meth:`~repro.sim.engine.Engine.units`: ticks on the production
        kernel), converted once here and multiplied on a timeline rescale
        like every other holder of ticks — a beat then costs no rational
        arithmetic at all.
        """
        engine = self.sim.engine
        timeline = getattr(engine, "timeline", None)
        if timeline is not None:  # registered first: the conversions below
            timeline.on_rescale(self._on_rescale)  # may themselves rescale
        self._at = engine.units(0)
        self._step = engine.units(self.interval)
        if self.until is not None:
            self._until = engine.units(self.until)
        self._timer = engine.push(self._at, self._beat)
        return self

    def _on_rescale(self, factor: int) -> None:
        self._at *= factor
        self._step *= factor
        if self._until is not None:
            self._until *= factor

    def stop(self) -> None:
        """Cancel the monitoring chain."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()

    # ------------------------------------------------------------------
    def _beat(self) -> None:
        if self._stopped:
            return
        self.heartbeats += 1
        for name in self.sim.dead_nodes():
            if name not in self._suspected:
                self._suspected.add(name)
                self.sim.engine.schedule_in(
                    self.timeout, lambda n=name: self._declare(n)
                )
        if self._until is None or self._at < self._until:
            self._at += self._step
            self._timer = self.sim.engine.push(self._at, self._beat)

    def _declare(self, node: Hashable) -> None:
        if self._stopped or node in self.detected:
            return
        now = self.sim.engine.now
        self.detected[node] = now
        if self.on_detect is not None:
            self.on_detect(node, now)

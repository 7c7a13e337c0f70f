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

    def start(self) -> "HeartbeatMonitor":
        """Schedule the first heartbeat round (at t = 0)."""
        self._timer = self.sim.engine.schedule_at(Fraction(0), self._beat)
        return self

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
        now = self.sim.engine.now
        for name in self.sim.dead_nodes():
            if name not in self._suspected:
                self._suspected.add(name)
                self.sim.engine.schedule_in(
                    self.timeout, lambda n=name: self._declare(n)
                )
        if self.until is None or now < self.until:
            self._timer = self.sim.engine.schedule_in(self.interval, self._beat)

    def _declare(self, node: Hashable) -> None:
        if self._stopped or node in self.detected:
            return
        now = self.sim.engine.now
        self.detected[node] = now
        if self.on_detect is not None:
            self.on_detect(node, now)

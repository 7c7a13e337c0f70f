"""Online re-negotiation: the paper's synchronization-overhead question.

Section 5 leaves for future work "measuring the overhead incurred by the
global synchronization phase" when the root re-initiates BW-First on a
running platform.  This module stages the full scenario inside one
discrete-event simulation:

1. the platform executes the schedule negotiated for the *believed*
   weights;
2. at ``t_drift`` the physical platform changes (links slow down, CPUs
   throttle) — in-flight transfers finish at their old durations, new ones
   take the new times, and the stale schedule's achieved rate degrades;
3. at ``t_renegotiate`` the root re-runs BW-First against the *actual*
   platform.  The negotiation's messages occupy the very send ports that
   carry tasks: for every transaction, a control job of the message
   latency pre-empts the parent's and the child's port.  Its wall-clock
   comes from the latency-modelled protocol run;
4. when the root's acknowledgment arrives, every node switches to the new
   event-driven schedule in place (clock-free nodes just continue into the
   new bunch orders; the root re-anchors its release grid).

The result is a *throughput timeline* from which the report reads: the
rate before the drift, the degraded rate, the dip (if any) during the
negotiation window, and the recovered rate — which converges to the new
platform's exact optimum, as the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from ..analysis.throughput import measured_rate
from ..core.allocation import from_bw_first
from ..core.incremental import resolve_solver
from ..exceptions import SimulationError
from ..platform.tree import Tree
from ..protocol.runner import run_protocol
from ..schedule.periods import global_period
from ..sim.simulator import Simulation
from ..telemetry.core import Registry


@dataclass(frozen=True)
class OnlineReport:
    """Outcome of one online drift-and-renegotiate run.

    The re-negotiation's tallies live as ``online.*`` counters in
    ``telemetry``; ``negotiation_messages`` is a thin view over it."""

    old_optimum: Fraction
    new_optimum: Fraction
    rate_before_drift: Fraction
    rate_degraded: Fraction
    rate_recovered: Fraction
    t_drift: Fraction
    t_renegotiate: Fraction
    t_switched: Fraction
    timeline: Tuple[Tuple[Fraction, Fraction], ...]  # (window start, rate)
    result: object = None  # the full SimulationResult (trace inspection)
    telemetry: Registry = field(default_factory=Registry, repr=False)

    @property
    def negotiation_messages(self) -> int:
        """Protocol messages exchanged during the re-negotiation."""
        return self.telemetry.value("online.negotiation_messages")

    @property
    def negotiation_wallclock(self) -> Fraction:
        """Time between initiating the re-negotiation and switching."""
        return self.t_switched - self.t_renegotiate

    @property
    def recovery(self) -> Fraction:
        """Recovered rate as a fraction of the new optimum."""
        if self.new_optimum == 0:
            return Fraction(1)
        return self.rate_recovered / self.new_optimum


def online_renegotiation(
    believed: Tree,
    actual: Tree,
    drift_periods: int = 4,
    degraded_periods: int = 4,
    recovery_periods: int = 8,
    latency_factor=Fraction(1, 100),
    window: Optional[int] = None,
    telemetry: Optional[Registry] = None,
    solver=None,
) -> OnlineReport:
    """Run the full online scenario and measure the throughput timeline.

    Phase lengths are in *believed* global periods: the drift happens after
    ``drift_periods``, the root reacts after another ``degraded_periods``,
    and the run continues for ``recovery_periods`` of the **new** schedule's
    global period after the switch.  *window* (default: the believed global
    period) is the timeline resolution.  Pass ``telemetry=`` to mirror the
    run's ``online.*`` counters into an external registry.

    *solver* is ``None`` (a fresh solver) or a caller's
    :class:`~repro.core.incremental.IncrementalSolver` (see
    :func:`~repro.core.incremental.resolve_solver`): it solves the believed
    platform once, applies the drift as in-place ``w``/``c`` edits and
    re-solves only the dirty paths from cache, also handing the
    re-negotiation its verification reference.  *actual* must have
    *believed*'s topology — every node under the same parent — else
    :class:`~repro.exceptions.SimulationError`.
    """
    if set(believed.nodes()) != set(actual.nodes()) or any(
            actual.parent(node) != believed.parent(node)
            for node in actual.nodes()):
        raise SimulationError("believed and actual platforms must share topology")

    inc = resolve_solver(solver, believed, telemetry=telemetry)
    old_allocation = from_bw_first(inc.solve())
    # fragment-caching reconstruction: the post-drift rebuild below then
    # recomputes only the drifted nodes' root paths
    old_periods, old_schedules = inc.schedule_builder().build(old_allocation)
    old_t = global_period(old_periods, telemetry=telemetry, tree=believed)

    inc.apply_platform(actual)  # dirty-path re-fingerprint, cache kept
    new_result = inc.solve()
    new_allocation = from_bw_first(new_result)
    new_periods, new_schedules = inc.schedule_builder().build(new_allocation)
    new_t = global_period(new_periods, telemetry=telemetry, tree=actual)

    t_drift = Fraction(old_t * drift_periods)
    t_renegotiate = t_drift + old_t * degraded_periods

    # the negotiation against the actual platform (messages + wall-clock)
    negotiation = run_protocol(actual, latency_factor=latency_factor,
                               reference=new_result)
    registry = Registry()

    def count(name: str, amount: int) -> None:
        if amount:
            registry.counter(name).inc(amount)
            if telemetry is not None:
                telemetry.counter(name).inc(amount)

    count("online.negotiation_messages", negotiation.messages)
    count("online.transactions", negotiation.transactions)
    t_switched = t_renegotiate + negotiation.completion_time
    horizon = t_switched + Fraction(new_t * recovery_periods)

    sim = Simulation(
        believed,
        dict(old_schedules),
        dict(old_periods),
        horizon=horizon,
    )

    sim.engine.schedule_at(t_drift, lambda: sim.swap_platform(actual))

    def start_negotiation() -> None:
        # every transaction costs one control job on the proposing parent
        # and one on the acknowledging child
        for node, actor in negotiation.actors.items():
            for child, _beta, _theta in actor.transactions:
                latency = actual.c(child) * Fraction(latency_factor)
                sim.inject_control(node, latency)
                sim.inject_control(child, latency)

    sim.engine.schedule_at(t_renegotiate, start_negotiation)
    sim.engine.schedule_at(
        t_switched, lambda: sim.reconfigure(new_schedules, new_periods)
    )

    result = sim.run()

    w = Fraction(window if window is not None else old_t)
    timeline: List[Tuple[Fraction, Fraction]] = []
    start = Fraction(0)
    stop = result.stop_time if result.stop_time is not None else result.end_time
    while start + w <= stop:  # the wind-down tail is not part of the story
        timeline.append((start, measured_rate(result.trace, start, start + w)))
        start += w

    def rate(lo: Fraction, hi: Fraction) -> Fraction:
        return measured_rate(result.trace, lo, hi)

    return OnlineReport(
        old_optimum=old_allocation.throughput,
        new_optimum=new_allocation.throughput,
        rate_before_drift=rate(Fraction(0), t_drift),
        rate_degraded=rate(t_drift + old_t, t_renegotiate),
        rate_recovered=rate(
            t_switched + (horizon - t_switched) / 2, horizon
        ),
        t_drift=t_drift,
        t_renegotiate=t_renegotiate,
        t_switched=t_switched,
        timeline=tuple(timeline),
        result=result,
        telemetry=registry,
    )

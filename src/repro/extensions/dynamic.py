"""Dynamic adaptation: re-negotiating when the platform drifts (Section 5).

The paper sketches the strategy: the root monitors throughput and, when it
drops below a threshold, re-initiates the BW-First procedure to capture the
platform's new state — arguing the negotiation is negligible because its
messages are single numbers.  This module makes the scenario concrete:

1. the schedule is negotiated on the *believed* platform;
2. the platform drifts (some links slow down, some nodes slow down);
3. :func:`degraded_rate` simulates the **old** schedule running on the
   **new** platform (the simulator is work-conserving, so an overloaded link
   simply stretches the pipeline and the achieved rate drops);
4. re-running the protocol on the new platform restores the new optimum and
   its cost (messages, bytes, wall-clock) is measured.

Experiment E13 reports the drop, the recovery, and the negotiation overhead
relative to one steady-state period of task traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Mapping, Optional

from ..core.allocation import Allocation, from_bw_first
from ..core.bwfirst import bw_first
from ..core.incremental import resolve_solver
from ..core.rates import as_cost, as_weight
from ..exceptions import PlatformError
from ..platform.tree import Tree
from ..protocol.runner import ProtocolResult, run_protocol
from ..schedule.periods import global_period, tree_periods
from ..sim.simulator import simulate
from .. import analysis


def perturb(
    tree: Tree,
    edge_factors: Optional[Mapping[Hashable, object]] = None,
    node_factors: Optional[Mapping[Hashable, object]] = None,
) -> Tree:
    """A copy of *tree* with selected links/nodes slowed down (or sped up).

    *edge_factors* maps a node to the multiplier applied to its incoming
    edge's ``c``; *node_factors* maps a node to the multiplier applied to
    its ``w``.  Factors > 1 model degradation.
    """
    edge_factors = edge_factors or {}
    node_factors = node_factors or {}
    for name in list(edge_factors) + list(node_factors):
        if name not in tree:
            raise PlatformError(f"unknown node {name!r} in perturbation")

    def new_w(node):
        w = tree.w(node)
        if node in node_factors and not tree.is_switch(node):
            return w * as_cost(node_factors[node])
        return w

    out = Tree(tree.root, new_w(tree.root))
    for node in tree.nodes():
        if node == tree.root:
            continue
        c = tree.c(node)
        if node in edge_factors:
            c = c * as_cost(edge_factors[node])
        out.add_node(node, new_w(node), parent=tree.parent(node), c=c)
    return out


def degraded_rate(
    believed: Tree,
    actual: Tree,
    periods_to_run: int = 12,
    measure_tail: int = 4,
    allocation: Optional[Allocation] = None,
    periods=None,
    schedules=None,
) -> Fraction:
    """The rate the *believed* schedule actually achieves on *actual*.

    Runs the believed optimal event-driven schedule on the actual platform
    for ``periods_to_run`` believed global periods and measures the average
    rate over the last ``measure_tail`` of them.  *allocation* supplies an
    already-computed believed allocation so :func:`adapt` does not solve
    the believed platform twice; *periods*/*schedules* likewise accept an
    already-built reconstruction (e.g. a fragment-cached one).
    """
    if allocation is None:
        allocation = from_bw_first(bw_first(believed))
    if periods is None:
        periods = tree_periods(allocation)
    period = global_period(periods, tree=believed)
    horizon = Fraction(period) * periods_to_run
    # same schedule (allocation computed on the believed platform), executed
    # on the actual platform's link/node speeds
    from ..schedule.eventdriven import build_schedules
    from ..sim.simulator import Simulation

    if schedules is None:
        schedules = build_schedules(allocation, periods=periods)
    sim = Simulation(actual, schedules, periods, horizon=horizon)
    result = sim.run()
    start = Fraction(period) * (periods_to_run - measure_tail)
    return analysis.measured_rate(result.trace, start, horizon)


@dataclass(frozen=True)
class AdaptationReport:
    """Outcome of one drift-and-readapt scenario."""

    old_throughput: Fraction
    new_throughput: Fraction
    degraded_throughput: Fraction
    renegotiation: ProtocolResult

    @property
    def drop(self) -> Fraction:
        """Fraction of the old optimum lost by not adapting."""
        if self.old_throughput == 0:
            return Fraction(0)
        return 1 - self.degraded_throughput / self.old_throughput

    @property
    def recovered(self) -> Fraction:
        """Fraction of the new optimum recovered by re-negotiating (= 1)."""
        if self.new_throughput == 0:
            return Fraction(1)
        return self.renegotiation.throughput / self.new_throughput


def adapt(
    believed: Tree,
    actual: Tree,
    latency_factor=Fraction(1, 100),
    periods_to_run: int = 12,
    solver=None,
) -> AdaptationReport:
    """Quantify a drift scenario end to end (see the module docstring).

    The believed and actual platforms are each solved exactly **once**:
    the believed solution is reused by :func:`degraded_rate` (via its
    ``allocation=``) and the actual one is handed to
    :func:`~repro.protocol.runner.run_protocol` as its verification
    reference — the seed version solved each platform twice.  *solver*
    (``None`` or a caller's
    :class:`~repro.core.incremental.IncrementalSolver`, see
    :func:`~repro.core.incremental.resolve_solver`) makes the
    actual-platform solve incremental over the believed one; a drifted
    topology falls back to a full ``bw_first`` of *actual*.
    """
    inc = resolve_solver(solver, believed)
    old_result = inc.solve()
    old_allocation = from_bw_first(old_result)
    # reconstruct through the fragment cache *before* apply_platform
    # invalidates the solver's snapshot
    old_periods, old_schedules = inc.schedule_builder().build(old_allocation)
    try:
        inc.apply_platform(actual)
    except PlatformError:  # drifted topology: fall back to a full solve
        new_result = bw_first(actual)
    else:
        new_result = inc.solve()
    degraded = degraded_rate(believed, actual, periods_to_run=periods_to_run,
                             allocation=old_allocation,
                             periods=old_periods, schedules=old_schedules)
    renegotiation = run_protocol(actual, latency_factor=latency_factor,
                                 reference=new_result)
    return AdaptationReport(
        old_throughput=old_result.throughput,
        new_throughput=new_result.throughput,
        degraded_throughput=degraded,
        renegotiation=renegotiation,
    )

"""What the two simulators share: everything that does not know how time or
per-node state is represented.

:class:`~repro.sim.simulator.Simulation` (integer ticks, flat arrays) and
:class:`~repro.sim.reference.ReferenceSimulation` (``Fraction`` time, one
object per node) are kept independent on purpose — the second is the
oracle the first is tested against — so they share **no event handler**.
What lives here is the routing policy (:class:`Controller`), the result
record, argument validation, the root's rational release grid, and the
fault / reconfiguration entry points that only talk to ``self.tree``,
``self.controller`` and the engine's public clock API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Deque, Dict, Hashable, List, Mapping, Optional

from ..core.rates import ZERO
from ..exceptions import SimulationError
from ..platform.tree import Tree
from ..schedule.eventdriven import NodeSchedule
from ..schedule.periods import NodePeriods
from ..telemetry.core import Registry
from .tracing import Trace


class Controller:
    """Routing policy: decides each task's destination and compute gating.

    The default implementation routes by the event-driven bunch order and
    always allows computing (the paper's Section 7 strategy).
    """

    def __init__(self, schedules: Mapping[Hashable, NodeSchedule]):
        self.schedules = schedules
        #: schedules of nodes dropped by a reconfiguration: such a node
        #: drains its residual tasks by the order it had when it was retired
        self.retired: Dict[Hashable, NodeSchedule] = {}

    def destination(self, node: Hashable, arrival_index: int) -> Hashable:
        """Destination of the ``arrival_index``-th task received by *node*."""
        schedule = self.schedules.get(node)
        if schedule is None:
            schedule = self.retired.get(node)
            if schedule is None:
                raise SimulationError(
                    f"task delivered to {node!r}, which has no schedule"
                )
        return schedule.destination(arrival_index)

    def may_compute(self, node: Hashable, arrivals: int) -> bool:
        """Whether *node*, having received *arrivals* tasks so far, may
        start computing right now."""
        return True


class BufferedStartController(Controller):
    """The traditional start-up baseline (Section 7's strawman).

    A node performs no useful computation until it has received its full
    steady-state buffer of ``χ_in`` tasks; forwarding is unrestricted.  The
    root (which holds the supply) computes from the start.
    """

    def __init__(
        self,
        schedules: Mapping[Hashable, NodeSchedule],
        thresholds: Mapping[Hashable, int],
        root: Hashable,
    ):
        super().__init__(schedules)
        self.thresholds = thresholds
        self.root = root

    def may_compute(self, node: Hashable, arrivals: int) -> bool:
        if node == self.root:
            return True
        return arrivals >= self.thresholds.get(node, 0)


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    trace: Trace
    tree: Tree
    schedules: Mapping[Hashable, NodeSchedule]
    periods: Mapping[Hashable, NodePeriods]
    released: int
    stop_time: Optional[Fraction]  # when the root stopped releasing
    end_time: Fraction
    tasks_lost: int = 0  # tasks destroyed by node crashes (incl. in flight)
    failed_at: Mapping[Hashable, Fraction] = field(default_factory=dict)
    #: the global-period boundary whose state the next one repeated, after
    #: which whole periods were written, not stepped (``None``: all stepped)
    periodic_from: Optional[Fraction] = field(default=None, compare=False)

    @property
    def completed(self) -> int:
        return self.trace.completed

    @property
    def wind_down(self) -> Optional[Fraction]:
        """Time from supply cut-off to the last task completion."""
        if self.stop_time is None or not self.trace.completed:
            return None
        return max(self.end_time - self.stop_time, ZERO)


class SimulationBase:
    """One configured simulation run over a tree + schedules.

    The trace, ``failed_at``, telemetry values and every public attribute
    are exact Fractions whichever subclass runs.  A subclass builds its
    engine and per-node state in ``_build_state(overlap)`` and supplies the
    event handlers — ``_schedule_period(k, origin, generation)`` and
    everything downstream of a release — plus ``_is_dead(node)`` (``None``
    for a node the run never had), ``_kill(node)``, ``_platform_changed()``
    (re-read weights, costs and topology from ``self.tree``),
    ``dead_nodes()``, ``revive_node`` and ``inject_control``.
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
    ):
        if horizon is None and supply is None:
            raise SimulationError("give a horizon, a supply, or both")
        if root_pacing not in ("even", "marks", "burst"):
            raise SimulationError(f"unknown root pacing {root_pacing!r}")
        if not record_events and (record_segments or record_buffers):
            raise SimulationError(
                "record_events=False (counts-only tracing) requires "
                "record_segments=False and record_buffers=False")
        self.root_pacing = root_pacing
        self._record_segments = record_segments
        self._record_buffers = record_buffers
        self._record_events = record_events
        self.tree = tree
        self.schedules = schedules
        self.periods = periods
        self.controller = controller or Controller(schedules)
        self.horizon = Fraction(horizon) if horizon is not None else None
        self.supply = supply
        self.max_events = max_events

        self.trace = Trace(record_segments=record_segments,
                           record_buffers=record_buffers,
                           record_events=record_events)
        #: optional live metrics: per-node task/busy/buffer counters land in
        #: this registry as the run unfolds (None = seed behaviour, no cost)
        self.telemetry = telemetry
        self._released = 0
        self._stop_time: Optional[Fraction] = None
        self._generation = 0  # bumped by reconfigure() to retire old chains
        #: node → queued ``(duration, callback)`` control jobs, durations in
        #: the subclass's time unit
        self._control_jobs: Dict[Hashable, Deque] = {}
        self.tasks_lost = 0
        self.failed_at: Dict[Hashable, Fraction] = {}
        #: optional (parent, child, now) → Fraction multiplier on transfer
        #: times, used by fault injection for transient link degradation
        self._link_factor: Optional[Callable] = None
        #: called as ``observe(node)`` right after a node died (the
        #: heartbeat monitor wakes for these instead of polling)
        self._death_observers: List[Callable[[Hashable], None]] = []
        self._build_state(overlap or {})

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _tel_buffer(self, node: Hashable, level: int) -> None:
        """Track a node's buffer occupancy (gauge: current; histogram:
        distribution of levels seen)."""
        self.telemetry.gauge("sim.buffer", node=node).set(level)
        self.telemetry.histogram("sim.buffer_levels", node=node).observe(level)

    # ------------------------------------------------------------------
    # root release grid
    # ------------------------------------------------------------------
    def _root_schedule(self) -> NodeSchedule:
        schedule = self.schedules.get(self.tree.root)
        if schedule is None:
            raise SimulationError("the root has no schedule — empty allocation?")
        return schedule

    def _release_offsets(self, schedule: NodeSchedule) -> List[Fraction]:
        """Within-period release times of the root's bunch, per pacing mode.

        * ``even`` (default): the j-th designation at ``j·T^w/Ψ`` — uniform
          dissemination along the period;
        * ``marks``: at the interleave mark positions ``k/(ψ+1)`` scaled to
          ``T^w`` (Section 6.3's geometric construction taken literally);
        * ``burst``: the whole bunch at the period start (a naive clocked
          root; the steady rates still hold, buffering suffers).

        Pure rational values, whatever time unit the subclass runs on.
        """
        t_w = Fraction(schedule.periods.t_consume)
        bunch = schedule.bunch
        if self.root_pacing == "even":
            spacing = t_w / bunch
            return [j * spacing for j in range(bunch)]
        if self.root_pacing == "burst":
            return [ZERO] * bunch
        if self.root_pacing == "marks":
            marks = []
            for i, dest in enumerate(
                [d for d in schedule.quantities]
            ):
                count = schedule.quantities[dest]
                gap = Fraction(1, count + 1)
                for k in range(1, count + 1):
                    marks.append((k * gap, count, i))
            marks.sort()
            return [pos * t_w for pos, _, _ in marks]
        raise SimulationError(f"unknown root pacing {self.root_pacing!r}")

    # ------------------------------------------------------------------
    # fault injection (used by repro.faults)
    # ------------------------------------------------------------------
    def fail_node(self, node: Hashable) -> None:
        """Crash *node* right now (fail-stop).

        Everything the node holds is destroyed and counted in
        ``tasks_lost``: its buffered tasks (including the one being
        computed and the one its port is pushing out), its compute queue
        and its send queue.  A transfer *into* the node that is already on
        the wire completes at the parent — single-port sends are
        non-interruptible — and the task is lost on delivery.  The node's
        descendants keep running; until a recovery prunes them they starve,
        which is exactly the behaviour :func:`~repro.faults.recovery.resilient_run`
        measures.  The root cannot fail (it owns the task supply; a dead
        root is a dead application, not a recoverable fault).
        """
        if node == self.tree.root:
            raise SimulationError("the root cannot fail: it owns the supply")
        dead = self._is_dead(node)
        if dead is None:
            raise SimulationError(f"cannot fail unknown node {node!r}")
        if not dead:
            self._died(node)

    def fail_root(self) -> None:
        """Crash the acting master right now (the root-failover scenario).

        Unlike :meth:`fail_node`, here the root *is* allowed to die — the
        caller promises an election follows (:meth:`failover_root` plus
        :meth:`reconfigure` at the recovery switch).  The release chain is
        retired immediately: a dead master releases nothing.
        """
        root = self.tree.root
        if self._is_dead(root):
            return
        self._generation += 1  # retire pending release chains
        self._died(root)

    def _died(self, node: Hashable) -> None:
        """Kill *node* and tell whoever asked to hear of deaths."""
        self._kill(node)
        for observe in self._death_observers:
            observe(node)

    def failover_root(self, new_root: Hashable) -> None:
        """Promote *new_root* after the master died (the election outcome).

        Requires the current root to be dead (:meth:`fail_root` ran) and
        *new_root* to be one of its live children.  The tree is re-rooted
        in place — the old root leaves, its remaining children re-parent
        under *new_root* at their original edge costs — and the duration
        tables are refreshed.  The caller installs the new root's schedules
        via :meth:`reconfigure`, typically in the same callback, so no
        release can fall in between.
        """
        if not self._is_dead(self.tree.root):
            raise SimulationError(
                "failover requires the current root to be dead"
            )
        if self._is_dead(new_root) is not False:
            raise SimulationError(f"cannot elect {new_root!r}: unknown or dead")
        self.tree.failover_root(new_root)
        self._platform_changed()
        if self.telemetry is not None:
            self.telemetry.counter("sim.failovers").inc()

    def schedule_failure(self, node: Hashable, time) -> None:
        """Arrange for *node* to crash at virtual *time*."""
        self.engine.schedule_at(Fraction(time), lambda: self.fail_node(node))

    def set_link_time_factor(self, factor: Optional[Callable]) -> None:
        """Install a ``(parent, child, start_time) → Fraction`` multiplier
        applied to every task-transfer duration — transient link
        degradation.  ``None`` removes it.  Transfers already in progress
        keep their original duration."""
        self._link_factor = factor

    # ------------------------------------------------------------------
    # online reconfiguration (used by repro.extensions.online)
    # ------------------------------------------------------------------
    def swap_platform(self, tree: Tree) -> None:
        """The physical platform drifted: costs/weights change in place.

        *tree* must have the same topology; transfers and computations
        already in progress finish at their old durations, new ones use the
        new values.
        """
        if set(tree.nodes()) != set(self.tree.nodes()):
            raise SimulationError("swap_platform requires the same topology")
        self.tree = tree
        self._platform_changed()

    def reconfigure(self, schedules: Mapping[Hashable, NodeSchedule],
                    periods: Mapping[Hashable, NodePeriods]) -> None:
        """Switch every node to new event-driven *schedules* right now.

        The old root release chain is retired and a new one starts
        immediately, anchored at the current time; clock-free nodes keep
        their arrival counters and simply continue into the new bunch
        orders (nodes dropped from the new schedules drain residual tasks
        by their retired orders).
        """
        # merge with schedules retired by earlier reconfigurations: a node
        # pruned two epochs ago may still be draining its residual buffer
        retired = dict(self.controller.retired)
        retired.update(self.schedules)
        self.schedules = dict(schedules)
        self.periods = dict(periods)
        self.controller.schedules = self.schedules
        self.controller.retired = retired
        self._generation += 1
        origin = self.engine.now
        self.engine.schedule_at(
            origin,
            lambda g=self._generation: self._schedule_period(0, origin, g),
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run to completion: release until horizon/supply, then drain."""
        if self.telemetry is not None and self.horizon is not None:
            self.telemetry.gauge("sim.horizon").set(self.horizon)
        self._schedule_period(0)
        periodic_from = self._drive()
        if self.telemetry is not None:
            self.telemetry.gauge("sim.events_processed").set(
                self.engine.processed)
        stop = self._stop_time
        if stop is None and self.horizon is not None:
            stop = self.horizon
        return SimulationResult(
            trace=self.trace,
            tree=self.tree,
            schedules=self.schedules,
            periods=self.periods,
            released=self._released,
            stop_time=stop,
            end_time=self.trace.end_time,
            tasks_lost=self.tasks_lost,
            failed_at=dict(self.failed_at),
            periodic_from=periodic_from,
        )

    def _drive(self) -> Optional[Fraction]:
        """Run the engine dry, stepping every event; return where the run
        stopped being stepped (never, here)."""
        self.engine.run_all(max_events=self.max_events)
        return None

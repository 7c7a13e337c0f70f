"""The reference simulator: one ``Fraction`` per event, one object per node.

This is the oracle :class:`~repro.sim.simulator.Simulation` is tested
against (the kernel-equivalence suite: bit-identical traces on 25 seeded
trees under crashes, re-joins, reconfiguration, control traffic and
custom controllers, plus digests pinned from before the two classes were
separated).  It is deliberately the plainest possible statement of the
model — name-keyed node objects, the heap :class:`~repro.sim.engine.Engine`
with its ``(time, seq)`` ordering, one ``controller.destination`` call per
arrival — and shares no event handler with the production class, so a bug
in one cannot hide in the other.  Several times slower; never the default.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Deque, Dict, Hashable, List

from ..core.rates import ZERO, is_infinite
from ..exceptions import SimulationError
from .base import SimulationBase
from .engine import Engine
from .tracing import COMPUTE, CTRL, RECV, SEND


class _SimNode:
    """Mutable per-node simulation state."""

    __slots__ = (
        "name", "w", "compute_queue", "send_queue", "computing",
        "sending", "receiving", "arrivals", "buffered", "overlap", "dead",
    )

    def __init__(self, name: Hashable, overlap: bool = True) -> None:
        self.name = name
        self.w = None  # filled from the tree by _platform_changed()
        self.compute_queue = 0
        self.send_queue: Deque[Hashable] = deque()
        self.computing = False
        self.sending = False
        self.receiving = False
        self.arrivals = 0  # tasks received (or released, for the root)
        self.buffered = 0  # tasks currently held at the node
        self.overlap = overlap  # can compute and communicate simultaneously
        self.dead = False  # crashed: drops everything, does nothing


class ReferenceSimulation(SimulationBase):
    """:class:`~repro.sim.base.SimulationBase` on exact rational time."""

    def _build_state(self, overlap) -> None:
        self.engine = Engine()
        self.nodes: Dict[Hashable, _SimNode] = {
            n: _SimNode(n, overlap=overlap.get(n, True))
            for n in self.tree.nodes()
        }
        self._platform_changed()

    def _platform_changed(self) -> None:
        tree = self.tree
        for node in tree.nodes():
            self.nodes[node].w = tree.w(node)
        self._cost = {
            (tree.parent(n), n): tree.c(n)
            for n in tree.nodes() if tree.parent(n) is not None
        }

    def _is_dead(self, node: Hashable):
        state = self.nodes.get(node)
        return None if state is None else state.dead

    def dead_nodes(self) -> List[Hashable]:
        """Every currently-crashed node, in tree order."""
        return [name for name, state in self.nodes.items() if state.dead]

    # ------------------------------------------------------------------
    # root release driver
    # ------------------------------------------------------------------
    def _schedule_period(self, k: int, origin: Fraction = ZERO,
                         generation: int = 0) -> None:
        """Lazily schedule the k-th bunch of root releases.

        *origin* anchors the period grid (non-zero after a reconfiguration);
        a stale *generation* means :meth:`reconfigure` retired this chain.
        """
        if generation != self._generation:
            return
        schedule = self._root_schedule()
        t_w = Fraction(schedule.periods.t_consume)
        offsets = self._release_offsets(schedule)
        start = origin + k * t_w
        stopped = False
        for j, dest in enumerate(schedule.order):
            t = start + offsets[j]
            if self.horizon is not None and t >= self.horizon:
                stopped = True
                break
            if self.supply is not None and self._released >= self.supply:
                stopped = True
                break
            self._released += 1
            self.engine.push(
                t, lambda d=dest, g=generation: self._release(d, g)
            )
        if stopped:
            # remember when the supply was effectively cut
            if self._stop_time is None:
                self._stop_time = t
        else:
            self.engine.push(
                start + t_w,
                lambda g=generation: self._schedule_period(k + 1, origin, g),
            )

    def _release(self, dest: Hashable, generation: int = 0) -> None:
        """The root releases one task designated for *dest*."""
        if generation != self._generation:
            self._released -= 1  # the retired chain never released this task
            return
        root = self.tree.root
        state = self.nodes[root]
        state.arrivals += 1
        state.buffered += 1
        if self._record_events:
            now = self.engine.now
            self.trace.add_release(now, dest)
            if self._record_buffers:
                self.trace.add_buffer_delta(now, root, +1)
        if self.telemetry is not None:
            self.telemetry.counter("sim.tasks_released", node=root).inc()
            self._tel_buffer(root, state.buffered)
        self._route(root, dest)

    # ------------------------------------------------------------------
    # task movement
    # ------------------------------------------------------------------
    def _route(self, node: Hashable, dest: Hashable) -> None:
        state = self.nodes[node]
        if dest == node:
            if is_infinite(state.w):
                raise SimulationError(f"switch {node!r} was routed a compute task")
            state.compute_queue += 1
            self._try_start_compute(node)
        else:
            if dest not in self.tree.children(node):
                raise SimulationError(f"{node!r} cannot send to non-child {dest!r}")
            state.send_queue.append(dest)
            self._try_start_send(node)

    def _deliver(self, node: Hashable) -> None:
        """A task transfer to *node* just completed."""
        state = self.nodes[node]
        if state.dead:
            self.tasks_lost += 1  # delivered into a crashed node
            if self.telemetry is not None:
                self.telemetry.counter("sim.tasks_lost", node=node).inc()
            return
        index = state.arrivals
        state.arrivals += 1
        state.buffered += 1
        if self._record_events:
            now = self.engine.now
            self.trace.add_arrival(now, node)
            if self._record_buffers:
                self.trace.add_buffer_delta(now, node, +1)
        if self.telemetry is not None:
            self.telemetry.counter("sim.tasks_received", node=node).inc()
            self._tel_buffer(node, state.buffered)
        dest = self.controller.destination(node, index)
        self._route(node, dest)
        # a threshold controller may have just unblocked computing
        self._try_start_compute(node)

    def _try_start_compute(self, node: Hashable) -> None:
        state = self.nodes[node]
        if state.dead:
            return
        if state.computing or state.compute_queue == 0:
            return
        if not state.overlap and (state.sending or state.receiving):
            return  # a no-overlap node cannot compute while communicating
        if not self.controller.may_compute(node, state.arrivals):
            return
        state.computing = True
        state.compute_queue -= 1
        start = self.engine.now
        end = start + state.w
        self.trace.add_segment(node, COMPUTE, start, end)
        if self.telemetry is not None:
            self.telemetry.counter("sim.busy_time", node=node,
                                   resource="cpu").inc(state.w)
        self.engine.push(end, lambda: self._compute_done(node))

    def _compute_done(self, node: Hashable) -> None:
        state = self.nodes[node]
        if state.dead:
            return  # the task died with the node (already counted lost)
        state.computing = False
        state.buffered -= 1
        now = self.engine.now
        self.trace.add_completion(now, node)  # counts only, in that mode
        if self._record_buffers:
            self.trace.add_buffer_delta(now, node, -1)
        if self.telemetry is not None:
            self.telemetry.counter("sim.tasks_computed", node=node).inc()
            self._tel_buffer(node, state.buffered)
            # live-throughput probes: the engine's event cursor and the
            # virtual clock, refreshed on every completion so a streaming
            # registry can render progress and event rate without touching
            # the hot path of untelemetered runs
            self.telemetry.gauge("sim.events_processed").set(
                self.engine.processed)
            self.telemetry.gauge("sim.clock").set(now)
        # communication gets priority at a no-overlap node: first release a
        # parent transfer held back by our computing, then our own port,
        # then (if still allowed) the next local task
        parent = self.tree.parent(node)
        if parent is not None:
            self._try_start_send(parent)
        self._try_start_send(node)
        self._try_start_compute(node)

    def _try_start_send(self, node: Hashable) -> None:
        state = self.nodes[node]
        if state.dead or state.sending:
            return
        if not state.overlap and state.computing:
            return  # a no-overlap node cannot send while computing
        # control messages (reconfiguration traffic) pre-empt task transfers
        jobs = self._control_jobs.get(node)
        if jobs:
            duration, callback = jobs.popleft()
            state.sending = True
            start = self.engine.now
            end = start + duration
            self.trace.add_segment(node, CTRL, start, end)
            if self.telemetry is not None:
                self.telemetry.counter("sim.ctrl_jobs", node=node).inc()
                self.telemetry.counter("sim.busy_time", node=node,
                                       resource="send").inc(duration)

            def ctrl_done() -> None:
                state.sending = False
                if callback is not None:
                    callback()
                self._try_start_send(node)
                self._try_start_compute(node)

            self.engine.push(end, ctrl_done)
            return
        if not state.send_queue:
            return
        # an in-order transfer to a no-overlap child waits for its CPU
        head = state.send_queue[0]
        head_state = self.nodes[head]
        if not head_state.overlap and head_state.computing:
            return  # the child's compute completion will wake us
        child = state.send_queue.popleft()
        state.sending = True
        self.nodes[child].receiving = True
        start = self.engine.now
        cost = self._cost[(node, child)]
        if self._link_factor is not None:
            cost = (self.tree.edge_cost(node, child)
                    * Fraction(self._link_factor(node, child, start)))
        end = start + cost
        self.trace.add_segment(node, SEND, start, end, peer=child)
        self.trace.add_segment(child, RECV, start, end, peer=node)
        if self.telemetry is not None:
            self.telemetry.counter("sim.busy_time", node=node,
                                   resource="send").inc(cost)
            self.telemetry.counter("sim.busy_time", node=child,
                                   resource="recv").inc(cost)
        self.engine.push(end, lambda: self._send_done(node, child))

    def _send_done(self, node: Hashable, child: Hashable) -> None:
        state = self.nodes[node]
        if state.dead:
            # the sender crashed mid-transfer: the task was counted lost at
            # crash time; just release the child's receive port
            self.nodes[child].receiving = False
            return
        state.sending = False
        state.buffered -= 1
        self.nodes[child].receiving = False
        if self._record_buffers:
            self.trace.add_buffer_delta(self.engine.now, node, -1)
        if self.telemetry is not None:
            self.telemetry.counter("sim.tasks_forwarded", node=node,
                                   child=child).inc()
            self._tel_buffer(node, state.buffered)
        self._deliver(child)
        self._try_start_send(node)
        # a no-overlap node's CPU may have been waiting on the port
        self._try_start_compute(node)

    # ------------------------------------------------------------------
    # fault injection and online reconfiguration: the state-touching halves
    # ------------------------------------------------------------------
    def _kill(self, node: Hashable) -> None:
        """Fail-stop body: destroy *node*'s state, count the losses."""
        state = self.nodes[node]
        now = self.engine.now
        state.dead = True
        self.failed_at[node] = now
        if self.telemetry is not None:
            self.telemetry.counter("sim.crashes", node=node).inc()
            self.telemetry.record_span("crash", now, now, node=node,
                                       buffered=state.buffered)
        if state.buffered > 0:
            self.tasks_lost += state.buffered
            self.trace.add_buffer_delta(now, node, -state.buffered)
            if self.telemetry is not None:
                self.telemetry.counter("sim.tasks_lost",
                                       node=node).inc(state.buffered)
                self._tel_buffer(node, 0)
            state.buffered = 0
        state.compute_queue = 0
        state.send_queue.clear()
        state.computing = False
        state.sending = False  # _send_done's dead-sender guard frees the child
        self._control_jobs.pop(node, None)

    def revive_node(self, node: Hashable) -> None:
        """Bring a crashed *node* back, repaired and empty.

        A no-op for a live node, so rejoin events can be armed
        unconditionally.  The node returns with clean buffers and a free
        port; its crash history in ``failed_at`` is kept for reporting.
        It rejoins the *task flow* only once a reconfiguration routes work
        to it again.
        """
        if node not in self.nodes:
            raise SimulationError(f"cannot revive unknown node {node!r}")
        state = self.nodes[node]
        if not state.dead:
            return
        state.dead = False
        state.receiving = False
        state.computing = False
        state.sending = False
        if self.telemetry is not None:
            now = self.engine.now
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
        if self.nodes[node].dead:
            return
        self._control_jobs.setdefault(node, deque()).append(
            (Fraction(duration), callback)
        )
        self._try_start_send(node)


"""The task data plane: real payloads executed under the negotiated rates.

One :class:`TaskPlaneNode` engine per platform node, one coroutine per
engine: a **dispatcher** serving one run-queue.  The engine *is* its node's
mailbox — a transport's ``put_nowait`` appends the frame and resolves the
dispatcher's waiter — and whatever is timed arrives in the same queue, as a
marker pushed by a ``call_later`` somebody waits for.  Nothing polls.  One
pass of the dispatcher is a **burst**:

* **frames** — every queued item goes to its handler, one table keyed by
  type: task delivery (end-to-end payload checksum → ``tack`` or ``tnak``,
  first-delivery dedup), acks/naks into the retention buffer (only from the
  child the copy is held for), credit grants, result relay toward the root,
  the Stop/Stopped cascade.  Stray control :class:`Message`\\ s left over
  from negotiation on a reused transport are counted and ignored;
* **route**, once per burst — the node's event-driven schedule (Section
  6.2, :class:`~repro.schedule.eventdriven.NodeSchedule`): the j-th task it
  takes (the root: generates) goes to ``destination(j)``, the worker or a
  child.  A destination that cannot take it — the worker with both slots
  in use, a child without a credit — stops routing until a frame or a
  timer changes that.  Each bunch splits exactly as the solver did, which
  is what makes measured throughput converge to ``λ_root − θ_root``;
* **serve** — the send port and the worker are two deques of slots on an
  absolute ``busy_until`` horizon (``c_child · time_scale`` wall seconds per
  transfer; ``time_scale / r`` per execution — full speed, the schedule's
  share of the tasks throttles it down to exactly ``α``).  A head whose
  slot has ended is served in line — transmitted through the seeded
  data-plane fault filter, or executed and reported up the tree; any other
  head is what its deque's one timer waits for;
* **settle** — once generation has stopped, ``completed == generated`` and
  every retention copy is released, the root sends Stop to *all* children
  (active or not, so every engine exits through the tree protocol); a child
  drains locally, cascades Stop, collects Stopped from its whole subtree
  and only then reports Stopped upward;
* **write** — what the burst produced leaves in one ``send(*frames)``, in
  the order produced.  Per-edge FIFO (in-proc delivery, TCP per socket)
  guarantees a child's last result precedes its Stopped, so the accounting
  the root asserted cannot be overtaken by shutdown.

Three timers, each armed only while somebody waits for it: ``port`` and
``cpu`` for the head of their deque, ``sweep`` while a retention copy is
outstanding.

:class:`TaskPlane` orchestrates a run on one event loop: negotiate with
the real :class:`~repro.runtime.runtime.Runtime` (``close_transport=False``
— payload frames then reuse the very sockets the negotiation opened),
build engines from the verified allocation, execute, drain, and return a
:class:`TaskPlaneReport` comparing measured throughput to the solver's
optimum and peak buffer occupancy to the analytic bound.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Union

from ..analysis.buffers import taskplane_buffer_bounds
from ..core.allocation import Allocation, from_bw_first
from ..core.bwfirst import bw_first
from ..exceptions import TaskPlaneError
from ..faults.inject import GARBLED, LOST, LinkFaultDecider
from ..faults.plan import FaultPlan
from ..platform.tree import Tree
from ..protocol.messages import Acknowledgment, Proposal
from ..runtime.runtime import Runtime, _make_transport, refuse_running_loop
from ..runtime.transport import Transport
from ..schedule.eventdriven import NodeSchedule, build_schedules
from ..schedule.periods import tree_periods
from ..telemetry.core import NULL, Registry
from .buffers import BoundedBuffer, CreditAccount
from .frames import (CreditGrant, DeliveryAck, ResendRequest, ResultReport,
                     Stop, Stopped, TaskFrame, make_task)
from .ledger import DeliveryLog, RetentionBuffer, TaskLedger
from .worker import WorkerPool

#: Default wall seconds per virtual time unit.  At 0.02 s/unit the
#: reference Fig. 4 tree (throughput 10/9 per unit) completes ~55 tasks/s
#: — fast enough for CI, slow enough that 1 ms scheduler jitter stays well
#: inside the convergence tolerance.
DEFAULT_TIME_SCALE = 0.02


def default_payload(task_id: int, size: int = 64) -> bytes:
    """Deterministic opaque payload: the task id tiled to *size* bytes."""
    stamp = task_id.to_bytes(8, "big")
    return (stamp * (size // 8 + 1))[:size]


def check_launch(max_tasks: Optional[int], duration: Optional[float],
                 time_scale: float) -> None:
    """Refuse, before anything is spawned or dialled, a run no launcher
    can honour: one with no way to stop, a negative *max_tasks*, a
    *duration* or a *time_scale* that is not ``> 0`` (NaN included)."""
    if max_tasks is None and duration is None:
        raise TaskPlaneError("need max_tasks and/or duration to stop")
    if max_tasks is not None and max_tasks < 0:
        raise TaskPlaneError(f"max_tasks must be >= 0, got {max_tasks}")
    if duration is not None and not duration > 0:
        raise TaskPlaneError(f"duration must be > 0, got {duration}")
    if not time_scale > 0:
        raise TaskPlaneError(f"time_scale must be > 0, got {time_scale}")


@dataclass(frozen=True, slots=True)
class ChildLink:
    """One active tree edge as the parent's engine sees it."""

    name: Hashable
    c: Fraction          # transfer time per task (virtual units)
    capacity: int        # the child's analytic buffer capacity


class TaskPlaneNode:
    """The per-node engine; see the module docstring for the burst."""

    def __init__(
        self,
        name: Hashable,
        *,
        clock: Callable[[], float],
        send: Callable,                 # async send(*frames): a burst
        parent: Optional[Hashable],
        links: List[ChildLink],         # the children the schedule names
        all_children: List[Hashable],   # every tree child (for Stop)
        schedule: Optional[NodeSchedule],   # None: the node takes no task
        rate: Fraction,                 # full compute rate r = 1/w
        capacity: int,                  # own inbound buffer bound
        time_scale: float,
        plan: Optional[FaultPlan] = None,
        registry: Registry = NULL,
        resend_timeout: float = 0.3,
        ledger: Optional[TaskLedger] = None,   # root only
        max_tasks: Optional[int] = None,       # root only
        payload_factory: Callable[[int], bytes] = default_payload,
        exec_kind: str = "bytes",
        keep_results: bool = False,
    ):
        self.name = name
        self.clock = clock
        self.send = send
        self.parent = parent
        self.links = {link.name: link for link in links}
        self.all_children = list(all_children)
        self._decider = LinkFaultDecider(plan)
        self.registry = registry
        #: the disabled telemetry path is one truth test per hook
        self._live = registry.enabled
        self.resend_timeout = resend_timeout
        self.is_root = parent is None
        self.ledger = ledger
        self.max_tasks = max_tasks
        self.payload_factory = payload_factory
        self.exec_kind = exec_kind

        self.buffer = BoundedBuffer(capacity) if not self.is_root else None
        self.credits = CreditAccount({l.name: l.capacity for l in links})
        self.retention = RetentionBuffer()
        self.delivery = DeliveryLog()
        destinations = set(schedule.quantities) if schedule else set()
        if destinations - {name} != self.links.keys():
            raise TaskPlaneError(f"{name!r}'s schedule sends to other "
                                 "children than its links lead to")
        self.schedule = schedule
        #: j: the tasks taken (the root: generated) and routed so far
        self._taken = 0
        self.worker = (WorkerPool(rate, time_scale, keep_results)
                       if name in destinations else None)
        #: wall seconds one transfer to each child occupies the send port
        self._cost = {link.name: float(link.c) * time_scale for link in links}
        #: the paced resources: (slot end, task frame[, child]) in the order
        #: routed, served from the head
        self._port, self._cpu = deque(), deque()
        self._port_busy_until = 0.0

        #: the run-queue (frames, and the markers of timers that expired),
        #: what the burst wrote, the armed timers as marker → (handle, due)
        self._queue: deque = deque()
        self._out: list = []
        self._timers: Dict[str, tuple] = {}
        self._waiter: Optional[asyncio.Future] = None
        self._handlers = {
            TaskFrame: self._on_task,
            DeliveryAck: self._on_ack,
            ResendRequest: self._on_nak,
            CreditGrant: self._on_credit,
            ResultReport: self._on_result,
            Stop: self._on_stop,
            Stopped: self._on_stopped,
            Proposal: self._on_stray,      # negotiation leftovers, harmless
            Acknowledgment: self._on_stray,
            str: self._on_marker,
        }

        self.generation_stopped = max_tasks == 0
        #: wall time the root's supply dried up — the end of the honest
        #: throughput-measurement window (the drain tail runs at the pace
        #: of the slowest subtree, not at steady-state rate)
        self.generation_stopped_at: Optional[float] = None
        self._stop_received = self._stop_sent = False
        self._stopped_children: set = set()
        self.done = False

        # counters surfaced in the report (resend_requests: tnaks issued)
        self.resends = self.resend_requests = self.stray_control = 0
        self.injected_drops = self.injected_corruptions = 0

    # ------------------------------------------------------------------
    # what a launcher needs: the mailbox, the coroutine to run, the supply
    # switch, the books
    # ------------------------------------------------------------------
    def put_nowait(self, item) -> None:
        """The mailbox a transport delivers into: queue *item* — a frame,
        or the marker of a timer that expired — and wake the dispatcher."""
        self._queue.append(item)
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def wake(self) -> None:
        """Have the dispatcher look again: run a burst with no frame."""
        self.put_nowait("wake")

    def loops(self) -> list:
        """The engine's coroutines, one task each, for whoever launches it
        (the in-process plane, a cluster node process): the dispatcher."""
        return [self._dispatch()]

    def stop_generation(self) -> None:
        """The root's supply dries up — *max_tasks* generated, or the
        launcher's *duration* timer: stamp the end of the measurement
        window (once) and have the drain condition looked at."""
        if not self.generation_stopped:
            self.generation_stopped = True
            self.generation_stopped_at = self.clock()
        self.wake()

    def stats(self) -> dict:
        """This engine's counters, picklable; the root's carry the ledger.
        :meth:`TaskPlaneReport.from_stats` sums them over the platform."""
        stats = {
            **{key: getattr(self, key) for key in (
                "resends", "resend_requests", "injected_drops",
                "injected_corruptions", "stray_control")},
            "stray_acks": self.retention.strays,
            "peak": self.buffer.peak if self.buffer is not None else None,
            "worker_completed": (self.worker.completed
                                 if self.worker is not None else None),
        }
        if self.is_root:
            ledger = self.ledger
            stats.update(
                generated=ledger.generated,
                completed=ledger.completed,
                duplicates=ledger.duplicates, stray_results=ledger.strays,
                rate=ledger.steady_rate(until=self.generation_stopped_at),
                wall=self.clock(),
            )
        return stats

    # ------------------------------------------------------------------
    # the dispatcher
    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        """The engine's one task and single ordered writer: serve what is
        queued, advance the schedule, write what that produced, and wait —
        for a delivery or for a timer somebody armed — only with nothing
        queued.  Returns once the node has drained and said so."""
        loop = asyncio.get_running_loop()
        queue, handlers, out, send = (self._queue, self._handlers, self._out,
                                      self.send)
        try:
            while True:
                while queue:
                    item = queue.popleft()
                    handler = handlers.get(type(item))
                    if handler is None:
                        raise TaskPlaneError(f"{self.name!r} received "
                                             f"unroutable frame {item!r}")
                    handler(item)
                self._advance(self.clock())
                if out:
                    await send(*out)
                    out.clear()
                if self.done:
                    return
                if not queue:
                    self._waiter = loop.create_future()
                    try:
                        await self._waiter
                    finally:
                        self._waiter = None
        finally:
            for handle, _ in self._timers.values():
                handle.cancel()
            self._timers.clear()

    def _arm(self, marker: str, due: float, now: float) -> None:
        """Have *marker* queued at clock time *due*, unless it already is
        to be no later than that."""
        armed = self._timers.get(marker)
        if armed is not None:
            if armed[1] <= due:
                return
            armed[0].cancel()
        self._timers[marker] = (asyncio.get_running_loop().call_later(
            due - now, self.put_nowait, marker), due)

    def _on_marker(self, marker: str) -> None:
        """A timer expired (or a launcher's :meth:`wake`): the burst looks
        at everything anyway; only the sweep has work of its own."""
        self._timers.pop(marker, None)
        if marker == "sweep":
            now = self.clock()
            for task_id in self.retention.due(now, self.resend_timeout):
                self._resend(self.retention.touch(task_id, now))

    def _advance(self, now: float) -> None:
        """The end of a burst, on one reading of the clock: route, serve
        the heads whose slot has ended — an execution that ended freed a
        worker slot, so route again; *now* is fixed, so the horizons and
        the credits end the loop — arm what the rest waits for, settle."""
        port, cpu, retention = self._port, self._cpu, self.retention
        while True:
            self._route(now)
            while port and port[0][0] <= now:
                _, frame, child = port.popleft()
                self._transmit(frame, child, retention.hold(frame, child, now))
            if not cpu or cpu[0][0] > now:
                break
            self._complete(cpu.popleft()[1])
        if port:
            self._arm("port", port[0][0], now)
        if cpu:
            self._arm("cpu", cpu[0][0], now)
        if len(retention) and "sweep" not in self._timers:
            self._arm("sweep", retention.next_due(self.resend_timeout), now)
        self._settle()

    # ------------------------------------------------------------------
    # frame handling
    # ------------------------------------------------------------------
    def _on_task(self, frame: TaskFrame) -> None:
        if self.is_root:
            raise TaskPlaneError("the root does not receive task frames")
        if not frame.intact:
            # payload corrupted end-to-end: ask the parent's retention copy
            self.resend_requests += 1
            self._out.append(ResendRequest(self.name, frame.sender,
                                           frame.task_id))
            return
        if self.delivery.first_delivery(frame.task_id):
            self.buffer.put(frame)
            if self._live:
                self._publish_depth()
        # else a duplicate delivery (resend raced a late ack): re-ack, drop
        self._out.append(DeliveryAck(self.name, frame.sender, frame.task_id))

    def _on_ack(self, frame: DeliveryAck) -> None:
        self.retention.release(frame.task_id, frame.sender)

    def _on_nak(self, frame: ResendRequest) -> None:
        # None: already released by a racing ack (a stale nak), or a stray
        self._resend(self.retention.touch(frame.task_id, self.clock(),
                                          frame.sender))

    def _resend(self, entry: Optional[tuple]) -> None:
        if entry is not None:
            self.resends += 1
            if self._live:
                self.registry.counter("taskplane.resends").inc()
            self._transmit(*entry)

    def _on_credit(self, frame: CreditGrant) -> None:
        link = self.links.get(frame.sender)
        if link is None:
            raise TaskPlaneError(
                f"{frame.sender!r} is not an active child of {self.name!r}")
        self.credits.grant(link.name, frame.amount, link.capacity)

    def _on_result(self, frame: ResultReport) -> None:
        if self.is_root:
            self._record_completed(frame.task_id)
        else:
            self._out.append(ResultReport(self.name, self.parent,
                                          frame.task_id, frame.origin))

    def _on_stop(self, frame: Stop) -> None:
        self._stop_received = True

    def _on_stopped(self, frame: Stopped) -> None:
        self._stopped_children.add(frame.sender)

    def _on_stray(self, frame) -> None:
        self.stray_control += 1

    def _record_completed(self, task_id: int) -> None:
        if self.ledger.record_completed(task_id, self.clock()) and self._live:
            self.registry.counter("taskplane.completions").inc()

    def _publish_depth(self) -> None:
        self.registry.gauge("taskplane.buffer_depth",
                            node=str(self.name)).set(self.buffer.depth)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _next_task(self) -> TaskFrame:
        if self.is_root:
            task_id = self.ledger.record_generated()
            if self.max_tasks is not None and \
                    self.ledger.generated >= self.max_tasks:
                self.stop_generation()
            payload = self.payload_factory(task_id)
            return make_task(self.name, self.name, task_id, payload,
                             kind=self.exec_kind)
        frame = self.buffer.get()
        if self._live:
            self._publish_depth()
        return frame

    def _route(self, now: float) -> None:
        """Hand the j-th task taken to ``schedule.destination(j)`` while
        there is a task and that destination can take it: a child while it
        holds a credit, the worker while fewer than two of its slots are in
        use — one executing, one prefetched, whose slot starts exactly
        where the running one ends, so hand-off latency cannot shave the
        compute rate."""
        schedule, name = self.schedule, self.name
        while schedule is not None and (
                not self.generation_stopped if self.is_root
                else self.buffer.depth):
            dest = schedule.destination(self._taken)
            if dest == name:
                if len(self._cpu) >= 2:
                    return
            elif not self.credits.available(dest):
                return
            frame = self._next_task()
            self._taken += 1
            if not self.is_root:
                # the slot frees the moment the task leaves the buffer
                self._out.append(CreditGrant(name, self.parent))
            # a slot is anchored at its arrival or the previous horizon,
            # never at a (possibly late) wake-up — see WorkerPool.slot
            if dest == name:
                self._cpu.append((self.worker.slot(now), frame))
                continue
            self.credits.spend(dest)
            self._port_busy_until = (max(now, self._port_busy_until)
                                     + self._cost[dest])
            self._port.append((self._port_busy_until, TaskFrame(
                name, dest, frame.task_id, frame.payload, frame.crc,
                frame.kind), dest))

    # ------------------------------------------------------------------
    # the paced resources
    # ------------------------------------------------------------------
    def _complete(self, frame: TaskFrame) -> None:
        """The worker's slot ended: execute, report the result upward."""
        self.worker.execute(frame)
        if self.is_root:
            self._record_completed(frame.task_id)
        else:
            self._out.append(ResultReport(self.name, self.parent,
                                          frame.task_id, self.name))

    def _transmit(self, frame: TaskFrame, child: Hashable,
                  attempt: int) -> None:
        """Send one task frame through the plan's data-plane verdict
        (:meth:`~repro.faults.inject.LinkFaultDecider.judge_task`)."""
        decider = self._decider
        if decider.plan is not None:
            fate = decider.judge_task(child, frame.task_id, attempt)
            if fate == LOST:
                self.injected_drops += 1
                return  # the resend sweep recovers
            if fate == GARBLED:
                # garble the payload *before* encoding: every transport CRC
                # on the path passes, only the end-to-end checksum catches it
                self.injected_corruptions += 1
                garbled = bytes([frame.payload[0] ^ 0xFF]) + frame.payload[1:]
                frame = replace(frame, payload=garbled)
        self._out.append(frame)

    # ------------------------------------------------------------------
    # shutdown cascade
    # ------------------------------------------------------------------
    def _quiescent(self) -> bool:
        return not (self._cpu or self._port or len(self.retention)
                    or (self.buffer is not None and self.buffer.depth))

    def _settle(self) -> None:
        """Root: close the books, then cascade Stop.  Child: once told to
        stop, drain locally, cascade, and with the whole subtree stopped
        report Stopped upward."""
        if not self._stop_sent:
            told = self._stop_received if not self.is_root else (
                self.generation_stopped and self.ledger.outstanding == 0)
            if not (told and self._quiescent()):
                return
            self._stop_sent = True
            self._out.extend(Stop(self.name, child)
                             for child in self.all_children)
        if self._stopped_children.issuperset(self.all_children):
            if not self.is_root:
                self._out.append(Stopped(
                    self.name, self.parent,
                    self.worker.completed if self.worker else 0))
            self.done = True


@dataclass
class TaskPlaneReport:
    """What one plane run measured, against what the solver promised."""

    transport: str
    nodes: int
    optimal_throughput: Fraction     # tasks per virtual time unit
    time_scale: float
    generated: int
    completed: int
    duplicates: int
    resends: int
    resend_requests: int
    injected_drops: int
    injected_corruptions: int
    stray_control: int
    peak_occupancy: Dict[str, int]
    bounds: Dict[str, int]
    measured_rate: Optional[float]   # tasks per virtual unit, steady window
    completions_per_sec: Optional[float]
    wall_seconds: float
    worker_completed: Dict[str, int] = field(default_factory=dict)
    stray_acks: int = 0              # acks / naks refused: not the holder's
    stray_results: int = 0           # results refused: a task never minted

    @classmethod
    def from_stats(cls, stats: Dict[Hashable, dict], root: Hashable, *,
                   transport: str, optimal_throughput: Fraction,
                   time_scale: float, bounds) -> "TaskPlaneReport":
        """Aggregate per-node :meth:`TaskPlaneNode.stats` (in platform
        order): counters summed, the ledger and the wall from *root*."""
        books = stats[root]
        rate = books["rate"]

        def per_node(key: str) -> Dict[str, int]:
            return {str(node): s[key] for node, s in stats.items()
                    if s[key] is not None}

        return cls(
            transport=transport,
            nodes=len(stats),
            optimal_throughput=optimal_throughput,
            time_scale=time_scale,
            **{key: books[key] for key in (
                "generated", "completed", "duplicates", "stray_results")},
            **{key: sum(s[key] for s in stats.values()) for key in (
                "resends", "resend_requests", "injected_drops",
                "injected_corruptions", "stray_control", "stray_acks")},
            peak_occupancy=per_node("peak"),
            bounds={str(node): bound for node, bound in bounds.items()},
            measured_rate=None if rate is None else rate * time_scale,
            completions_per_sec=rate,
            wall_seconds=books["wall"],
            worker_completed=per_node("worker_completed"),
        )

    @property
    def lost(self) -> int:
        return self.generated - self.completed

    @property
    def convergence(self) -> Optional[float]:
        """measured / optimal throughput; ``None`` when unmeasurable."""
        if self.measured_rate is None or self.optimal_throughput == 0:
            return None
        return self.measured_rate / float(self.optimal_throughput)

    def occupancy_ok(self) -> bool:
        """Did every node's peak stay within its analytic bound?"""
        return all(
            peak <= self.bounds.get(node, 1)
            for node, peak in self.peak_occupancy.items()
        )

    def within(self, tolerance: float = 0.3) -> bool:
        """Is measured throughput within *tolerance* of the optimum?"""
        ratio = self.convergence
        return ratio is not None and abs(ratio - 1.0) <= tolerance

    def to_json(self) -> dict:
        out = {key: getattr(self, key) for key in (
            "transport", "nodes", "optimal_throughput", "time_scale",
            "generated", "completed", "lost", "duplicates", "resends",
            "resend_requests", "injected_drops", "injected_corruptions",
            "stray_acks", "stray_results", "measured_rate",
            "completions_per_sec", "convergence", "occupancy_ok",
            "peak_occupancy", "bounds", "wall_seconds", "worker_completed")}
        out["optimal_throughput"] = str(self.optimal_throughput)
        out["occupancy_ok"] = self.occupancy_ok()
        return out


class TaskPlane:
    """Single-process plane over an in-proc or TCP transport.

    Negotiates first (verifying against centralised BW-First), then
    executes *max_tasks* payloads (and/or generates for *duration* wall
    seconds) on the same transport connections.  *plan* stages data-plane
    faults (:attr:`~repro.faults.plan.FaultPlan.task_drop` /
    :attr:`~repro.faults.plan.FaultPlan.task_corrupt`); the control plane
    of the negotiation is kept clean — mixing both belongs to the chaos
    sweep, which layers a lossy control plan onto the Runtime itself.
    """

    def __init__(
        self,
        tree: Tree,
        transport: Union[str, "Transport"] = "inproc",
        *,
        allocation: Optional[Allocation] = None,
        time_scale: float = DEFAULT_TIME_SCALE,
        max_tasks: Optional[int] = 200,
        duration: Optional[float] = None,
        payload_factory: Callable[[int], bytes] = default_payload,
        exec_kind: str = "bytes",
        plan: Optional[FaultPlan] = None,
        registry: Registry = NULL,
        resend_timeout: float = 0.3,
        deadline: float = 120.0,
        keep_results: bool = False,
    ):
        check_launch(max_tasks, duration, time_scale)
        self.tree = tree
        self.transport_name = (transport if isinstance(transport, str)
                               else type(transport).__name__)
        self.transport = transport
        self.allocation = allocation
        self.time_scale = time_scale
        self.max_tasks = max_tasks
        self.duration = duration
        self.payload_factory = payload_factory
        self.exec_kind = exec_kind
        self.plan = plan
        self.registry = registry
        self.resend_timeout = resend_timeout
        self.deadline = deadline
        self.keep_results = keep_results
        self.nodes: Dict[Hashable, TaskPlaneNode] = {}
        self.results: Dict[int, object] = {}

    # ------------------------------------------------------------------
    def run(self) -> TaskPlaneReport:
        refuse_running_loop(TaskPlaneError, "TaskPlane(...).arun()")
        return asyncio.run(self.arun())

    async def arun(self) -> TaskPlaneReport:
        tree = self.tree
        allocation = self.allocation
        if allocation is None:
            allocation = from_bw_first(bw_first(tree))
        periods = tree_periods(allocation)
        bounds = taskplane_buffer_bounds(periods, tree.root)
        schedules = build_schedules(allocation, periods=periods)

        transport = _make_transport(self.transport)
        await Runtime(tree, transport, close_transport=False).arun()
        loop = asyncio.get_running_loop()
        t0 = loop.time()

        def clock() -> float:
            return loop.time() - t0

        for node in tree.nodes():
            parent = tree.parent(node)
            schedule = schedules.get(node)
            links = [ChildLink(name=child, c=tree.c(child),
                               capacity=bounds.get(child, 1))
                     for child in (schedule.quantities if schedule else ())
                     if child != node]
            self.nodes[node] = TaskPlaneNode(
                node,
                clock=clock,
                send=transport.send,
                parent=parent,
                links=links,
                all_children=list(tree.children(node)),
                schedule=schedule,
                rate=tree.rate(node),
                capacity=bounds.get(node, 1),
                time_scale=self.time_scale,
                plan=self.plan,
                registry=self.registry,
                resend_timeout=self.resend_timeout,
                ledger=TaskLedger() if parent is None else None,
                max_tasks=self.max_tasks if parent is None else None,
                payload_factory=self.payload_factory,
                exec_kind=self.exec_kind,
                keep_results=self.keep_results,
            )
        for node, bound in bounds.items():
            self.registry.gauge("taskplane.buffer_bound",
                                node=str(node)).set(bound)
        # same loop, so the sockets stay usable: from here on they deliver
        # into the engines, no longer into the runtime's run-queue
        transport.mailboxes = self.nodes

        tasks = [asyncio.ensure_future(coroutine)
                 for engine in self.nodes.values()
                 for coroutine in engine.loops()]
        timer = None
        if self.duration is not None:
            timer = loop.call_later(self.duration,
                                    self.nodes[tree.root].stop_generation)
        try:
            # every dispatcher returns once its node has drained; the first
            # one to raise fails the run
            finished, running = await asyncio.wait(
                tasks, timeout=self.deadline,
                return_when=asyncio.FIRST_EXCEPTION)
        finally:
            if timer is not None:
                timer.cancel()
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await transport.close()
        for task in finished:
            if task.exception() is not None:
                raise task.exception()
        if running:
            raise TaskPlaneError(
                f"task plane did not drain within {self.deadline}s — a hung "
                "transport or a fault plan beyond the resend budget"
            )

        for engine in self.nodes.values():
            if engine.worker is not None and engine.worker.results:
                self.results.update(engine.worker.results)
        return TaskPlaneReport.from_stats(
            {node: engine.stats() for node, engine in self.nodes.items()},
            tree.root, transport=self.transport_name,
            optimal_throughput=allocation.throughput,
            time_scale=self.time_scale, bounds=bounds)


def run_plane(tree: Tree, transport: str = "inproc",
              **kwargs) -> TaskPlaneReport:
    """One-shot convenience: ``TaskPlane(tree, transport, **kwargs).run()``."""
    return TaskPlane(tree, transport, **kwargs).run()

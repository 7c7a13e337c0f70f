"""The task data plane: real payloads executed under the negotiated rates.

One :class:`TaskPlaneNode` engine per platform node, four event loops each:

* **recv** — dispatches inbound frames: task delivery (end-to-end payload
  checksum → ``tack`` or ``tnak``, first-delivery dedup), acks/naks into
  the retention buffer, credit grants, result relay toward the root, the
  Stop/Stopped drain cascade.  Stray control :class:`Message`\\ s left over
  from negotiation on a reused transport are counted and ignored;
* **router** — demand-driven stride scheduling: the ready sinks are the
  local worker (when idle, weight ``α``) and each active child (when a
  send credit is available, weight ``η_out``); the sink with the smallest
  ``served/weight`` progress receives the next task.  Long-run, dispatch
  proportions converge to the solver's exact split, which is what makes
  measured throughput converge to ``λ_root − θ_root``;
* **port** — serialises child transfers on the single send port, pacing
  ``c_child · time_scale`` wall seconds per task against an absolute
  ``busy_until`` horizon (sleep overshoot cannot accumulate into rate
  drift), then transmits through the seeded data-plane fault filter;
* **worker** — paces ``time_scale / r`` per task (full speed; the router's
  proportions throttle it down to exactly ``α``), executes the payload,
  reports the result up the tree.

A root-only **drain watch** closes the books: once generation has stopped,
``completed == generated`` and every retention copy is released, it sends
Stop to *all* children (active or not, so every engine exits through the
tree protocol); a child drains locally, cascades Stop, collects Stopped
from its whole subtree and only then reports Stopped upward.  Per-edge
FIFO ordering (asyncio queues in-proc, TCP per socket) guarantees a
child's last result precedes its Stopped, so the accounting the root
asserted cannot be overtaken by shutdown.

:class:`TaskPlane` orchestrates a run on one event loop: negotiate with
the real :class:`~repro.runtime.runtime.Runtime` (``close_transport=False``
— payload frames then reuse the very sockets the negotiation opened),
build engines from the verified allocation, execute, drain, and return a
:class:`TaskPlaneReport` comparing measured throughput to the solver's
optimum and peak buffer occupancy to the analytic bound.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Union

from ..analysis.buffers import taskplane_buffer_bounds
from ..core.allocation import Allocation, from_bw_first
from ..core.bwfirst import bw_first
from ..core.rates import ZERO
from ..exceptions import TaskPlaneError
from ..faults.inject import GARBLED, LOST, LinkFaultDecider
from ..faults.plan import FaultPlan
from ..platform.tree import Tree
from ..protocol.messages import Acknowledgment, Proposal
from ..runtime.runtime import Runtime, _make_transport, refuse_running_loop
from ..runtime.transport import Transport
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


@dataclass(frozen=True, slots=True)
class ChildLink:
    """One active tree edge as the parent's engine sees it."""

    name: Hashable
    c: Fraction          # transfer time per task (virtual units)
    eta: Fraction        # negotiated send rate η_out (tasks per unit)
    capacity: int        # the child's analytic buffer capacity


class TaskPlaneNode:
    """The per-node engine; see the module docstring for the loops."""

    def __init__(
        self,
        name: Hashable,
        *,
        clock: Callable[[], float],
        send: Callable,                 # async: transport.send
        inbox: asyncio.Queue,
        parent: Optional[Hashable],
        links: List[ChildLink],         # active children (η_out > 0)
        all_children: List[Hashable],   # every tree child (for Stop)
        alpha: Fraction,
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
        self.inbox = inbox
        self.parent = parent
        self.links = links
        self.all_children = list(all_children)
        self.alpha = alpha
        self.time_scale = time_scale
        self._decider = LinkFaultDecider(plan)
        self.registry = registry
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
        self.worker = (WorkerPool(rate, time_scale, keep_results)
                       if alpha > 0 else None)
        self._worker_pending = 0
        self._port_busy_until = 0.0
        self._port_queue: asyncio.Queue = asyncio.Queue()
        self._worker_queue: asyncio.Queue = asyncio.Queue()
        self._kick = asyncio.Event()
        self._served: Dict[Hashable, int] = {}
        #: per-sink dispatch rates in tasks per wall second — the router's
        #: token buckets.  Work-conserving stride alone mis-shapes the mix
        #: on saturated ports: whenever the fast child is briefly out of
        #: credits, the slow (expensive-link) children absorb its slots
        #: and the port wastes its 100% duty cycle on costly transfers.
        #: Capping each sink at its allocated rate (+ a burst of its
        #: buffer capacity, which fills the start-up pipeline) keeps the
        #: long-run mix exactly the solver's.
        self._alpha_ps = float(alpha) / time_scale if alpha > 0 else 0.0
        self._eta_ps = {l.name: float(l.eta) / time_scale for l in links}
        self._next_eligible: Optional[float] = None
        self.generation_stopped = max_tasks == 0
        #: wall time the root's supply dried up — the end of the honest
        #: throughput-measurement window (the drain tail runs at the pace
        #: of the slowest subtree, not at steady-state rate)
        self.generation_stopped_at: Optional[float] = None
        self._stop_received = asyncio.Event()
        self._stopped_children: set = set()
        self._all_stopped = asyncio.Event()
        self.done = asyncio.Event()

        # counters surfaced in the report and on the registry
        self.resends = 0
        self.resend_requests = 0       # tnaks this node issued
        self.injected_drops = 0
        self.injected_corruptions = 0
        self.stray_control = 0
        self.relayed_results = 0

    # ------------------------------------------------------------------
    # what a launcher needs: the loops to run, the supply switch, the books
    # ------------------------------------------------------------------
    def loops(self) -> list:
        """The engine's coroutines, one task each, for whoever launches it
        (the in-process plane, a cluster node process)."""
        loops = [self._recv_loop(), self._router_loop(), self._port_loop(),
                 self._sweep_loop(), self._drain_loop()]
        if self.worker is not None:
            loops.append(self._worker_loop())
        return loops

    def stop_generation(self) -> None:
        """The root's supply dries up — *max_tasks* generated, or the
        launcher's *duration* timer: stamp the end of the measurement
        window (once) and wake the router."""
        if not self.generation_stopped:
            self.generation_stopped = True
            self.generation_stopped_at = self.clock()
        self._maybe_kick()

    def stats(self) -> dict:
        """This engine's counters, picklable; the root's carry the ledger.
        :meth:`TaskPlaneReport.from_stats` sums them over the platform."""
        stats = {
            "resends": self.resends,
            "resend_requests": self.resend_requests,
            "injected_drops": self.injected_drops,
            "injected_corruptions": self.injected_corruptions,
            "stray_control": self.stray_control,
            "peak": self.buffer.peak if self.buffer is not None else None,
            "worker_completed": (self.worker.completed
                                 if self.worker is not None else None),
        }
        if self.is_root:
            ledger = self.ledger
            stats.update(
                generated=ledger.generated,
                completed=ledger.completed,
                duplicates=ledger.duplicates,
                rate=ledger.steady_rate(until=self.generation_stopped_at),
                wall=self.clock(),
            )
        return stats

    # ------------------------------------------------------------------
    # frame handling
    # ------------------------------------------------------------------
    async def _recv_loop(self) -> None:
        while True:
            frame = await self.inbox.get()
            if isinstance(frame, TaskFrame):
                await self._on_task(frame)
            elif isinstance(frame, DeliveryAck):
                self.retention.release(frame.task_id)
                self._maybe_kick()
            elif isinstance(frame, ResendRequest):
                await self._on_nak(frame)
            elif isinstance(frame, CreditGrant):
                link = self._link(frame.sender)
                self.credits.grant(link.name, frame.amount, link.capacity)
                self._maybe_kick()
            elif isinstance(frame, ResultReport):
                await self._on_result(frame)
            elif isinstance(frame, Stop):
                self._stop_received.set()
            elif isinstance(frame, Stopped):
                self._stopped_children.add(frame.sender)
                if set(self.all_children) <= self._stopped_children:
                    self._all_stopped.set()
            elif isinstance(frame, (Proposal, Acknowledgment)):
                self.stray_control += 1   # negotiation leftovers, harmless
            else:
                raise TaskPlaneError(
                    f"{self.name!r} received unroutable frame {frame!r}"
                )

    def _link(self, child: Hashable) -> ChildLink:
        for link in self.links:
            if link.name == child:
                return link
        raise TaskPlaneError(f"{child!r} is not an active child of {self.name!r}")

    async def _on_task(self, frame: TaskFrame) -> None:
        if self.is_root:
            raise TaskPlaneError("the root does not receive task frames")
        if not frame.intact:
            # payload corrupted end-to-end: ask the parent's retention copy
            self.resend_requests += 1
            await self.send(ResendRequest(sender=self.name, receiver=frame.sender,
                                          task_id=frame.task_id))
            return
        if not self.delivery.first_delivery(frame.task_id):
            # duplicate delivery (resend raced a late ack): re-ack, drop
            await self.send(DeliveryAck(sender=self.name, receiver=frame.sender,
                                        task_id=frame.task_id))
            return
        self.buffer.put(frame)
        self.registry.gauge("taskplane.buffer_depth",
                            node=str(self.name)).set(self.buffer.depth)
        await self.send(DeliveryAck(sender=self.name, receiver=frame.sender,
                                    task_id=frame.task_id))
        self._maybe_kick()

    async def _on_nak(self, frame: ResendRequest) -> None:
        entry = self.retention.touch(frame.task_id, self.clock())
        if entry is None:
            return  # already released by a racing ack: stale nak
        held, child, attempt = entry
        self.resends += 1
        self.registry.counter("taskplane.resends").inc()
        await self._transmit(held, child, attempt)

    async def _on_result(self, frame: ResultReport) -> None:
        if self.is_root:
            if self.ledger.record_completed(frame.task_id, self.clock()):
                self.registry.counter("taskplane.completions").inc()
            self._maybe_kick()
        else:
            self.relayed_results += 1
            await self.send(ResultReport(sender=self.name, receiver=self.parent,
                                         task_id=frame.task_id,
                                         origin=frame.origin))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _tasks_available(self) -> bool:
        if self.is_root:
            return not self.generation_stopped
        return self.buffer.depth > 0

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
        self.registry.gauge("taskplane.buffer_depth",
                            node=str(self.name)).set(self.buffer.depth)
        return frame

    def _note_eligible_at(self, when: float) -> None:
        if self._next_eligible is None or when < self._next_eligible:
            self._next_eligible = when

    def _pick_sink(self):
        """Rate-conformant stride scheduling; ``None`` when no sink may
        take a task right now (out of credits, busy, or over rate)."""
        now = self.clock()
        best = None
        best_progress = None
        self._next_eligible = None
        # the worker keeps one task executing and one prefetched: the
        # busy_until pacing starts the prefetched slot exactly where the
        # running one ends, so router hand-off latency cannot shave the
        # compute rate
        if self.worker is not None and self._worker_pending < 2:
            served = self._served.get("cpu", 0)
            if served < self._alpha_ps * now + 2:
                best = "cpu"
                best_progress = Fraction(served) / self.alpha
            else:
                self._note_eligible_at((served - 1) / self._alpha_ps)
        for link in self.links:
            if self.credits.available(link.name) <= 0:
                continue
            served = self._served.get(link.name, 0)
            rate = self._eta_ps[link.name]
            if served >= rate * now + link.capacity:
                self._note_eligible_at((served - link.capacity + 1) / rate)
                continue
            progress = Fraction(served) / link.eta
            if best_progress is None or progress < best_progress:
                best, best_progress = link, progress
        return best

    async def _router_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            # clear *before* dispatching: an event landing mid-dispatch
            # re-sets the flag and the wait below returns immediately — a
            # clear-after-dispatch would lose that wakeup and stall a poll
            self._kick.clear()
            while self._tasks_available():
                sink = self._pick_sink()
                if sink is None:
                    break
                frame = self._next_task()
                if not self.is_root:
                    # the slot frees the moment the task leaves the buffer
                    await self.send(CreditGrant(sender=self.name,
                                                receiver=self.parent))
                if sink == "cpu":
                    self._served["cpu"] = self._served.get("cpu", 0) + 1
                    self._worker_pending += 1
                    self._worker_queue.put_nowait((frame, self.clock()))
                else:
                    self._served[sink.name] = self._served.get(sink.name, 0) + 1
                    self.credits.spend(sink.name)
                    forwarded = TaskFrame(sender=self.name, receiver=sink.name,
                                          task_id=frame.task_id,
                                          payload=frame.payload,
                                          crc=frame.crc, kind=frame.kind)
                    self._port_queue.put_nowait(
                        (forwarded, sink, self.clock())
                    )
            timeout = 0.05
            if self._next_eligible is not None:
                # a sink is blocked purely by its rate cap: wake exactly
                # when its next token accrues instead of a blind poll
                until = self._next_eligible - self.clock()
                timeout = min(timeout, max(0.001, until))
            # a timer that kicks, not ``asyncio.wait_for``: when the event
            # and a cancellation land in the same loop pass, wait_for (3.11)
            # returns normally — the cancellation is swallowed and this
            # loop outlives its plane, whose shutdown then never returns
            timer = loop.call_later(timeout, self._kick.set)
            try:
                await self._kick.wait()
            finally:
                timer.cancel()

    def _maybe_kick(self) -> None:
        self._kick.set()

    # ------------------------------------------------------------------
    # the paced resources
    # ------------------------------------------------------------------
    async def _port_loop(self) -> None:
        while True:
            frame, link, queued = await self._port_queue.get()
            # anchor the slot at enqueue time / previous horizon, never at
            # the (possibly late) wake-up — see WorkerPool.slot
            start = queued if queued > self._port_busy_until \
                else self._port_busy_until
            finish = start + float(link.c) * self.time_scale
            self._port_busy_until = finish
            delay = finish - self.clock()
            if delay > 0:
                await asyncio.sleep(delay)
            attempt = self.retention.hold(frame, link.name, self.clock())
            await self._transmit(frame, link.name, attempt)

    async def _worker_loop(self) -> None:
        while True:
            frame, queued = await self._worker_queue.get()
            finish = self.worker.slot(queued)
            delay = finish - self.clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.worker.execute(frame)
            self._worker_pending -= 1
            self._maybe_kick()
            if self.is_root:
                if self.ledger.record_completed(frame.task_id, self.clock()):
                    self.registry.counter("taskplane.completions").inc()
            else:
                await self.send(ResultReport(sender=self.name,
                                             receiver=self.parent,
                                             task_id=frame.task_id,
                                             origin=self.name))

    async def _transmit(self, frame: TaskFrame, child: Hashable,
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
                frame = TaskFrame(sender=frame.sender,
                                  receiver=frame.receiver,
                                  task_id=frame.task_id, payload=garbled,
                                  crc=frame.crc, kind=frame.kind)
        await self.send(frame)

    async def _sweep_loop(self) -> None:
        """Resend retention entries whose ack is overdue."""
        interval = self.resend_timeout / 2
        while True:
            await asyncio.sleep(interval)
            now = self.clock()
            for task_id in self.retention.due(now, self.resend_timeout):
                entry = self.retention.touch(task_id, now)
                if entry is None:
                    continue
                frame, child, attempt = entry
                self.resends += 1
                self.registry.counter("taskplane.resends").inc()
                await self._transmit(frame, child, attempt)

    # ------------------------------------------------------------------
    # shutdown cascade
    # ------------------------------------------------------------------
    def _quiescent(self) -> bool:
        return (
            (self.buffer is None or self.buffer.depth == 0)
            and self._worker_pending == 0
            and len(self.retention) == 0
            and self._port_queue.empty()
        )

    async def _drain_loop(self) -> None:
        """Root: close the books, then cascade Stop.  Child: await Stop,
        drain locally, cascade, report Stopped upward."""
        if self.is_root:
            while not (self.generation_stopped
                       and self.ledger.outstanding == 0
                       and self._quiescent()):
                await asyncio.sleep(self.time_scale)
        else:
            await self._stop_received.wait()
            while not self._quiescent():
                await asyncio.sleep(self.time_scale)
        for child in self.all_children:
            await self.send(Stop(sender=self.name, receiver=child))
        if self.all_children:
            await self._all_stopped.wait()
        if not self.is_root:
            completed = self.worker.completed if self.worker else 0
            await self.send(Stopped(sender=self.name, receiver=self.parent,
                                    completed=completed))
        self.done.set()


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

    @classmethod
    def from_stats(cls, stats: Dict[Hashable, dict], root: Hashable, *,
                   transport: str, optimal_throughput: Fraction,
                   time_scale: float, bounds) -> "TaskPlaneReport":
        """Aggregate per-node :meth:`TaskPlaneNode.stats` (in platform
        order): counters summed, the ledger and the wall from *root*."""
        books = stats[root]
        rate = books["rate"]

        def total(key: str) -> int:
            return sum(s[key] for s in stats.values())

        def per_node(key: str) -> Dict[str, int]:
            return {str(node): s[key] for node, s in stats.items()
                    if s[key] is not None}

        return cls(
            transport=transport,
            nodes=len(stats),
            optimal_throughput=optimal_throughput,
            time_scale=time_scale,
            generated=books["generated"],
            completed=books["completed"],
            duplicates=books["duplicates"],
            resends=total("resends"),
            resend_requests=total("resend_requests"),
            injected_drops=total("injected_drops"),
            injected_corruptions=total("injected_corruptions"),
            stray_control=total("stray_control"),
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
        return {
            "transport": self.transport,
            "nodes": self.nodes,
            "optimal_throughput": str(self.optimal_throughput),
            "time_scale": self.time_scale,
            "generated": self.generated,
            "completed": self.completed,
            "lost": self.lost,
            "duplicates": self.duplicates,
            "resends": self.resends,
            "resend_requests": self.resend_requests,
            "injected_drops": self.injected_drops,
            "injected_corruptions": self.injected_corruptions,
            "measured_rate": self.measured_rate,
            "completions_per_sec": self.completions_per_sec,
            "convergence": self.convergence,
            "occupancy_ok": self.occupancy_ok(),
            "peak_occupancy": self.peak_occupancy,
            "bounds": self.bounds,
            "wall_seconds": self.wall_seconds,
            "worker_completed": self.worker_completed,
        }


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
        if max_tasks is None and duration is None:
            raise TaskPlaneError("need max_tasks and/or duration to stop")
        if time_scale <= 0:
            raise TaskPlaneError("time_scale must be positive")
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

        transport = _make_transport(self.transport)
        await Runtime(tree, transport, close_transport=False).arun()
        # same loop, so the sockets stay usable: from here on they deliver
        # into the engines' inboxes, no longer into the runtime's run-queue
        inboxes = {node: asyncio.Queue() for node in tree.nodes()}
        transport.mailboxes = inboxes

        loop = asyncio.get_running_loop()
        t0 = loop.time()

        def clock() -> float:
            return loop.time() - t0

        for node in tree.nodes():
            parent = tree.parent(node)
            links = [
                ChildLink(name=child, c=tree.c(child),
                          eta=allocation.eta_out[(node, child)],
                          capacity=bounds.get(child, 1))
                for child in tree.children_by_bandwidth(node)
                if allocation.eta_out.get((node, child), ZERO) > 0
            ]
            alpha = allocation.alpha.get(node, ZERO)
            self.nodes[node] = TaskPlaneNode(
                node,
                clock=clock,
                send=transport.send,
                inbox=inboxes[node],
                parent=parent,
                links=links,
                all_children=list(tree.children(node)),
                alpha=alpha,
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

        tasks: List[asyncio.Task] = []
        failure: List[BaseException] = []

        async def guard(coroutine):
            try:
                await coroutine
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # noqa: BLE001 - fail the run
                failure.append(exc)
                for engine in self.nodes.values():
                    engine.done.set()

        for engine in self.nodes.values():
            tasks.extend(asyncio.ensure_future(guard(coroutine))
                         for coroutine in engine.loops())

        timer = None
        if self.duration is not None:
            timer = loop.call_later(self.duration,
                                    self.nodes[tree.root].stop_generation)

        try:
            await asyncio.wait_for(
                asyncio.gather(*(e.done.wait() for e in self.nodes.values())),
                timeout=self.deadline,
            )
        except asyncio.TimeoutError:
            raise TaskPlaneError(
                f"task plane did not drain within {self.deadline}s — a hung "
                "transport or a fault plan beyond the resend budget"
            ) from None
        finally:
            if timer is not None:
                timer.cancel()
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await transport.close()
        if failure:
            raise failure[0]

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

"""Multi-process cluster: every platform node in its own OS process.

The single-process :class:`~repro.taskplane.plane.TaskPlane` shares one
event loop between all engines — honest about wire behaviour (on the TCP
transport frames really cross sockets) but not about *failure isolation*
or scheduling interference.  The cluster launcher removes that last
simplification: each tree node becomes a separate Python process that

* owns one :class:`~repro.runtime.transport.TcpTransport` over the whole
  tree and is its only mailbox: it listens with the transport's listen
  half, reports the port over a :func:`multiprocessing.Pipe`, dials its
  parent with the dial half once the launcher has broadcast the address
  map, and waits for its children's hellos;
* runs the *real* :class:`~repro.protocol.actor.NodeActor` negotiation
  over those edges — the launcher never tells a node its α/η: every
  process derives its allocation, and from it its event-driven schedule,
  from its own actor, exactly as the paper's semi-autonomy property
  demands, and verifies it against the expectations pickled into its spec
  (Proposition 2 made executable);
* then reuses the very same connections for the task plane: one
  :class:`~repro.taskplane.plane.TaskPlaneNode` engine per process,
  payload frames interleaved on the sockets that carried the
  negotiation, and hangs up with the transport's ``close()`` — child
  end first, across processes.

The launcher is pure orchestration: spawn, two-phase port exchange,
release the root, collect per-process stats, aggregate a
:class:`~repro.taskplane.plane.TaskPlaneReport`.  A process that dies or
hangs trips the global deadline; the launcher terminates the fleet and
raises rather than leaving orphans.

The edges follow the transport's rules: a bad hello before every child
has greeted fails the node, a later stranger is hung up on, a corrupt
frame or one naming another edge is counted and never routed.  With no
retry timers here, such a loss ends at the node's deadline, whose error
names the transport's counts.  Control messages go to the actor,
everything else into the engine, told apart by the codec's ``kind`` tag.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Dict, Hashable, List, Optional, Tuple

from ..analysis.buffers import taskplane_buffer_bounds
from ..core.allocation import from_bw_first
from ..core.bwfirst import bw_first, root_proposal
from ..core.rates import ZERO
from ..exceptions import TaskPlaneError
from ..faults.plan import FaultPlan
from ..platform.tree import Tree
from ..protocol.actor import DONE, IDLE, NodeActor
from ..protocol.messages import Acknowledgment, Message, Proposal
from ..protocol.runner import VIRTUAL_PARENT
from ..runtime.transport import TcpTransport, check_loopback
from ..schedule.eventdriven import bunch_schedule
from ..schedule.periods import bunch_quantities, tree_periods
from .frames import EXEC_KINDS
from .ledger import TaskLedger
from .plane import (DEFAULT_TIME_SCALE, ChildLink, TaskPlaneNode,
                    TaskPlaneReport, check_launch, default_payload)

#: Loopback only: the cluster is a single-host harness, and the hello is
#: unauthenticated — :func:`~repro.runtime.transport.check_loopback`
#: refuses anything else before a process is spawned.
DEFAULT_HOST = "127.0.0.1"
#: the launcher outwaits its nodes' deadlines, so a node's error arrives
_GRACE = 2.0


@dataclass(frozen=True)
class NodeSpec:
    """Everything one node process needs, picklable.

    Note what is *absent*: α and η.  The process negotiates those itself
    through its actor; the launcher only ships the *expectations*
    (``expected_lam``/``expected_theta`` from the centralised solve) so
    the process can assert Proposition 2 locally before trusting its own
    allocation to pace real work.
    """

    name: Hashable
    parent: Optional[Hashable]
    #: (child, c) in bandwidth-centric order — the actor's world view
    children: Tuple[Tuple[Hashable, Fraction], ...]
    #: every tree child (the Stop cascade covers inactive ones too)
    all_children: Tuple[Hashable, ...]
    #: analytic buffer capacity per child (χ_in + 2), for credit accounts
    child_capacity: Dict[Hashable, int] = field(default_factory=dict)
    rate: Fraction = ZERO
    capacity: int = 1
    expected_lam: Optional[Fraction] = None
    expected_theta: Optional[Fraction] = None
    #: root only: the seed proposal λ and the throughput it must yield
    seed_beta: Optional[Fraction] = None
    expected_throughput: Optional[Fraction] = None
    max_tasks: Optional[int] = None
    duration: Optional[float] = None
    time_scale: float = DEFAULT_TIME_SCALE
    resend_timeout: float = 0.3
    plan: Optional[FaultPlan] = None
    exec_kind: str = "bytes"
    payload_size: int = 64
    host: str = DEFAULT_HOST
    deadline: float = 120.0


class _NodeProcess:
    """The asyncio guts of one cluster node (runs inside the child); the
    only mailbox of the :class:`TcpTransport` holding its edges."""

    def __init__(self, spec: NodeSpec, conn, tree: Tree):
        self.spec = spec
        self.conn = conn
        self.is_root = spec.parent is None
        self.transport = TcpTransport(host=spec.host)
        self.transport.tree = tree
        self.transport.mailboxes = {spec.name: self}
        self.actor: Optional[NodeActor] = None
        self.engine: Optional[TaskPlaneNode] = None
        #: payload frames that raced the engine's construction
        self._early: list = []
        self.engine_done = asyncio.Event()
        self.negotiated: Optional[asyncio.Future] = None
        self._t0: Optional[float] = None
        self._due = time.monotonic() + spec.deadline
        self.failures: List[BaseException] = []
        self._tasks: List[asyncio.Task] = []

    # -- clock: zero when the engine is built.  On the root that is the
    # end of the negotiation, where the report's ``wall_seconds`` and the
    # ledger's steady window start.
    def clock(self) -> float:
        return asyncio.get_event_loop().time() - self._t0

    def actor_send(self, message: Message) -> None:
        if message.receiver != VIRTUAL_PARENT:
            self._spawn(self.transport.send(message))
        elif isinstance(message, Acknowledgment) \
                and not self.negotiated.done():
            self.negotiated.set_result(message.theta)

    def put_nowait(self, message) -> None:
        """The transport's mailbox: every frame a greeted edge decoded."""
        try:
            self._route(message)
        except Exception as exc:  # noqa: BLE001 - fail the whole node
            self._fail(exc)

    def _route(self, obj) -> None:
        if isinstance(obj, (Proposal, Acknowledgment)):
            self.actor.handle(obj)
            # a non-root actor reaching DONE has settled its whole
            # subtree's allocation: its engine can be configured now
            if not self.is_root and self.actor.state == DONE:
                self._ensure_engine()
        else:
            if not self.is_root:
                # covers nodes the negotiation never visits: their first
                # (and only) frame is the Stop cascade, long after the
                # allocation settled tree-wide
                self._ensure_engine()
            if self.engine is not None:
                self.engine.put_nowait(obj)
            else:
                self._early.append(obj)

    # -- lifecycle -----------------------------------------------------
    def _fail(self, exc: BaseException) -> None:
        self.failures.append(exc)
        self.engine_done.set()
        if self.negotiated is not None and not self.negotiated.done():
            self.negotiated.set_exception(exc)

    async def _guard(self, coroutine) -> None:
        try:
            await coroutine
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - fail the whole node
            self._fail(exc)

    def _spawn(self, coroutine) -> None:
        self._tasks.append(asyncio.ensure_future(self._guard(coroutine)))

    async def _within(self, awaitable, what: str):
        """*awaitable* before the node's deadline, or an error naming the
        transport's counts of what it refused."""
        transport = self.transport
        try:
            return await asyncio.wait_for(awaitable,
                                          self._due - time.monotonic())
        except asyncio.TimeoutError:
            raise TaskPlaneError(
                f"{self.spec.name!r} saw no {what} within the "
                f"{self.spec.deadline}s deadline (corrupt_frames="
                f"{transport.corrupt_frames}, dead_streams="
                f"{transport.dead_streams}, quarantined="
                f"{sorted(transport.quarantined)})") from None

    async def _recv_pipe(self):
        """Blocking pipe recv off-loop (the launcher is on the far end)."""
        return await asyncio.get_event_loop().run_in_executor(
            None, self.conn.recv
        )

    def listen(self) -> int:
        """Open this node's listener, armed for its children's hellos."""
        self.transport.expect(len(self.spec.all_children))
        return self.transport.listen(self.spec.name)

    async def connect(self, parent_addr) -> None:
        """Dial the parent at *parent_addr* (the root has none) and wait
        for every child's hello on this node's listener."""
        if parent_addr is not None:
            self.transport.dial(self.spec.name, parent_addr)
        await self._within(self.transport.admitted(), "hello of every child")

    async def run(self) -> None:
        spec = self.spec
        loop = asyncio.get_event_loop()
        self.negotiated = loop.create_future()
        self.conn.send(("port", spec.name, self.listen()))

        kind, parent_addr = await self._recv_pipe()
        if kind != "peers":
            raise TaskPlaneError(f"expected peers, got {kind!r}")

        self.actor = NodeActor(
            name=spec.name,
            rate=spec.rate,
            parent=spec.parent if spec.parent is not None else VIRTUAL_PARENT,
            children=list(spec.children),
            send=self.actor_send,
        )
        await self.connect(parent_addr)
        self.conn.send(("ready", spec.name))

        timer = None
        if self.is_root:
            go = await self._recv_pipe()
            if go != ("go",):
                raise TaskPlaneError(f"expected go, got {go!r}")
            self.actor.handle(Proposal(
                sender=VIRTUAL_PARENT, receiver=spec.name,
                beta=spec.seed_beta, xid=0,
            ))
            theta = await self._within(asyncio.shield(self.negotiated),
                                       "negotiated θ")
            throughput = spec.seed_beta - theta
            if throughput != spec.expected_throughput:
                raise TaskPlaneError(
                    f"cluster negotiated {throughput}, centralised BW-First "
                    f"computes {spec.expected_throughput}"
                )
            # negotiation settled: *now* the engine may trust the actor's
            # allocation and real work may flow
            self._ensure_engine()
            if spec.duration is not None:
                timer = loop.call_later(spec.duration,
                                        self.engine.stop_generation)
            self.engine.wake()

        try:
            await self._within(self.engine_done.wait(), "drained engine")
        finally:
            if timer is not None:
                timer.cancel()
        if self.failures:
            raise self.failures[0]

        self._verify()
        self.conn.send(("stats", spec.name, self.engine.stats()))
        # quiescence is guaranteed by the Stop cascade: hang up from the
        # child's end, and wait for this node's children to do the same
        await self.transport.close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    def _ensure_engine(self) -> None:
        """Build and start the engine exactly once, *after* the local
        allocation is known; frames that raced it are its first burst."""
        if self.engine is not None:
            return
        self._t0 = asyncio.get_event_loop().time()
        self.engine = self._build_engine()
        for frame in self._early:
            self.engine.put_nowait(frame)
        self._early.clear()

        async def drained(dispatcher):
            await dispatcher
            self.engine_done.set()

        for coroutine in self.engine.loops():
            self._spawn(drained(coroutine))

    def _build_engine(self) -> TaskPlaneNode:
        """Engine config from the *actor's own* negotiated state.

        ``NodeActor`` exposes its settled transactions as
        ``(child, beta, theta)`` tuples; ``beta − theta`` is the rate the
        child absorbed — η_out of that edge — and ``actor.alpha`` the
        local compute share.  The launcher shipped none of these, nor the
        schedule: ψ_i = η_i·T^w is node-local, so the node orders its own
        bunch from them.
        """
        spec = self.spec
        schedule, links = local_schedule(
            spec, self.actor.alpha, self.actor.transactions)
        return TaskPlaneNode(
            spec.name,
            clock=self.clock,
            send=self.transport.send,
            parent=spec.parent,
            links=links,
            all_children=list(spec.all_children),
            schedule=schedule,
            rate=spec.rate,
            capacity=spec.capacity,
            time_scale=spec.time_scale,
            plan=spec.plan,
            resend_timeout=spec.resend_timeout,
            ledger=TaskLedger() if self.is_root else None,
            max_tasks=spec.max_tasks if self.is_root else None,
            payload_factory=partial(default_payload, size=spec.payload_size),
            exec_kind=spec.exec_kind,
        )

    def _verify(self) -> None:
        """Proposition 2, asserted in-process: the actor's λ/θ must match
        the centralised solve the launcher pickled into the spec."""
        actor = self.actor
        spec = self.spec
        if spec.expected_lam is None:
            if actor.lam is not None:
                raise TaskPlaneError(
                    f"{spec.name!r} was proposed λ={actor.lam} but the "
                    "centralised solve never visits it"
                )
            return
        done = actor.state == DONE
        if not done or actor.lam != spec.expected_lam \
                or actor.theta != spec.expected_theta:
            state = (IDLE if actor.lam is None
                     else f"λ={actor.lam}, θ={actor.theta if done else '?'}")
            raise TaskPlaneError(
                f"{spec.name!r} diverged from Algorithm 1: negotiated "
                f"{state}, expected λ={spec.expected_lam}, "
                f"θ={spec.expected_theta}"
            )


def local_schedule(spec: NodeSpec, alpha: Fraction, transactions):
    """The event-driven schedule and the active links a node derives from
    its own α and settled ``(child, beta, theta)`` transactions."""
    eta_out = dict.fromkeys([child for child, _ in spec.children], ZERO)
    for child, beta, theta in transactions:
        eta_out[child] += beta - theta
    psi_self, psi_children, _ = bunch_quantities(alpha, eta_out)
    schedule = bunch_schedule(spec.name, psi_self, psi_children,
                              list(eta_out))
    links = [ChildLink(name=child, c=c,
                       capacity=spec.child_capacity.get(child, 1))
             for child, c in spec.children if psi_children[child]]
    return schedule, links


def _node_main(spec: NodeSpec, conn, tree: Tree) -> None:
    """Process entry point (module-level: picklable under spawn)."""
    try:
        asyncio.run(_NodeProcess(spec, conn, tree).run())
    except BaseException:  # noqa: BLE001 - ship the traceback home
        try:
            conn.send(("error", spec.name, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
        raise SystemExit(1)


class ClusterPlane:
    """Launcher for a multi-process run; mirrors :class:`TaskPlane`'s
    surface where it can (``run() → TaskPlaneReport``)."""

    def __init__(
        self,
        tree: Tree,
        *,
        time_scale: float = DEFAULT_TIME_SCALE,
        max_tasks: Optional[int] = 200,
        duration: Optional[float] = None,
        plan: Optional[FaultPlan] = None,
        exec_kind: str = "bytes",
        payload_size: int = 64,
        resend_timeout: float = 0.3,
        deadline: float = 120.0,
        host: str = DEFAULT_HOST,
    ):
        check_launch(max_tasks, duration, time_scale)
        check_loopback(host)
        if exec_kind not in EXEC_KINDS:
            raise TaskPlaneError(f"unknown exec kind {exec_kind!r}")
        self.tree = tree
        self.time_scale = time_scale
        self.max_tasks = max_tasks
        self.duration = duration
        self.plan = plan
        self.exec_kind = exec_kind
        self.payload_size = payload_size
        self.resend_timeout = resend_timeout
        self.deadline = deadline
        self.host = host

    def _specs(self) -> Tuple[Dict[Hashable, NodeSpec], object, dict]:
        tree = self.tree
        reference = bw_first(tree)
        allocation = from_bw_first(reference)
        bounds = taskplane_buffer_bounds(tree_periods(allocation), tree.root)
        seed = root_proposal(tree)
        specs = {}
        for node in tree.nodes():
            parent = tree.parent(node)
            outcome = reference.outcomes.get(node)
            children = tuple(
                (child, tree.c(child))
                for child in tree.children_by_bandwidth(node)
            )
            specs[node] = NodeSpec(
                name=node,
                parent=parent,
                children=children,
                all_children=tuple(tree.children(node)),
                child_capacity={child: bounds.get(child, 1)
                                for child, _ in children},
                rate=tree.rate(node),
                capacity=bounds.get(node, 1),
                expected_lam=None if outcome is None else outcome.lam,
                expected_theta=None if outcome is None else outcome.theta,
                seed_beta=seed if parent is None else None,
                expected_throughput=(reference.throughput
                                     if parent is None else None),
                max_tasks=self.max_tasks if parent is None else None,
                duration=self.duration if parent is None else None,
                time_scale=self.time_scale,
                resend_timeout=self.resend_timeout,
                plan=self.plan,
                exec_kind=self.exec_kind,
                payload_size=self.payload_size,
                host=self.host,
                deadline=self.deadline,
            )
        return specs, allocation, bounds

    def run(self) -> TaskPlaneReport:
        specs, allocation, bounds = self._specs()
        tree = self.tree
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        t_deadline = time.monotonic() + self.deadline + _GRACE
        processes: Dict[Hashable, object] = {}
        pipes: Dict[Hashable, object] = {}
        try:
            for node, spec in specs.items():
                ours, theirs = ctx.Pipe()
                process = ctx.Process(target=_node_main,
                                      args=(spec, theirs, tree), daemon=True)
                process.start()
                theirs.close()
                processes[node] = process
                pipes[node] = ours

            ports = self._collect(pipes, "port", t_deadline)
            for node, conn in pipes.items():
                parent = tree.parent(node)
                addr = None if parent is None \
                    else (specs[parent].host, ports[parent])
                conn.send(("peers", addr))

            self._collect(pipes, "ready", t_deadline)
            pipes[tree.root].send(("go",))

            stats = self._collect(pipes, "stats", t_deadline)
        finally:
            for process in processes.values():
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
            for conn in pipes.values():
                conn.close()
        return TaskPlaneReport.from_stats(
            stats, tree.root, transport="cluster",
            optimal_throughput=allocation.throughput,
            time_scale=self.time_scale, bounds=bounds)

    def _collect(self, pipes, expected: str, t_deadline: float) -> dict:
        """One ``(expected, name, value)`` message from every pipe; an
        ``error`` from any process aborts the whole launch."""
        out = {}
        for node, conn in pipes.items():
            remaining = t_deadline - time.monotonic()
            if remaining <= 0 or not conn.poll(timeout=remaining):
                raise TaskPlaneError(
                    f"cluster node {node!r} sent no {expected!r} within "
                    f"the {self.deadline}s deadline"
                )
            message = conn.recv()
            if message[0] == "error":
                raise TaskPlaneError(
                    f"cluster node {message[1]!r} failed:\n{message[2]}"
                )
            if message[0] != expected:
                raise TaskPlaneError(
                    f"cluster node {node!r} sent {message[0]!r}, "
                    f"expected {expected!r}"
                )
            out[message[1]] = message[2] if len(message) > 2 else None
        return out


def run_cluster(tree: Tree, **kwargs) -> TaskPlaneReport:
    """One-shot convenience: ``ClusterPlane(tree, **kwargs).run()``."""
    return ClusterPlane(tree, **kwargs).run()

"""The asyncio runtime: genuinely concurrent peers negotiating BW-First.

Where :func:`repro.protocol.runner.run_protocol` *simulates* the
distributed procedure inside one virtual-time event queue, the
:class:`Runtime` *executes* it: every platform node becomes an
:class:`~repro.protocol.actor.NodeActor`, and every message an actor sends
travels through a pluggable :class:`~repro.runtime.transport.Transport` —
in-process delivery or real loopback TCP sockets — before the receiving
actor sees it.  The procedure keeps one message in flight, so one
dispatcher task serves every actor: transports deliver arrivals into one
run-queue, retry timers post their expiries into the same queue, and the
dispatcher lets the addressed actor react and then writes what it sent, in
order.  Whatever reorders, delays, drops or back-pressures lives in the
transport.  Everything that is neither a mover nor a clock — the actors,
the timeout budgets, attempt counting, the transaction-span book, the
check against ``bw_first()`` and the result's tallies — is the same
:class:`~repro.protocol.runner.Negotiation` the simulated runner drives,
so Proposition 2 carries over: the negotiated throughput is **exactly**
``bw_first()``'s (asserted when *verify* is on), and with telemetry
enabled the transaction span tree is the simulated runner's — same spans,
same tags, same parent-child activation edges — only the timestamps are
wall-clock seconds instead of virtual time.

Timeouts are wall-clock here: the core's one hierarchical rule,
``B(X) = allowance(X) + Σ_children B(Y)``, with ``base_timeout`` seconds
as every edge's own allowance; the
:class:`~repro.protocol.retry.RetryPolicy` multiplies ``B`` by ``backoff``
per attempt before giving the child up for dead.  The state machine's
idempotence makes the at-least-once retransmissions safe over a transport
that drops frames (an :class:`~repro.runtime.transport.InProcTransport`
or :class:`~repro.runtime.transport.TcpTransport` armed with a
:class:`~repro.faults.plan.FaultPlan`).

:func:`negotiate` is the one-shot form — a fresh transport and a fresh
event loop per call; a :class:`Session` keeps both across a sequence of
negotiations, so a platform that changed by one edge is re-negotiated
without dialling the other edges again.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple, Union

from ..core.bwfirst import BWFirstResult
from ..core.rates import ZERO, as_fraction
from ..exceptions import ProtocolError
from ..platform.tree import Tree
from ..protocol.actor import NodeActor
from ..protocol.messages import Message
from ..protocol.retry import RetryPolicy
from ..protocol.runner import (VIRTUAL_PARENT, Negotiation, ProtocolResult,
                               Standing)
from ..telemetry.core import Registry
from .transport import InProcTransport, TcpTransport, Transport

#: Registered transport factories for ``transport="name"`` shorthand.
TRANSPORTS = {
    "inproc": InProcTransport,
    "tcp": TcpTransport,
}

#: Nanoseconds per second, for exact wall-clock Fractions.
_NS = 10**9


def refuse_running_loop(error: type, instead: str) -> None:
    """The synchronous entry points own a fresh event loop; called from a
    coroutine they could only fail inside :func:`asyncio.run`, after the
    coroutine they were about to drive had already been created."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return
    raise error(
        f"an event loop is already running in this thread: "
        f"`await {instead}` instead"
    )


def _make_transport(transport: Union[str, Transport]) -> Transport:
    if isinstance(transport, Transport):
        return transport
    try:
        factory = TRANSPORTS[transport]
    except KeyError:
        raise ProtocolError(
            f"unknown transport {transport!r}; "
            f"choose from {sorted(TRANSPORTS)} or pass a Transport"
        ) from None
    return factory()


class Runtime:
    """Boot an actor fleet from a :class:`~repro.platform.tree.Tree`, run
    the depth-first negotiation to quiescence, return a
    :class:`~repro.protocol.runner.ProtocolResult`.

    * *transport* — ``"inproc"`` (default), ``"tcp"``, or a ready
      :class:`~repro.runtime.transport.Transport` instance (e.g. one armed
      with a fault plan);
    * *retry* — wall-clock at-least-once policy; without it no timers are
      armed and a lossy transport would hang (callers staging loss must
      pass one);
    * *base_timeout* — seconds of patience per edge before the
      hierarchical budget of its subtree is added on top;
    * *failed* — fail-stop nodes: what is addressed to them is swallowed, and
      parents prune them by wall-clock timeout exactly as the simulated
      runner prunes by virtual-time timeout (requires *retry* or uses a
      no-retry policy);
    * *deadline* — overall wall-clock bound on the run; exceeding it
      raises :class:`~repro.exceptions.ProtocolError` instead of hanging a
      CI job on a dead socket;
    * *telemetry* — span + counter instrumentation, same schema as the
      simulated runner (``protocol.*`` counters, one ``transaction`` span
      per Proposal→Ack exchange, tagged proposer/β/θ/xid/outcome);
    * *reference* — an already-computed centralised
      :class:`~repro.core.bwfirst.BWFirstResult` of this platform and
      proposal (:func:`~repro.protocol.runner.run_protocol`'s contract):
      *verify* checks against it instead of running ``bw_first`` again,
      and raises :class:`~repro.exceptions.ProtocolError` when it was
      solved for another ``t_max`` or visits a node this platform lacks.
      A run that quarantined a link verifies against its own solve of
      what is left.
    """

    def __init__(
        self,
        tree: Tree,
        transport: Union[str, Transport] = "inproc",
        *,
        proposal: Optional[Fraction] = None,
        verify: bool = True,
        failed: frozenset = frozenset(),
        retry: Optional[RetryPolicy] = None,
        base_timeout: float = 0.05,
        deadline: float = 60.0,
        telemetry: Optional[Registry] = None,
        trace_id: Optional[str] = None,
        close_transport: bool = True,
        reference: Optional[BWFirstResult] = None,
    ):
        if base_timeout <= 0:
            raise ProtocolError("base_timeout must be positive")
        self.tree = tree
        self.transport = _make_transport(transport)
        self.proposal = proposal
        self.verify = verify
        self.failed = frozenset(failed)
        self.retry = retry
        self.base_timeout = base_timeout
        self.deadline = deadline
        self.telemetry = telemetry
        self.reference = reference
        #: when False the transport (and its sockets) survive
        #: :meth:`arun`, so a task plane can reuse the negotiated
        #: connections for payload frames — see ``repro.taskplane``
        self.close_transport = close_transport

        #: the last run's actors (every :meth:`arun` boots fresh ones)
        self.actors: Dict[Hashable, NodeActor] = {}
        #: what the actor being served sent — ``append`` is every actor's
        #: ``send``; the rest of a run's state is set up by :meth:`arun`
        self._outgoing: List[Message] = []
        #: a bad platform or failed set is refused, and the trace id minted,
        #: here; the books of a run are a fresh Negotiation per :meth:`arun`
        self.trace_id = self._negotiation(trace_id).trace_id

    def _negotiation(self, trace_id: Optional[str]) -> Negotiation:
        return Negotiation(
            self.tree, self.proposal, self.failed, self.retry, self.telemetry,
            None, trace_id,
            now=self._now, allowance=lambda node: self.base_timeout,
        )

    def _now(self) -> Fraction:
        """Wall-clock seconds since the run started, exact."""
        return Fraction(time.monotonic_ns() - self._t0, _NS)

    # ------------------------------------------------------------------
    # the dispatcher
    # ------------------------------------------------------------------
    async def _dispatch(self, core: Negotiation) -> None:
        """The negotiation's one task and single ordered writer: transmit
        what the last reaction sent — arming the retry timer the core asks
        for — then serve the next arrival or timer expiry.  A crash anywhere
        in here fails the run through the completion future instead of
        hanging it."""
        queue, outgoing, done = self._queue, self._outgoing, self._done
        send, passive = self.transport.send, core.passive
        call_later = asyncio.get_running_loop().call_later
        try:
            while True:
                for message in outgoing:
                    patience = None if passive else core.sent(message)
                    await send(message)
                    if patience is not None:
                        self._timers.append(call_later(
                            patience, queue.put_nowait,
                            (message.sender, message.receiver, message.xid)))
                outgoing.clear()
                item = await queue.get()
                if type(item) is tuple:
                    core.expire(*item)
                else:
                    core.deliver(item)
                    if core.theta is not None and not done.done():
                        done.set_result(None)
        except Exception as exc:  # noqa: BLE001 - fail the whole run
            if not done.done():
                done.set_exception(exc)

    # ------------------------------------------------------------------
    # orchestration
    # ------------------------------------------------------------------
    async def arun(self) -> ProtocolResult:
        """Async entry point: negotiate once, return the result.  May be
        awaited again: every run starts from fresh actors, attempt counts
        and spans, remembers nothing and reports its own traffic only."""
        return await self._arun(None)

    async def _arun(self, standing: Optional[Standing]) -> ProtocolResult:
        """:meth:`arun`, on what a :class:`Session` remembers: clean actors
        boot with their memory, the run's answers are learnt into it."""
        tree, transport = self.tree, self.transport
        self._done = asyncio.get_running_loop().create_future()
        #: the run-queue: arrived messages and timer expiries — (sender,
        #: child, xid) tuples — in the order the dispatcher serves them
        self._queue = asyncio.Queue()
        self._timers: List[asyncio.TimerHandle] = []
        self._t0 = time.monotonic_ns()
        sent_before, edges_before = self._traffic()
        core = self._negotiation(self.trace_id)
        core.standing = standing
        self.actors = core.actors

        # every receiver's mailbox is the one run-queue
        await transport.start(
            tree, dict.fromkeys((*tree.nodes(), VIRTUAL_PARENT), self._queue))
        seed = core.boot(self._outgoing.append)
        self._outgoing[:] = [*core.notices, seed]
        dispatcher = asyncio.ensure_future(self._dispatch(core))
        try:
            await asyncio.wait_for(asyncio.shield(self._done),
                                   timeout=self.deadline)
        except asyncio.TimeoutError:
            raise ProtocolError(
                f"negotiation did not converge within {self.deadline}s of "
                "wall clock — a hung transport, a lossy plan without a "
                "retry policy, or timeouts longer than the deadline"
            ) from None
        finally:
            completion = self._now()
            for timer in self._timers:
                timer.cancel()
            dispatcher.cancel()
            await asyncio.gather(dispatcher, return_exceptions=True)
            if self.close_transport:
                await transport.close()

        if self.verify:
            # a link quarantined during the run is a platform the caller's
            # reference could not know: that one is solved for here
            core.check(self.failed | frozenset(transport.quarantined),
                       None if transport.quarantined else self.reference)
        sent, by_edge = self._traffic()
        sent.subtract(sent_before)         # keeps the zeros
        sent["runtime.quarantined"] = len(transport.quarantined)
        # by_edge - edges_before keeps the edges this run wrote on
        return core.result(completion, sent, by_edge - edges_before)

    def run(self) -> ProtocolResult:
        """Synchronous entry point (owns a fresh event loop)."""
        refuse_running_loop(ProtocolError, "Runtime(...).arun()")
        return asyncio.run(self.arun())

    def _traffic(self) -> Tuple[Counter, Counter]:
        """The transport's cumulative tallies, in total and per directed
        edge.  A transport outlives a run (``close_transport=False``, or a
        second :meth:`arun`), so a result reports end minus start."""
        transport = self.transport
        totals = Counter({
            "protocol.messages": transport.messages_sent,
            "protocol.bytes": transport.bytes_sent,
            "protocol.dropped": transport.dropped,
            "protocol.duplicated": transport.duplicated,
            "runtime.corrupt_frames": transport.corrupt_frames,
        })
        if hasattr(transport, "octets_sent"):
            totals["runtime.tcp.octets"] = transport.octets_sent
            totals["runtime.tcp.dials"] = transport.dials
        return totals, Counter(getattr(transport, "octets_by_edge", ()))


def negotiate(
    tree: Tree,
    transport: Union[str, Transport] = "inproc",
    **kwargs,
) -> ProtocolResult:
    """One-shot convenience: ``Runtime(tree, transport, **kwargs).run()``."""
    return Runtime(tree, transport, **kwargs).run()


class Session:
    """One transport and one event loop for a sequence of negotiations.

    ``session.negotiate(tree, **runtime_kwargs)`` is :func:`negotiate` on a
    transport that is not closed in between, so over TCP a negotiation
    pays for the edges that changed since the last one
    (:meth:`TcpTransport.start <repro.runtime.transport.TcpTransport.start>`
    reconciles) instead of dialling the platform again.  Sockets belong to
    the loop they were opened on, hence the session owns both; the loop is
    created by the first negotiation.  A context manager; :meth:`close` is
    idempotent.

    The nodes outlive a negotiation too.  The session carries a
    :class:`~repro.protocol.runner.Standing`: what every node answered last
    time.  In the next negotiation a node whose subtree is unchanged and
    which is offered the same β answers the same θ without forwarding, so
    the run exchanges what the change reaches, not the platform; every
    other known node on a root-to-change path first sends its parent one
    :class:`~repro.protocol.messages.Notice`.  The result is the cold
    one — every node's λ, θ and transactions — and says what was
    :attr:`~repro.protocol.runner.ProtocolResult.exchanged`.

    Reuse is **fenced**.  Every run's actors count their xids from 0 and
    the traversal is deterministic, so a duplicate ``Acknowledgment`` of
    run *k* still sitting in a socket buffer would match the xid run
    *k + 1* is waiting for on that edge and be accepted with a stale θ.
    Therefore a negotiation that raised, or whose result reports a
    retransmission, timeout, drop or duplicate, leaves nothing behind: the
    session closes the transport (and its loop), forgets what the nodes
    remembered, and the next negotiation dials afresh and runs cold.  The
    fence lives here and not in :meth:`Runtime.arun`
    because the task plane takes the sockets over after lossy negotiations
    on purpose.
    """

    def __init__(self, transport: Union[str, Transport] = "inproc"):
        self.transport = _make_transport(transport)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._standing = Standing()

    def negotiate(self, tree: Tree, **runtime_kwargs) -> ProtocolResult:
        """``Runtime(tree, self.transport, **runtime_kwargs)`` run once on
        the session's loop."""
        refuse_running_loop(ProtocolError, "Runtime(...).arun()")
        runtime = Runtime(tree, self.transport, close_transport=False,
                          **runtime_kwargs)
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        try:
            result = self._loop.run_until_complete(
                runtime._arun(self._standing))
        except BaseException:
            self.close()
            raise
        if (result.retransmissions or result.timeouts or result.dropped
                or result.duplicated):
            self.close()
        return result

    def learn(self, result: ProtocolResult) -> None:
        """Take what the nodes answered in *result* — a negotiation of the
        platform made elsewhere, say by
        :func:`~repro.protocol.runner.run_protocol` — for what they
        remember, in place of whatever this session's own runs left."""
        self._standing = Standing()
        self._standing.learn(result)

    def close(self) -> None:
        """Close the transport, then the loop; remember nothing."""
        self._standing = Standing()
        loop, self._loop = self._loop, None
        if loop is None:
            return
        try:
            loop.run_until_complete(self.transport.close())
        finally:
            loop.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def sequential_completion_time(
    result: ProtocolResult,
    latency_factor=Fraction(1, 100),
    fixed_latency=0,
) -> Fraction:
    """The *virtual* wall-clock a loss-free simulated run of this
    negotiation would take.

    The depth-first protocol keeps exactly one message in flight, so the
    simulated completion time is the plain sum of every message's link
    latency: two crossings (Proposal + Acknowledgment) per transaction
    the run exchanged and one per notice sent ahead of it, at
    ``c(child)·latency_factor + fixed_latency`` each; the virtual-parent
    link is free.  This maps a runtime negotiation — whose
    own ``completion_time`` is wall seconds — back onto a virtual
    timeline, which is how :func:`repro.faults.recovery.resilient_run`
    schedules the post-recovery switch when the re-negotiation ran over a
    real transport.  Only valid for runs without drops or timeouts (a
    retransmission would add waiting time the sum cannot see).
    """
    factor = as_fraction(latency_factor)
    fixed = as_fraction(fixed_latency)
    tree = result.tree
    total = ZERO
    for _parent, child, _beta, _theta in result.exchanged:
        total += 2 * (tree.c(child) * factor + fixed)
    for child in result.notices:
        total += tree.c(child) * factor + fixed
    return total

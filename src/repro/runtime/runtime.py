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
transport.  The actor state machines are byte-for-byte the ones
the simulator drives, so Proposition 2 carries over: the negotiated
throughput is **exactly** ``bw_first()``'s (asserted when *verify* is on),
and with telemetry enabled the transaction span tree is structurally
identical to the simulated runner's — same spans, same tags, same
parent-child activation edges — only the timestamps are wall-clock
seconds instead of virtual time.

Timeouts are wall-clock here.  A parent arms a timer per proposal with the
same hierarchical shape as the simulated runner's budgets — the allowance
for a child must outlast the child's entire sub-negotiation, so
``B(X) = base_timeout + Σ_children B(Y)`` — and the
:class:`~repro.protocol.retry.RetryPolicy` multiplies it by ``backoff``
per attempt before giving the child up for dead.  The state machine's
idempotence makes the at-least-once retransmissions safe over a transport
that drops frames (an :class:`~repro.runtime.transport.InProcTransport`
or :class:`~repro.runtime.transport.TcpTransport` armed with a
:class:`~repro.faults.plan.FaultPlan`).
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple, Union

from ..core.bwfirst import bw_first, root_proposal
from ..core.rates import ZERO, as_fraction
from ..exceptions import ProtocolError
from ..platform.tree import Tree
from ..protocol.actor import DONE, NodeActor
from ..protocol.messages import Acknowledgment, Message, Proposal
from ..protocol.retry import RetryPolicy
from ..protocol.runner import VIRTUAL_PARENT, ProtocolResult, _prune
from ..telemetry.core import Registry, Span
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
      per Proposal→Ack exchange, tagged proposer/β/θ/xid/outcome).
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
    ):
        if VIRTUAL_PARENT in tree:
            raise ProtocolError(f"{VIRTUAL_PARENT!r} is reserved")
        if tree.root in failed:
            raise ProtocolError(
                "the root cannot be failed: nothing can negotiate"
            )
        if base_timeout <= 0:
            raise ProtocolError("base_timeout must be positive")
        self.tree = tree
        self.transport = _make_transport(transport)
        self.proposal = proposal
        self.verify = verify
        self.failed = frozenset(failed)
        self.retry = retry
        self._policy = retry if retry is not None else RetryPolicy(
            max_retries=0
        )
        self.base_timeout = base_timeout
        self.deadline = deadline
        self.telemetry = telemetry
        #: when False the transport (and its sockets) survive
        #: :meth:`arun`, so a task plane can reuse the negotiated
        #: connections for payload frames — see ``repro.taskplane``
        self.close_transport = close_transport

        self.actors: Dict[Hashable, NodeActor] = {}
        #: what the actor being served sent — ``append`` is every actor's
        #: ``send``; the rest of a run's state is set up by :meth:`arun`
        self._outgoing: List[Message] = []

        spans_on = telemetry is not None and telemetry.enabled
        self._spans_on = spans_on
        if spans_on and trace_id is None:
            from ..telemetry.live import mint_trace_id

            trace_id = mint_trace_id()
        self.trace_id = trace_id

        #: wall-clock timeout budgets, children before parents (see module
        #: docstring): the parent's patience for an edge must outlast the
        #: child's whole sub-negotiation
        self._budgets: Dict[Hashable, float] = {}
        if retry is not None or self.failed:
            for node in reversed(list(tree.nodes())):
                if tree.parent(node) is None:
                    continue
                self._budgets[node] = base_timeout + sum(
                    self._budgets[ch] for ch in tree.children(node)
                )

    # ------------------------------------------------------------------
    # time + spans
    # ------------------------------------------------------------------
    def _now(self) -> Fraction:
        """Wall-clock seconds since the run started, exact."""
        return Fraction(time.monotonic_ns() - self._t0, _NS)

    def _note_proposal(self, message: Proposal) -> None:
        sender = message.sender
        key = (sender, message.receiver, message.xid)
        span = self._open_spans.get(key)
        if span is None:
            self._open_spans[key] = self.telemetry.begin_span(
                "transaction",
                start=self._now(),
                node=message.receiver,
                parent=self._inbound.get(sender),
                proposer=sender,
                beta=message.beta,
                xid=message.xid,
                trace=self.trace_id,
            )
        else:
            span.tags["retries"] = span.tags.get("retries", 0) + 1

    def _close_span(self, key: tuple, outcome: str, theta=None) -> None:
        span = self._open_spans.pop(key, None)
        if span is not None:
            if theta is None:
                self.telemetry.end_span(span, end=self._now(), outcome=outcome)
            else:
                self.telemetry.end_span(span, end=self._now(), outcome=outcome,
                                        theta=theta)

    # ------------------------------------------------------------------
    # the dispatcher
    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        """The negotiation's one task and single ordered writer: transmit
        what the last reaction sent, then serve the next arrival or timer
        expiry.  A crash anywhere in here fails the run through the
        completion future instead of hanging it."""
        queue, outgoing = self._queue, self._outgoing
        send, budgets = self.transport.send, self._budgets
        try:
            while True:
                for message in outgoing:
                    proposal = isinstance(message, Proposal)
                    if proposal and self._spans_on:
                        self._note_proposal(message)
                    await send(message)
                    if proposal and message.receiver in budgets:
                        self._arm_timer(message.sender, message.receiver,
                                        message.xid)
                outgoing.clear()
                item = await queue.get()
                if type(item) is tuple:
                    self._expire(*item)
                else:
                    self._deliver(item)
        except Exception as exc:  # noqa: BLE001 - fail the whole run
            if not self._done.done():
                self._done.set_exception(exc)

    def _deliver(self, message: Message) -> None:
        node = message.receiver
        if node == VIRTUAL_PARENT:
            if not isinstance(message, Acknowledgment):
                raise ProtocolError(
                    "virtual parent expected an acknowledgment")
            if self._spans_on:
                self._close_span((VIRTUAL_PARENT, self.tree.root, message.xid),
                                 "acked", theta=message.theta)
            if not self._done.done():  # a duplicated root ack is swallowed
                self._done.set_result(message.theta)
            return
        if node in self.failed:
            return  # a failed node: swallow every message, answer nothing
        actor = self.actors[node]
        if self._spans_on:
            if isinstance(message, Proposal):
                if actor.lam is None:
                    span = self._open_spans.get(
                        (message.sender, node, message.xid)
                    )
                    if span is not None:
                        self._inbound[node] = span
            elif isinstance(message, Acknowledgment):
                if actor.is_pending(message.sender, message.xid):
                    self._close_span(
                        (node, message.sender, message.xid),
                        "acked", theta=message.theta,
                    )
        actor.handle(message)

    def _arm_timer(self, sender: Hashable, child: Hashable, xid) -> None:
        key = (sender, child, xid)
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        patience = self._budgets[child] * float(self._policy.backoff) ** attempt
        self._timers.append(asyncio.get_running_loop().call_later(
            patience, self._queue.put_nowait, key))

    def _expire(self, sender: Hashable, child: Hashable, xid) -> None:
        actor = self.actors[sender]
        if not actor.is_pending(child, xid):
            return  # answered (or superseded) in the meantime
        if self._attempts[(sender, child, xid)] <= self._policy.max_retries:
            self._retransmissions += 1
            actor.resend_pending()  # the dispatcher transmits and re-arms
        else:
            self._timeouts += 1
            actor.on_timeout(child, xid)
            if self._spans_on:
                self._close_span((sender, child, xid), "timeout")

    # ------------------------------------------------------------------
    # orchestration
    # ------------------------------------------------------------------
    async def arun(self) -> ProtocolResult:
        """Async entry point: negotiate once, return the result.  May be
        awaited again: every run starts from fresh actors, attempt counts
        and spans, and reports its own traffic only."""
        tree, transport = self.tree, self.transport
        self._done = asyncio.get_running_loop().create_future()
        #: the run-queue: arrived messages and timer expiries — (sender,
        #: child, xid) tuples — in the order the dispatcher serves them
        self._queue = asyncio.Queue()
        self._timers: List[asyncio.TimerHandle] = []
        self._attempts: Dict[tuple, int] = {}
        self._retransmissions = 0
        self._timeouts = 0
        self._open_spans: Dict[tuple, Span] = {}
        self._inbound: Dict[Hashable, Span] = {}
        self._t0 = time.monotonic_ns()
        self._sent_before = self._traffic()

        # every receiver's mailbox is the one run-queue
        await transport.start(
            tree, dict.fromkeys((*tree.nodes(), VIRTUAL_PARENT), self._queue))
        for node in tree.nodes():
            children = [
                (child, tree.c(child))
                for child in tree.children_by_bandwidth(node)
            ]
            parent = tree.parent(node)
            self.actors[node] = NodeActor(
                name=node,
                rate=tree.rate(node),
                parent=parent if parent is not None else VIRTUAL_PARENT,
                children=children,
                send=self._outgoing.append,
            )

        lam = root_proposal(tree) if self.proposal is None else self.proposal
        self._outgoing[:] = [Proposal(sender=VIRTUAL_PARENT, receiver=tree.root,
                                      beta=lam, xid=0, trace=self.trace_id)]
        dispatcher = asyncio.ensure_future(self._dispatch())
        try:
            theta = await asyncio.wait_for(
                asyncio.shield(self._done), timeout=self.deadline
            )
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

        throughput = lam - theta
        if self.verify:
            self._check(throughput)
        return self._result(lam, throughput, completion)

    def run(self) -> ProtocolResult:
        """Synchronous entry point (owns a fresh event loop)."""
        refuse_running_loop(ProtocolError, "Runtime(...).arun()")
        return asyncio.run(self.arun())

    # ------------------------------------------------------------------
    # verification + result assembly (mirrors the simulated runner)
    # ------------------------------------------------------------------
    def _check(self, throughput: Fraction) -> None:
        excluded = self.failed | frozenset(self.transport.quarantined)
        reference_tree = (
            _prune(self.tree, excluded) if excluded else self.tree
        )
        reference = bw_first(reference_tree, proposal=self.proposal)
        if reference.throughput != throughput:
            raise ProtocolError(
                f"distributed runtime negotiated {throughput}, centralised "
                f"BW-First computes {reference.throughput}"
            )
        if not excluded:
            for node, outcome in reference.outcomes.items():
                actor = self.actors[node]
                if actor.lam != outcome.lam or (
                    actor.state == DONE and actor.theta != outcome.theta
                ):
                    raise ProtocolError(
                        f"actor {node!r} diverged from Algorithm 1", node=node
                    )

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
        return totals, Counter(getattr(transport, "octets_by_edge", ()))

    def _result(self, lam: Fraction, throughput: Fraction,
                completion: Fraction) -> ProtocolResult:
        sent, by_edge = self._traffic()
        before, edges_before = self._sent_before
        sent.subtract(before)          # keeps the zeros
        by_edge = by_edge - edges_before   # keeps the edges this run wrote on
        transactions = 1 + sum(
            len(actor.transactions) for actor in self.actors.values()
        )
        view = Registry()
        tallies = (
            ("protocol.messages", sent["protocol.messages"]),
            ("protocol.bytes", sent["protocol.bytes"]),
            ("protocol.transactions", transactions),
            ("protocol.retransmissions", self._retransmissions),
            ("protocol.timeouts", self._timeouts),
            ("protocol.dropped", sent["protocol.dropped"]),
            ("protocol.duplicated", sent["protocol.duplicated"]),
            ("runtime.corrupt_frames", sent["runtime.corrupt_frames"]),
            ("runtime.quarantined", len(self.transport.quarantined)),
        )
        registries = (view,) if self.telemetry is None else (
            view, self.telemetry
        )
        for registry in registries:
            for name, amount in tallies:
                registry.counter(name).inc(amount)
            registry.gauge("protocol.completion_time").set(completion)
            registry.gauge("protocol.throughput").set(throughput)
            registry.gauge("protocol.visited_nodes").set(
                sum(1 for a in self.actors.values() if a.lam is not None)
            )
            if "runtime.tcp.octets" in sent:
                registry.counter("runtime.tcp.octets").inc(
                    sent["runtime.tcp.octets"])
            for (parent, child), count in by_edge.items():
                registry.counter(
                    "runtime.tcp.edge_octets",
                    edge=f"{parent}->{child}",
                ).inc(count)
        return ProtocolResult(
            tree=self.tree,
            throughput=throughput,
            t_max=lam,
            actors=self.actors,
            telemetry=view,
            trace_id=self.trace_id,
        )


def negotiate(
    tree: Tree,
    transport: Union[str, Transport] = "inproc",
    **kwargs,
) -> ProtocolResult:
    """One-shot convenience: ``Runtime(tree, transport, **kwargs).run()``."""
    return Runtime(tree, transport, **kwargs).run()


def sequential_completion_time(
    result: ProtocolResult,
    latency_factor=Fraction(1, 100),
    fixed_latency=0,
) -> Fraction:
    """The *virtual* wall-clock a loss-free simulated run of this
    negotiation would take.

    The depth-first protocol keeps exactly one message in flight, so the
    simulated completion time is the plain sum of every message's link
    latency: two crossings (Proposal + Acknowledgment) per settled
    transaction, at ``c(child)·latency_factor + fixed_latency`` each; the
    virtual-parent link is free.  This maps a runtime negotiation — whose
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
    for actor in result.actors.values():
        for child, _beta, _theta in actor.transactions:
            total += 2 * (tree.c(child) * factor + fixed)
    return total

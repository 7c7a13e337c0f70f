"""Running the distributed BW-First protocol end to end.

:func:`run_protocol` wires one :class:`~repro.protocol.actor.NodeActor`
per platform node through a latency-modelled
:class:`~repro.protocol.network.Network`, seeds the root with the virtual
parent's proposal ``t_max``, and drains the event queue — the virtual-time
driver of a :class:`Negotiation`, the bookkeeping it shares with the
wall-clock :class:`~repro.runtime.runtime.Runtime`.  The result carries

* the negotiated throughput (exactly the centralised
  :func:`~repro.core.bwfirst.bw_first` value — asserted when *verify* is on),
* the number of control messages and bytes exchanged,
* the protocol's wall-clock completion time under the latency model —
  the quantity Section 5 argues is negligible against task communication
  times, measured by experiment E8.

All of those tallies live as counters in a per-result telemetry
:class:`~repro.telemetry.core.Registry` (``result.telemetry``); the
``messages`` / ``bytes`` / ``completion_time`` attributes are thin views
over it.  Passing ``telemetry=`` additionally records every
Proposal→Acknowledgment **transaction as a span**: the span's owner is the
proposed-to child, its parent is the transaction that activated the
proposer, and its tags carry β, θ, the transaction id, retransmission
counts and the outcome (``acked`` or ``timeout``).  The span tree of a
negotiation is therefore exactly the set of visited nodes (experiment E6)
and its size exactly the transaction count — the paper's procedural
efficiency claims, made inspectable.

Fault tolerance comes in two layers:

* *failed* declares fail-stop nodes that silently swallow every message;
  parents detect them by ack timeout and negotiate on the surviving tree;
* *retry* (a :class:`~repro.protocol.retry.RetryPolicy`) turns the timeout
  into at-least-once retransmission, so the negotiation also survives a
  **lossy control plane** — dropped or duplicated Proposals and
  Acknowledgments, e.g. injected by
  :class:`~repro.faults.inject.FaultyNetwork` passed as *network*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from ..core.bwfirst import BWFirstResult, bw_first, root_proposal
from ..core.rates import as_fraction
from ..exceptions import ProtocolError, SimulationError
from ..platform.tree import Tree
from ..telemetry.core import Registry, Span
from .actor import DONE, NodeActor
from .messages import Acknowledgment, Message, Notice, Proposal
from .network import Network
from .retry import RetryPolicy

#: Name of the virtual parent that seeds the root (never a real node).
VIRTUAL_PARENT = "__virtual_parent__"


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one distributed BW-First negotiation.

    The run's tallies are telemetry counters in ``telemetry`` (a per-result
    :class:`~repro.telemetry.core.Registry`); the historical attributes
    below read from it, so existing callers and benchmarks keep working.
    """

    tree: Tree
    throughput: Fraction
    t_max: Fraction
    actors: Dict[Hashable, NodeActor]
    telemetry: Registry = field(default_factory=Registry, repr=False)
    #: distributed-trace id of this negotiation (None when untraced)
    trace_id: Optional[str] = None
    #: the nodes that sent their parent a :class:`Notice` before this run
    notices: Tuple[Hashable, ...] = ()

    @property
    def completion_time(self) -> Fraction:
        """Protocol wall-clock under the latency model."""
        return self.telemetry.value("protocol.completion_time")

    @property
    def messages(self) -> int:
        """Control messages transmitted (retransmissions included)."""
        return self.telemetry.value("protocol.messages")

    @property
    def bytes(self) -> int:
        """Control bytes transmitted."""
        return self.telemetry.value("protocol.bytes")

    @property
    def retransmissions(self) -> int:
        """Proposals retransmitted by retry timers."""
        return self.telemetry.value("protocol.retransmissions")

    @property
    def timeouts(self) -> int:
        """Transactions closed by giving up on a silent child."""
        return self.telemetry.value("protocol.timeouts")

    @property
    def dropped(self) -> int:
        """Control messages destroyed by the (faulty) transport."""
        return self.telemetry.value("protocol.dropped")

    @property
    def duplicated(self) -> int:
        """Control messages duplicated by the (faulty) transport."""
        return self.telemetry.value("protocol.duplicated")

    @property
    def transactions(self) -> int:
        """Completed transactions, the virtual parent's included."""
        return self.telemetry.value("protocol.transactions")

    @property
    def visited(self) -> frozenset:
        """Nodes that took part in the negotiation."""
        return frozenset(
            name for name, actor in self.actors.items() if actor.lam is not None
        )

    @property
    def exchanged(self) -> List[Tuple[Hashable, Hashable, Fraction, Fraction]]:
        """The ``(parent, child, β, θ)`` transactions this run put on the
        wire — all of ``actors``' transactions in a cold run; in a warm one
        those of a node that answered from memory, and of everybody below
        it, are reported there but were not exchanged again."""
        return [(name, *transaction) for name, actor in self.actors.items()
                if not actor.remembered for transaction in actor.transactions]


class Standing:
    """What the nodes of a platform hold between the negotiations of one
    :class:`~repro.runtime.runtime.Session`.

    ``records[node]`` is ``(rate, children, memory)``: the local data the
    node's actor was last built from — its computing rate and its children
    with their link costs, in bandwidth order: one level of
    :meth:`IncrementalSolver.fingerprint
    <repro.core.incremental.IncrementalSolver.fingerprint>`'s key, with the
    child's *name* where the key has the child's fingerprint, because a
    remembered transaction names the child it was settled with — and
    ``(λ, θ, transactions)`` of the last proposal it answered (``None`` if
    it never got one).  A node is **clean** while that local data and every
    child's are what they were; only a clean node is handed its memory.
    Nothing of a run's duplicate-delivery state is kept.  Records outlive
    the node's presence on the platform, so a subtree that returns as it
    left finds its memory again.
    """

    def __init__(self) -> None:
        self.root: Optional[Hashable] = None
        self.records: Dict[Hashable, tuple] = {}

    def learn(self, result: "ProtocolResult", dirty=frozenset()) -> None:
        """Remember every answer given in the negotiation *result* reports
        (*dirty*: the nodes its boot found changed) — or, if it gave
        somebody up, nothing at all: a timed-out child is no child the
        next negotiation may count on staying silent."""
        records = self.records
        if result.timeouts:
            records.clear()
            return
        self.root = result.tree.root
        for node, actor in result.actors.items():
            if actor.lam is not None and not actor.remembered:
                records[node] = (actor.rate, actor.children, (
                    actor.lam, actor.delta, tuple(actor.transactions)))
            elif node in dirty or node not in records:
                records[node] = (actor.rate, actor.children, None)


class Negotiation:
    """One negotiation's bookkeeping — what both drivers share, nothing that
    moves a message or reads a clock.

    :func:`run_protocol` (virtual time, an event queue) and
    :class:`~repro.runtime.runtime.Runtime` (wall clock, a dispatcher over a
    transport) each :meth:`boot` the actors, then report what went on the
    wire (:meth:`sent`), what arrived (:meth:`deliver`) and which timer ran
    out (:meth:`expire`); platform validation, timeout budgets, attempt
    counting → retransmit → give up, the transaction-span book, the
    Proposition-2 :meth:`check` and the tallies of a :class:`ProtocolResult`
    live here, once.

    *now()* timestamps spans.  *allowance(node)* is the patience the edge
    into *node* gets for itself; the timer for a proposal to ``X`` must
    outlast X's entire sub-negotiation, X's own timeouts for its dead
    descendants included, so budgets are hierarchical:
    ``B(X) = allowance(X) + Σ_children B(Y)`` (virtual time:
    ``2·link_latency + slack``; wall clock: ``base_timeout``), and the
    *retry* policy multiplies ``B`` by its backoff per attempt.
    """

    def __init__(self, tree: Tree, proposal: Optional[Fraction],
                 failed: frozenset, retry: Optional[RetryPolicy],
                 telemetry: Optional[Registry], span_parent: Optional[Span],
                 trace_id: Optional[str], now: Callable[[], Fraction],
                 allowance: Callable[[Hashable], Any]):
        if VIRTUAL_PARENT in tree:
            raise ProtocolError(f"{VIRTUAL_PARENT!r} is reserved")
        if tree.root in failed:
            raise ProtocolError("the root cannot be failed: nothing can negotiate")
        self.tree = tree
        if proposal is not None:
            proposal = as_fraction(proposal)  # once: actors read its numerator
        self.proposal = proposal
        self.t_max = root_proposal(tree) if proposal is None else proposal
        self.failed = failed
        self.telemetry = telemetry
        self._span_parent = span_parent
        self._now = now
        self.spans_on = telemetry is not None and telemetry.enabled
        if self.spans_on and trace_id is None:
            from ..telemetry.live import mint_trace_id

            trace_id = mint_trace_id()
        self.trace_id = trace_id
        #: timers are armed only where a child may stay silent
        self.timed = retry is not None or bool(failed)
        #: neither a span nor a timer to keep: a driver may wire the actors
        #: to its mover directly and skip :meth:`sent` / :meth:`deliver`
        self.passive = not (self.spans_on or self.timed)
        self._policy = retry if retry is not None else RetryPolicy(max_retries=0)
        self._allowance = allowance

        #: patience for the first proposal to each non-root node (timed runs)
        self.budgets: Dict[Hashable, Any] = {}
        self.actors: Dict[Hashable, NodeActor] = {}
        #: the root's acknowledgment, once the virtual parent holds it
        self.theta: Optional[Fraction] = None
        self.retransmissions = 0
        self.timeouts = 0
        #: transmissions so far, keyed by (sender, child, xid)
        self._attempts: Dict[tuple, int] = {}
        #: open transaction spans keyed by (proposer, child, xid)
        self._open_spans: Dict[tuple, Span] = {}
        #: per node: the span of the transaction that activated it
        self._inbound: Dict[Hashable, Span] = {}
        #: a session's memory, assigned by the driver that carries one before
        #: :meth:`boot`; ``None`` is a cold negotiation that learns nothing
        self.standing: Optional[Standing] = None
        #: what :meth:`boot` found changed, root-ward closed, and the notices
        #: that pay for it — the driver sends them ahead of the seed
        self._dirty: set = set()
        self.notices: List[Notice] = []
        #: transactions answered from memory in this run
        self.remembered = 0

    def boot(self, send: Callable[[Message], None]) -> Proposal:
        """Create one actor per platform node, all sending through *send*,
        and the budgets their timers will need; returns the virtual parent's
        seed Proposal, for the driver to put on the wire like any other
        message."""
        tree, budgets = self.tree, self.budgets
        if self.timed:
            for node in reversed(list(tree.nodes())):  # children before parents
                if tree.parent(node) is not None:
                    budgets[node] = self._allowance(node) + sum(
                        budgets[child] for child in tree.children(node))
        for node in tree.nodes():
            parent = tree.parent(node)
            self.actors[node] = NodeActor(
                name=node,
                rate=tree.rate(node),
                parent=parent if parent is not None else VIRTUAL_PARENT,
                children=[(child, tree.edge_cost(node, child))
                          for child in tree.children_by_bandwidth(node)],
                send=send,
            )
        if self.standing is not None:
            self._recollect()
        return Proposal(sender=VIRTUAL_PARENT, receiver=tree.root,
                        beta=self.t_max, xid=0, trace=self.trace_id)

    def _recollect(self) -> None:
        """Hand every clean actor its memory; every other node that was
        known notifies its parent.  A dead child or another master voids
        what was remembered: parents must find out by asking."""
        standing, actors = self.standing, self.actors
        if self.failed or standing.root != self.tree.root:
            standing.records.clear()
        records, dirty = standing.records, self._dirty
        for node in reversed(list(actors)):  # children before parents
            actor = actors[node]
            record = records.get(node)
            if (record is None or record[0] != actor.rate
                    or record[1] != actor.children
                    or any(child in dirty for child, _cost in actor.children)):
                dirty.add(node)
                if record is not None and actor.parent != VIRTUAL_PARENT:
                    self.notices.append(Notice(node, actor.parent))
            else:
                actor.memory = record[2]

    def _restore(self) -> None:
        """The root has answered.  Below a node that answered from memory
        nobody was asked: each of them stands where the remembered
        negotiation left it — exactly where a cold run would."""
        actors = self.actors
        stack = [actor for actor in actors.values() if actor.remembered]
        self.remembered = len(stack)
        while stack:
            for child, beta, _theta in stack.pop().transactions:
                actor = actors[child]
                if actor.memory is None or actor.memory[0] != beta:
                    raise ProtocolError(
                        f"{child!r} does not remember the proposal its parent "
                        "remembers making", node=child)
                actor.recall()
                stack.append(actor)

    @property
    def throughput(self) -> Fraction:
        """What the root's subtree absorbs of ``t_max`` (once θ is in)."""
        return self.t_max - self.theta

    # ------------------------------------------------------------------
    # the three things a driver reports
    # ------------------------------------------------------------------
    def sent(self, message: Message):
        """*message* is going on the wire.  A Proposal opens its transaction
        span (a retransmission tags the open one) and, on a timed edge,
        counts as one more attempt: returns how long the driver waits for
        the ack before calling :meth:`expire`, ``None`` when no timer is
        due."""
        if not isinstance(message, Proposal):
            return None
        key = (message.sender, message.receiver, message.xid)
        if self.spans_on:
            span = self._open_spans.get(key)
            if span is None:
                self._open_spans[key] = self.telemetry.begin_span(
                    "transaction",
                    start=self._now(),
                    node=message.receiver,
                    parent=self._inbound.get(message.sender, self._span_parent),
                    proposer=message.sender,
                    beta=message.beta,
                    xid=message.xid,
                    trace=self.trace_id,
                )
            else:
                span.tags["retries"] = span.tags.get("retries", 0) + 1
        budget = self.budgets.get(message.receiver)
        if budget is None:
            return None
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        return self._policy.timeout(budget, attempt)

    def deliver(self, message: Message) -> None:
        """*message* arrived.  The virtual parent keeps the root's θ (the
        first one: a duplicate is swallowed), a failed node swallows
        everything and answers nothing, a live actor reacts — after the
        span it activates under is linked, or the one it settles closed."""
        node = message.receiver
        if node == VIRTUAL_PARENT:
            if not isinstance(message, Acknowledgment):
                raise ProtocolError("virtual parent expected an acknowledgment")
            if self.theta is None:
                self.theta = message.theta
                if self.standing is not None:
                    self._restore()
            self._close_span((VIRTUAL_PARENT, self.tree.root, message.xid),
                             self._outcome(message), theta=message.theta)
            return
        if node in self.failed:
            return
        actor = self.actors.get(node)
        if actor is None:
            raise ProtocolError(f"{message!r} is addressed to nobody on this "
                                "platform")
        if self.spans_on:
            if isinstance(message, Proposal):
                if actor.lam is None:
                    span = self._open_spans.get(
                        (message.sender, node, message.xid))
                    if span is not None:
                        self._inbound[node] = span
            elif isinstance(message, Acknowledgment):
                if actor.is_pending(message.sender, message.xid):
                    self._close_span((node, message.sender, message.xid),
                                     self._outcome(message),
                                     theta=message.theta)
        actor.handle(message)

    def _outcome(self, ack: Acknowledgment) -> str:
        """A span's outcome tag: was *ack* answered from memory?"""
        sender = self.actors.get(ack.sender)
        return ("remembered" if sender is not None and sender.remembered
                else "acked")

    def expire(self, sender: Hashable, child: Hashable, xid) -> None:
        """The timer armed for *sender*'s proposal to *child* ran out:
        retransmit while the policy allows, then give the child up."""
        actor = self.actors[sender]
        if not actor.is_pending(child, xid):
            return  # answered (or superseded) in the meantime
        if self._attempts[(sender, child, xid)] <= self._policy.max_retries:
            self.retransmissions += 1
            actor.resend_pending()  # through the driver's send: re-arms
        else:
            self.timeouts += 1
            actor.on_timeout(child, xid)
            self._close_span((sender, child, xid), "timeout")

    def _close_span(self, key: tuple, outcome: str, **tags) -> None:
        span = self._open_spans.pop(key, None)  # empty when spans are off
        if span is not None:
            self.telemetry.end_span(span, end=self._now(), outcome=outcome,
                                    **tags)

    # ------------------------------------------------------------------
    # verification + result assembly
    # ------------------------------------------------------------------
    def check(self, excluded: frozenset,
              reference: Optional[BWFirstResult]) -> None:
        """Proposition 2: the negotiated throughput is the centralised
        :func:`~repro.core.bwfirst.bw_first` value of the platform without
        the *excluded* subtrees (*reference*, when the caller already solved
        it), and with nothing excluded every actor holds Algorithm 1's λ
        and θ.  An excluded name that is not on the platform is harmless."""
        tree = self.tree
        if reference is None:
            if excluded:
                tree = tree.without_subtrees(n for n in excluded if n in tree)
            reference = bw_first(tree, proposal=self.proposal)
        elif reference.t_max != self.t_max:
            raise ProtocolError(
                f"verification reference was solved for t_max={reference.t_max}, "
                f"this negotiation proposed {self.t_max}"
            )
        if reference.throughput != self.throughput:
            timeouts = (f"; {self.timeouts} transaction(s) closed by timeout"
                        if self.timeouts else "")
            raise ProtocolError(
                f"distributed protocol negotiated {self.throughput}, "
                f"centralised BW-First computes {reference.throughput}"
                f"{timeouts}"
            )
        if not excluded:
            for node, outcome in reference.outcomes.items():
                actor = self.actors.get(node)
                if actor is None:
                    raise ProtocolError(
                        f"verification reference visits {node!r}, which is "
                        "not on the negotiated platform", node=node)
                if actor.lam != outcome.lam or (
                    actor.state == DONE and actor.theta != outcome.theta
                ):
                    raise ProtocolError(
                        f"actor {node!r} diverged from Algorithm 1", node=node
                    )

    def result(self, completion: Fraction, counters: Mapping[str, int],
               edge_octets: Mapping[tuple, int]) -> ProtocolResult:
        """The run's :class:`ProtocolResult`.  *counters* are the mover's
        tallies (``protocol.messages`` / ``.bytes`` / ``.dropped`` /
        ``.duplicated`` and whatever else it counts), *edge_octets* the
        real octets it wrote per directed edge; both land, with the core's
        own counts, in the result's registry and in the caller's."""
        actors = self.actors.values()
        tallies = {
            "protocol.messages": counters["protocol.messages"],
            "protocol.bytes": counters["protocol.bytes"],
            # the virtual parent's transaction plus every settled child one
            "protocol.transactions": 1 + sum(
                len(actor.transactions) for actor in actors),
            "protocol.retransmissions": self.retransmissions,
            "protocol.timeouts": self.timeouts,
            **counters,
        }
        if self.standing is not None:
            tallies["protocol.notices"] = len(self.notices)
            tallies["protocol.remembered"] = self.remembered
        visited = sum(1 for actor in actors if actor.lam is not None)
        view = Registry()  # per-result backing store for the tally attributes
        registries = (view,) if self.telemetry is None else (view, self.telemetry)
        for registry in registries:
            for name, amount in tallies.items():
                registry.counter(name).inc(amount)
            registry.gauge("protocol.completion_time").set(completion)
            registry.gauge("protocol.throughput").set(self.throughput)
            registry.gauge("protocol.visited_nodes").set(visited)
            for (parent, child), count in edge_octets.items():
                registry.counter("runtime.tcp.edge_octets",
                                 edge=f"{parent}->{child}").inc(count)
        result = ProtocolResult(
            tree=self.tree,
            throughput=self.throughput,
            t_max=self.t_max,
            actors=self.actors,
            telemetry=view,
            trace_id=self.trace_id,
            notices=tuple(notice.sender for notice in self.notices),
        )
        if self.standing is not None:
            self.standing.learn(result, self._dirty)
        return result


def run_protocol(
    tree: Tree,
    latency_factor=Fraction(1, 100),
    fixed_latency=0,
    proposal: Optional[Fraction] = None,
    verify: bool = True,
    failed: frozenset = frozenset(),
    ack_timeout: Optional[Fraction] = None,
    retry: Optional[RetryPolicy] = None,
    network: Optional[Network] = None,
    telemetry: Optional[Registry] = None,
    span_parent: Optional[Span] = None,
    reference: Optional[BWFirstResult] = None,
    trace_id: Optional[str] = None,
) -> ProtocolResult:
    """Execute BW-First as a distributed message-passing protocol.

    With *verify* (default) the negotiated throughput is checked against the
    centralised implementation; a mismatch raises
    :class:`~repro.exceptions.ProtocolError` (it would indicate a bug in the
    actor state machine, since Proposition 2 guarantees equality).

    *failed* names dead nodes: they silently swallow every message.  Parents
    handle them through ack timeouts: if a proposal's acknowledgment has not
    arrived in time, the parent closes the transaction as "child consumed
    nothing" and moves on, so the negotiation terminates on the **surviving
    platform** and (as the tests prove) yields exactly the BW-First
    throughput of the tree with the dead subtrees pruned.

    Timeouts are **hierarchical** (:class:`Negotiation`'s one rule,
    ``B(X) = allowance(X) + Σ_children B(Y)``): here an edge's own
    allowance is ``2·latency(X) + slack`` of virtual time.  *ack_timeout*
    overrides the slack (the ``+1`` per edge) when given.

    *retry* arms the same timers but retransmits the proposal (same β, same
    transaction id, timeout multiplied by the policy's backoff) before
    giving up, making the negotiation robust to message loss.  *network*
    substitutes the transport — pass a
    :class:`~repro.faults.inject.FaultyNetwork` to negotiate over a lossy
    control plane.

    *telemetry* enables span instrumentation: every transaction is recorded
    as a hierarchical span in the given registry (timestamped in the
    network's virtual time, shifted by the network's ``time_offset`` when it
    has one), and the final tallies are accumulated into the registry's
    ``protocol.*`` counters.  *span_parent* nests the whole negotiation
    under an outer span (:func:`~repro.faults.recovery.resilient_run` hangs
    re-negotiations off their recovery phase).  Without a registry, a
    retry policy or a failed node the seed's exact code path runs — no
    per-message bookkeeping at all.

    *trace_id* names the distributed trace this negotiation belongs to;
    when telemetry is enabled and no id is given, a fresh one is minted
    (:func:`~repro.telemetry.live.mint_trace_id`).  The id is stamped onto
    the seeding proposal — actors adopt it off the wire and propagate it —
    and tagged onto every transaction span, so per-actor event streams
    stitch back into one trace (``repro trace --stitch``).  Untraced runs
    (``telemetry=None``) carry no id anywhere: the wire bytes and code
    path are exactly the seed's.

    *reference* supplies an already-computed centralised
    :class:`~repro.core.bwfirst.BWFirstResult` for the negotiated platform
    (e.g. from an :class:`~repro.core.incremental.IncrementalSolver`), so
    *verify* checks against it instead of re-running ``bw_first`` from
    scratch — the duplicate solve the re-negotiation entry points used to
    pay.  It must describe the same platform and proposal; a ``t_max``
    mismatch raises :class:`~repro.exceptions.ProtocolError`.
    """
    if network is None:
        network = Network(tree, latency_factor=latency_factor,
                          fixed_latency=fixed_latency)
    elif network.tree is not tree and set(network.tree.nodes()) != set(tree.nodes()):
        raise ProtocolError("the supplied network transports a different tree")
    engine = network.engine
    offset = Fraction(getattr(network, "time_offset", 0))
    slack = (Fraction(ack_timeout) if ack_timeout is not None
             else (retry.slack if retry is not None else Fraction(1)))
    core = Negotiation(
        tree, proposal, failed, retry, telemetry, span_parent, trace_id,
        now=lambda: offset + engine.now,
        allowance=lambda node: (
            2 * network.link_latency(tree.parent(node), node) + slack),
    )

    def observed_send(message: Message) -> None:
        patience = core.sent(message)
        network.send(message)
        if patience is not None:
            engine.schedule_in(patience, lambda: core.expire(
                message.sender, message.receiver, message.xid))

    # with neither a span nor a timer to keep, the seed's exact code path:
    # actors write to the network and the network hands to the actors
    send = network.send if core.passive else observed_send
    seed = core.boot(send)
    for node, actor in core.actors.items():
        network.register(node, actor.handle if core.passive else core.deliver)
    network.register(VIRTUAL_PARENT, core.deliver)
    send(seed)

    max_events = 40 * len(tree) + 200
    if retry is not None:
        # every transaction may be retransmitted and every copy duplicated
        max_events *= 2 * (retry.max_retries + 1)
    try:
        completion = network.run(max_events=max_events)
    except SimulationError as exc:
        raise ProtocolError(
            f"negotiation exceeded {max_events} events — likely a retry loop "
            "(drop rate too high for the retry budget, or timeouts shorter "
            "than the sub-negotiations they guard)",
            time=engine.now,
        ) from exc
    if core.theta is None:
        raise ProtocolError(
            "the protocol did not terminate with a root ack",
            node=tree.root,
            time=engine.now,
            pending=core.actors[tree.root]._pending,
        )
    if verify:
        core.check(failed, reference)
    return core.result(completion, {
        "protocol.messages": network.messages_sent,
        "protocol.bytes": network.bytes_sent,
        "protocol.dropped": getattr(network, "dropped", 0),
        "protocol.duplicated": getattr(network, "duplicated", 0),
    }, {})

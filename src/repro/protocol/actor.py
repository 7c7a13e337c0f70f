"""Per-node actors executing Algorithm 1 as a message-driven state machine.

Each :class:`NodeActor` owns exactly the state Algorithm 1 gives a node —
λ, α, δ, τ and the bandwidth-centric child cursor — and reacts to incoming
messages only:

* on a :class:`~repro.protocol.messages.Proposal` it computes its local
  share and either opens a transaction with its first child or immediately
  acknowledges its parent;
* on an :class:`~repro.protocol.messages.Acknowledgment` it settles the
  pending transaction and moves to the next child, or acknowledges its
  parent when done.

Actors know *only* local information (their ``w``, their children's link
costs, their parent's name): the semi-autonomy property of Section 5.  The
actor layer is deliberately independent of the transport so the tests can
drive it synchronously.

The state machine is **idempotent under duplicate delivery**, which makes
at-least-once retransmission over a lossy control plane safe:

* a duplicate of the proposal currently being worked on is ignored — the
  acknowledgment will go out once the sub-negotiation completes;
* a duplicate of an already-answered proposal (recognised by its ``xid``)
  is answered again from the cached θ, so a lost acknowledgment is healed
  by the parent's retransmission;
* a late or duplicate acknowledgment of an already-settled transaction is
  ignored, so a child declared dead by timeout cannot corrupt the parent's
  state when its answer finally arrives.

Inside a :class:`~repro.runtime.runtime.Session` an actor may be booted
with a :attr:`~NodeActor.memory`: the λ it was offered, the θ it answered
and the transactions it settled in the session's last negotiation, kept
only while its subtree is unchanged.  Algorithm 1 is deterministic, so
offered that very λ again it answers that very θ without proposing to
anyone; offered anything else it runs Algorithm 1 as if it remembered
nothing.  The duplicate-delivery state above is never remembered: it
starts empty in every run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..core.rates import ONE, ZERO
from ..exceptions import ProtocolError
from .messages import Acknowledgment, Message, Notice, Proposal

#: Callback an actor uses to hand a message to the transport.
SendFn = Callable[[Message], None]

IDLE = "idle"
AWAITING_CHILD = "awaiting-child"
DONE = "done"


class NodeActor:
    """The BW-First state machine of one platform node."""

    def __init__(
        self,
        name: Hashable,
        rate: Fraction,
        parent: Optional[Hashable],
        children: Sequence[Tuple[Hashable, Fraction]],
        send: SendFn,
        trace: Optional[str] = None,
    ):
        """*children* lists ``(name, c)`` pairs already in bandwidth-centric
        order; *rate* is the node's computing rate ``1/w``.

        *trace* seeds the distributed-trace id this actor stamps onto every
        message it originates.  Only the negotiation entry point sets it
        explicitly (on the root actor); every other actor adopts the id off
        the first proposal it receives, so the id floods the tree with the
        negotiation itself — across process boundaries on the TCP
        transport, where it rides inside the checksummed frame body.
        """
        self.name = name
        self.rate = rate
        self.parent = parent
        self.children = list(children)
        self._send = send
        self.trace = trace

        self.state = IDLE
        self.lam: Optional[Fraction] = None
        self.alpha = ZERO
        self.delta = ZERO
        self.tau = ONE
        self._cursor = 0
        self._next_xid = 0
        #: the transaction awaiting its child's answer: (child, β, xid)
        self._pending: Optional[Tuple[Hashable, Fraction, Optional[int]]] = None
        #: xid of the proposal this node is currently answering (child role)
        self._proposal_xid: Optional[int] = None
        #: answered proposals, xid → θ (child role; duplicate → re-ack)
        self._answered: Dict[int, Fraction] = {}
        #: settled transaction xids (parent role; late/duplicate ack → drop)
        self._settled: Set[int] = set()
        self.transactions: List[Tuple[Hashable, Fraction, Fraction]] = []
        #: ``(λ, θ, transactions)`` of the session's last negotiation, on a
        #: node whose subtree has not changed since; ``None`` everywhere else
        self.memory: Optional[tuple] = None
        #: this run exchanged none of :attr:`transactions`: they, λ and θ
        #: are the remembered ones
        self.remembered = False

    # ------------------------------------------------------------------
    def handle(self, message: Message) -> None:
        """React to one incoming message."""
        if isinstance(message, Proposal):
            self._on_proposal(message)
        elif isinstance(message, Acknowledgment):
            self._on_ack(message)
        elif isinstance(message, Notice):
            # who remembers was boot's decision: a notice is what that costs
            # on the wire, checked for where it came from and otherwise inert
            if all(message.sender != child for child, _cost in self.children):
                raise ProtocolError(
                    f"{self.name!r} received a notice from non-child "
                    f"{message.sender!r}", node=self.name)
        else:
            raise ProtocolError(
                f"{self.name!r}: unknown message {message!r}", node=self.name
            )

    # ------------------------------------------------------------------
    def _on_proposal(self, message: Proposal) -> None:
        if message.sender != self.parent:
            raise ProtocolError(
                f"{self.name!r} received a proposal from non-parent "
                f"{message.sender!r}",
                node=self.name,
                pending=self._pending,
            )
        if message.trace is not None:
            self.trace = message.trace
        if message.xid is not None and message.xid in self._answered:
            # retransmission of a proposal already answered: our ack was
            # lost — answer again with the cached θ
            self._send(
                Acknowledgment(
                    sender=self.name,
                    receiver=self.parent,
                    theta=self._answered[message.xid],
                    xid=message.xid,
                    trace=self.trace,
                )
            )
            return
        if self.state != IDLE:
            if message.xid is not None and message.xid == self._proposal_xid:
                return  # duplicate of the proposal we are working on
            raise ProtocolError(
                f"{self.name!r} received a proposal while {self.state}",
                node=self.name,
                pending=self._pending,
            )
        if message.beta < 0:
            raise ProtocolError(
                f"{self.name!r}: negative proposal {message.beta}", node=self.name
            )
        self._proposal_xid = message.xid
        if self.memory is not None and self.memory[0] == message.beta:
            self.recall()
            self._cursor = len(self.children)  # nobody is left to ask
        else:
            self.lam = message.beta
            self.alpha = min(self.rate, message.beta)
            self.delta = message.beta - self.alpha
            self.tau = ONE
            self._cursor = 0
        self._advance()

    def recall(self) -> None:
        """Stand where the remembered negotiation left this node — same λ
        over the same subtree, hence the same α, δ = θ, τ and transactions,
        none of them exchanged in this run."""
        lam, theta, transactions = self.memory
        cost = dict(self.children)
        self.lam = lam
        self.alpha = min(self.rate, lam)
        self.delta = theta
        self.tau = ONE - sum((beta - back) * cost[child]
                             for child, beta, back in transactions)
        self.transactions = list(transactions)
        self.remembered = True
        self.state = DONE

    def _on_ack(self, message: Acknowledgment) -> None:
        if message.xid is not None and message.xid in self._settled:
            return  # late or duplicate answer to a closed transaction
        if self.state != AWAITING_CHILD or self._pending is None:
            raise ProtocolError(
                f"{self.name!r} received an unexpected acknowledgment",
                node=self.name,
            )
        child, beta, xid = self._pending
        if message.sender != child or (
            xid is not None and message.xid != xid
        ):
            raise ProtocolError(
                f"{self.name!r} expected an ack from {child!r}, "
                f"got one from {message.sender!r}",
                node=self.name,
                pending=self._pending,
            )
        theta = message.theta
        if theta < 0 or theta > beta:
            raise ProtocolError(
                f"{self.name!r}: child {child!r} acked {theta} of {beta}",
                node=self.name,
                pending=self._pending,
            )
        self._settle(theta)

    def _settle(self, theta: Fraction) -> None:
        child, beta, xid = self._pending
        self._pending = None
        if xid is not None:
            self._settled.add(xid)
        accepted = beta - theta
        self.delta -= accepted
        cost = dict(self.children)[child]
        self.tau -= accepted * cost
        self.transactions.append((child, beta, theta))
        self._advance()

    # ------------------------------------------------------------------
    def is_pending(self, child: Hashable, xid: Optional[int] = None) -> bool:
        """Whether the transaction with *child* (and *xid*) is still open."""
        if self.state != AWAITING_CHILD or self._pending is None:
            return False
        pending_child, _beta, pending_xid = self._pending
        if pending_child != child:
            return False
        return xid is None or pending_xid == xid

    def resend_pending(self) -> None:
        """Retransmit the pending proposal verbatim (same β, same xid)."""
        if self.state != AWAITING_CHILD or self._pending is None:
            return
        child, beta, xid = self._pending
        self._send(Proposal(sender=self.name, receiver=child, beta=beta,
                            xid=xid, trace=self.trace))

    def on_timeout(self, child: Hashable, xid: Optional[int] = None) -> None:
        """The pending transaction with *child* ran out of retries (dead
        subtree).

        The parent closes the transaction as if the child acknowledged the
        full proposal (θ = β — the subtree consumes nothing) and moves on.
        Stale timeouts (the ack arrived meanwhile, or the pending child or
        transaction is a different one) are ignored, so timers can be armed
        unconditionally.  The transaction id is recorded as settled, so an
        answer from a merely-slow child arriving after the give-up is
        dropped instead of corrupting the state machine.
        """
        if not self.is_pending(child, xid):
            return
        _child, beta, _xid = self._pending
        self._settle(beta)

    def _advance(self) -> None:
        """Open the next child transaction, or acknowledge the parent."""
        while self._cursor < len(self.children):
            if self.delta <= 0 or self.tau <= 0:
                break
            child, cost = self.children[self._cursor]
            self._cursor += 1
            beta = min(self.delta, self.tau / cost)
            xid: Optional[int] = None
            if self._proposal_xid is not None:
                # numbered negotiation: number our own transactions too
                xid = self._next_xid
                self._next_xid += 1
            self._pending = (child, beta, xid)
            self.state = AWAITING_CHILD
            self._send(
                Proposal(sender=self.name, receiver=child, beta=beta, xid=xid,
                         trace=self.trace)
            )
            return
        self.state = DONE
        if self._proposal_xid is not None:
            self._answered[self._proposal_xid] = self.delta
        self._send(
            Acknowledgment(
                sender=self.name,
                receiver=self.parent,
                theta=self.delta,
                xid=self._proposal_xid,
                trace=self.trace,
            )
        )

    # ------------------------------------------------------------------
    @property
    def theta(self) -> Fraction:
        """The acknowledgment this node returned (valid once DONE)."""
        if self.state != DONE:
            raise ProtocolError(f"{self.name!r} has not finished", node=self.name)
        return self.delta

    @property
    def accepted(self) -> Fraction:
        """λ − θ: the rate this node's subtree absorbs (valid once DONE)."""
        if self.state != DONE or self.lam is None:
            raise ProtocolError(f"{self.name!r} has not finished", node=self.name)
        return self.lam - self.delta

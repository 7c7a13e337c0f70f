"""BW-First: the paper's distributed depth-first throughput procedure.

Section 5, Algorithm 1 and Proposition 2.  The procedure traverses the tree
depth-first following the bandwidth-centric child order, negotiating
*transactions* between parents and children:

* a **proposal** ``β`` travels down: "I can supply you β tasks per time
  unit" (``β = min(δ, τ·b)`` — bounded by the parent's leftover virtual
  tasks ``δ`` and by what its remaining send-port time ``τ`` can push
  through the link of bandwidth ``b``);
* an **acknowledgment** ``θ`` travels up: "I could not handle θ of them".

Each visited node keeps as many tasks as it can compute (``α = min(r, λ)``),
then delegates the remainder to its children in increasing-``c`` order until
it runs out of tasks (``δ = 0``) or of send-port time (``τ = 0``).  The root
is seeded by a *virtual parent* proposing ``t_max = r_root + max{b_i}``, an
upper bound no schedule can exceed under the single-port model; the tree's
optimal throughput is ``t_max − θ_root``.

Unlike the bottom-up method, only the nodes actually used by the optimal
schedule are ever visited — the procedure's headline property, measured by
experiment E6.

The implementation is an explicit-stack depth-first walk (heterogeneous
chains can exceed Python's recursion limit) and records the full transaction
log, so the distributed-protocol simulation in :mod:`repro.protocol` can be
validated against it message by message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from ..exceptions import ScheduleError
from ..platform.tree import Tree
from .rates import ONE, ZERO, as_fraction


@dataclass(frozen=True, slots=True)
class Transaction:
    """One closed parent→child transaction.

    ``proposal`` is the β of the first phase, ``ack`` the θ of the second;
    the child accepted ``proposal − ack`` tasks per time unit.  ``index`` is
    the global order in which transactions were *opened* during the
    traversal (the paper's Figure 4(b) numbering).
    """

    index: int
    parent: Hashable
    child: Hashable
    proposal: Fraction
    ack: Fraction

    @property
    def accepted(self) -> Fraction:
        return self.proposal - self.ack


@dataclass(frozen=True, slots=True)
class NodeOutcome:
    """Everything BW-First decided at one visited node.

    Attributes map to the paper's notation: ``lam`` is the proposal λ
    received from the parent, ``alpha`` the tasks/unit computed locally,
    ``theta`` the acknowledgment returned (leftover δ), ``tau`` the unused
    send-port time, and ``transactions`` the transactions this node opened
    with its children, in order.
    """

    node: Hashable
    lam: Fraction
    alpha: Fraction
    theta: Fraction
    tau: Fraction
    transactions: Tuple[Transaction, ...]

    @property
    def accepted(self) -> Fraction:
        """Tasks per time unit this node's subtree consumes (λ − θ)."""
        return self.lam - self.theta

    @property
    def delegated(self) -> Fraction:
        """Tasks per time unit forwarded to children."""
        return sum((t.accepted for t in self.transactions), ZERO)


@dataclass(frozen=True)
class BWFirstResult:
    """Result of running BW-First on a tree."""

    tree: Tree
    t_max: Fraction
    throughput: Fraction
    outcomes: Dict[Hashable, NodeOutcome]
    transactions: Tuple[Transaction, ...]
    #: how an incremental solver's result differs from that solver's
    #: previous one (``None`` for :func:`bw_first`); it is what lets
    #: :func:`~repro.core.allocation.from_bw_first` rebuild only the
    #: changed nodes of the previous allocation
    _lineage: Optional[object] = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def visited(self) -> frozenset:
        """Nodes that received a proposal (were visited by the traversal)."""
        return frozenset(self.outcomes)

    @property
    def unvisited(self) -> frozenset:
        """Nodes never visited — they take no part in the final schedule."""
        return frozenset(self.tree.nodes()) - self.visited

    @property
    def message_count(self) -> int:
        """Messages a distributed run exchanges: two per transaction, plus
        the virtual-parent proposal/ack pair at the root."""
        return 2 * len(self.transactions) + 2

    # ------------------------------------------------------------------
    # the η rates of Section 6 (per time unit, exact rationals)
    # ------------------------------------------------------------------
    def eta_in(self, node: Hashable) -> Fraction:
        """η_{-1}: tasks per time unit *node* receives from its parent."""
        outcome = self.outcomes.get(node)
        if outcome is None:
            return ZERO
        if node == self.tree.root:
            return ZERO  # the root generates tasks, it does not receive them
        return outcome.accepted

    def eta_compute(self, node: Hashable) -> Fraction:
        """η_0 = α: tasks per time unit *node* computes locally."""
        outcome = self.outcomes.get(node)
        return outcome.alpha if outcome is not None else ZERO

    def sends(self, node: Hashable) -> Dict[Hashable, Fraction]:
        """All non-zero per-child send rates of *node* (insertion = bw order)."""
        outcome = self.outcomes.get(node)
        if outcome is None:
            return {}
        return {t.child: t.accepted for t in outcome.transactions if t.accepted > 0}


def root_proposal(tree: Tree) -> Fraction:
    """The virtual parent's proposal ``t_max`` (see Proposition 2's proof)."""
    return tree.root_capacity()


def bw_first(tree: Tree, proposal: Optional[Fraction] = None) -> BWFirstResult:
    """Run the BW-First procedure on *tree* and return the full outcome.

    *proposal* overrides the virtual parent's λ for the root; by default it
    is ``t_max = r_root + max{b_i}``.  Supplying a smaller value computes the
    throughput of the tree when the task supply itself is limited (used by
    the infinite-tree and dynamic-adaptation extensions); it is read
    through :func:`~repro.core.rates.as_fraction` (``0.001`` is ``1/1000``).
    """
    lam_root = root_proposal(tree) if proposal is None else as_fraction(proposal)
    if lam_root < 0:
        raise ScheduleError(f"root proposal must be non-negative (got {lam_root})")

    outcomes: Dict[Hashable, NodeOutcome] = {}
    log: List[Transaction] = []

    # -- explicit-stack depth-first traversal ---------------------------
    # Each frame mirrors the local state of one activation of Algorithm 1.
    class _Frame:
        __slots__ = ("node", "lam", "alpha", "delta", "tau",
                     "children", "pending", "collected")

        def __init__(self, node: Hashable, lam: Fraction):
            self.node = node
            self.lam = lam
            self.alpha = min(tree.rate(node), lam)
            self.delta = lam - self.alpha
            self.tau = ONE
            self.children: Iterator[Hashable] = iter(tree.children_by_bandwidth(node))
            self.pending: Optional[Tuple[int, Hashable, Fraction]] = None
            self.collected: List[Transaction] = []

    stack: List[_Frame] = [_Frame(tree.root, lam_root)]
    returned_theta: Optional[Fraction] = None  # θ from the frame just popped

    while stack:
        frame = stack[-1]

        if frame.pending is not None:
            # close the transaction with the child that just returned
            index, child, beta = frame.pending
            frame.pending = None
            assert returned_theta is not None
            theta = returned_theta
            returned_theta = None
            if theta < 0 or theta > beta:
                raise ScheduleError(
                    f"child {child!r} acknowledged {theta} of a {beta} proposal"
                )
            txn = Transaction(index=index, parent=frame.node, child=child,
                              proposal=beta, ack=theta)
            log[index] = txn
            frame.collected.append(txn)
            accepted = beta - theta
            frame.delta -= accepted
            frame.tau -= accepted * tree.c(child)

        # open the next transaction, if tasks and port time remain
        opened = False
        if frame.delta > 0 and frame.tau > 0:
            for child in frame.children:
                beta = min(frame.delta, frame.tau * tree.bandwidth(child))
                index = len(log)
                log.append(None)  # placeholder, filled when the txn closes
                frame.pending = (index, child, beta)
                stack.append(_Frame(child, beta))
                opened = True
                break
        if opened:
            continue

        # node done: record the outcome and acknowledge the parent
        outcomes[frame.node] = NodeOutcome(
            node=frame.node,
            lam=frame.lam,
            alpha=frame.alpha,
            theta=frame.delta,
            tau=frame.tau,
            transactions=tuple(frame.collected),
        )
        returned_theta = frame.delta
        stack.pop()

    assert returned_theta is not None
    throughput = lam_root - returned_theta
    return BWFirstResult(
        tree=tree,
        t_max=lam_root,
        throughput=throughput,
        outcomes=outcomes,
        transactions=tuple(log),
    )

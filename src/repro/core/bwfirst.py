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
validated against it message by message.  Each visited node's arithmetic is
one :class:`~repro.core.step.Step` on reduced ``(numerator, denominator)``
int pairs, as in the incremental solver and the negotiation's actors;
``Fraction`` appears only in the result.  The same walk on ``Fraction`` is
kept as the test suite's oracle (``bw_first_fraction`` in
``tests/fraction_oracles.py``), which production is held ``==`` to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from ..exceptions import ScheduleError
from ..platform.tree import Tree
from .rates import ZERO, as_fraction, is_infinite
from .step import Fractions, Step, accepted


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


def read_proposal(proposal) -> Fraction:
    """A caller's root proposal, read through
    :func:`~repro.core.rates.as_fraction`; a negative one is refused with
    the same :class:`~repro.exceptions.ScheduleError` on every route."""
    lam = as_fraction(proposal)
    if lam < 0:
        raise ScheduleError(f"root proposal must be non-negative (got {lam})")
    return lam


class _Frame(Step):
    """One activation of Algorithm 1: the node's step, the children it has
    yet to offer to, the open transaction and the ones it closed."""

    __slots__ = ("node", "children", "pending", "collected")

    def __init__(self, node: Hashable, lam_n: int, lam_d: int, w,
                 children: List[Hashable]):
        if is_infinite(w):  # a switch: r = 0
            self.open(lam_n, lam_d, 0, 1)
        else:  # r = 1/w
            self.open(lam_n, lam_d, w.denominator, w.numerator)
        self.node = node
        self.children: Iterator[Hashable] = iter(children)
        #: (index, child, β_n, β_d, c_n, c_d) of the open transaction
        self.pending: Optional[tuple] = None
        self.collected: List[Transaction] = []


def bw_first(tree: Tree, proposal: Optional[Fraction] = None) -> BWFirstResult:
    """Run the BW-First procedure on *tree* and return the full outcome.

    *proposal* overrides the virtual parent's λ for the root; by default it
    is ``t_max = r_root + max{b_i}``.  Supplying a smaller value computes the
    throughput of the tree when the task supply itself is limited (used by
    the infinite-tree and dynamic-adaptation extensions); it is read
    through :func:`~repro.core.rates.as_fraction` (``0.001`` is ``1/1000``).

    Each visited node runs one :class:`~repro.core.step.Step` on reduced
    int pairs; every ``Fraction`` of the outcomes and transactions is
    built through one :class:`~repro.core.step.Fractions` map, one object
    per distinct value.
    """
    lam_root = (root_proposal(tree) if proposal is None
                else read_proposal(proposal))
    weight, edge_cost = tree.w, tree.edge_cost
    by_bandwidth = tree.children_by_bandwidth
    made = Fractions()
    lam_n, lam_d = lam_root.numerator, lam_root.denominator
    made[lam_n, lam_d] = lam_root

    outcomes: Dict[Hashable, NodeOutcome] = {}
    log: List[Optional[Transaction]] = []
    root = tree.root
    stack = [_Frame(root, lam_n, lam_d, weight(root), by_bandwidth(root))]
    returned: Optional[Tuple[int, int]] = None  # θ from the frame just popped

    while stack:
        frame = stack[-1]

        if frame.pending is not None:
            # close the transaction with the child that just returned
            index, child, beta_n, beta_d, c_n, c_d = frame.pending
            frame.pending = None
            theta_n, theta_d = returned
            beta, theta = made[beta_n, beta_d], made[theta_n, theta_d]
            if theta_n < 0 or theta_n * beta_d > beta_n * theta_d:
                raise ScheduleError(
                    f"child {child!r} acknowledged {theta} of a {beta} proposal"
                )
            txn = Transaction(index, frame.node, child, beta, theta)
            log[index] = txn
            frame.collected.append(txn)
            frame.close(*accepted(beta_n, beta_d, theta_n, theta_d), c_n, c_d)

        # open the next transaction, if tasks and port time remain
        if frame.delta_n > 0 and frame.tau_n > 0:
            node = frame.node
            for child in frame.children:
                c = edge_cost(node, child)
                c_n, c_d = c.numerator, c.denominator
                beta_n, beta_d = frame.offer(c_n, c_d)
                index = len(log)
                log.append(None)  # placeholder, filled when the txn closes
                frame.pending = (index, child, beta_n, beta_d, c_n, c_d)
                stack.append(_Frame(child, beta_n, beta_d, weight(child),
                                    by_bandwidth(child)))
                break
            if frame.pending is not None:
                continue

        # node done: record the outcome and acknowledge the parent
        returned = frame.delta_n, frame.delta_d
        outcomes[frame.node] = NodeOutcome(
            frame.node, made[frame.lam_n, frame.lam_d],
            made[frame.alpha_n, frame.alpha_d], made[returned],
            made[frame.tau_n, frame.tau_d], tuple(frame.collected))
        stack.pop()

    theta_n, theta_d = returned
    return BWFirstResult(
        tree=tree,
        t_max=lam_root,
        throughput=made[accepted(lam_n, lam_d, theta_n, theta_d)],
        outcomes=outcomes,
        transactions=tuple(log),
    )

"""The event-driven schedule of Section 6.2.

A non-root node needs **no clock**: it handles the stream of tasks arriving
from its parent in *bunches* of ``Ψ = Σ ψ_i`` tasks.  Within a bunch,
``ψ_0`` tasks are kept for local computation and ``ψ_i`` are forwarded to
child ``i``, in the order fixed by a local-schedule policy
(:mod:`repro.schedule.local`).  The j-th task a node ever receives is thus
deterministically routed by ``order[j mod Ψ]``.

The root is the only clocked node; it *generates* tasks instead of receiving
them, in its own interleaved order over its consumption period (the paper
notes the root uses its ``φ`` quantities; we use the equivalent ``ψ`` over
``T^w = lcm(T^c, T^s)``, which for the root differs from ``T^s`` only by
repetition).

:func:`build_schedules` turns an :class:`~repro.core.allocation.Allocation`
into one :class:`NodeSchedule` per active node — the complete, compact
description of the steady-state schedule (Figure 4(d)).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..core.allocation import Allocation
from ..exceptions import ScheduleError
from .local import interleaved_order
from .periods import NodePeriods, tree_periods


@dataclass(frozen=True)
class NodeSchedule:
    """The compact event-driven schedule of one node.

    ``order`` lists the destination of each task of a bunch: the node's own
    name means "compute locally", anything else is a child to forward to.
    ``quantities`` maps each destination to its ψ; ``bunch == len(order)``.
    ``periods`` is ``None`` when the node built it from its own rates.
    """

    node: Hashable
    quantities: Mapping[Hashable, int]
    order: Tuple[Hashable, ...]
    periods: Optional[NodePeriods] = None

    @property
    def bunch(self) -> int:
        return len(self.order)

    def destination(self, task_index: int) -> Hashable:
        """Destination of the *task_index*-th task ever received (0-based)."""
        order = self.order
        if not order:
            raise ScheduleError(f"node {self.node!r} has an empty schedule")
        return order[task_index % len(order)]

    def describe(self) -> str:
        """One-line rendering, e.g. ``P1: [P4 P1 P4 P1 P4]`` (Figure 4d)."""
        inner = " ".join(str(d) for d in self.order)
        return f"{self.node}: [{inner}]"


#: Signature of a local-schedule policy.
Policy = Callable[[Mapping[Hashable, int], Sequence[Hashable]], Tuple[Hashable, ...]]


def node_schedule(tree, node: Hashable, p: NodePeriods,
                  policy: Policy = interleaved_order) -> Optional[NodeSchedule]:
    """The event-driven schedule of one node, or ``None`` when inactive.

    The per-node half of :func:`build_schedules`, shared with the
    incremental builder (:mod:`repro.schedule.incremental`): everything it
    reads — ψ quantities, children in bandwidth order — is local to *node*,
    which is what makes per-subtree schedule fragments cacheable.
    """
    if not p.bunch:
        return None  # inactive node: nothing to order, so no children to sort
    return bunch_schedule(node, p.psi_self, p.psi_children,
                          tree.children_by_bandwidth(node), policy, p)


def bunch_schedule(node: Hashable, psi_self: int,
                   psi_children: Mapping[Hashable, int],
                   children: Sequence[Hashable],
                   policy: Policy = interleaved_order,
                   periods: Optional[NodePeriods] = None,
                   ) -> Optional[NodeSchedule]:
    """The schedule of a node that keeps *psi_self* tasks of a bunch and
    sends ``psi_children[i]`` to each of its *children* (bandwidth order),
    or ``None`` for an empty bunch.  It reads only the node's own ψ counts
    (:func:`~repro.schedule.periods.bunch_quantities`).  A negative ψ, or
    a ψ for a destination that is not among *children*, is refused."""
    quantities: Dict[Hashable, int] = {}
    priority: List[Hashable] = []
    # The paper prioritises the node itself with the smallest index; we
    # list self first, then children in bandwidth-centric order.  "Self"
    # enters the priority list only when it computes tasks; a switch
    # (ψ_0 = 0) must not appear in the order.
    if psi_self < 0:
        raise ScheduleError(f"negative ψ {psi_self} for {node!r} itself")
    if psi_self > 0:
        quantities[node] = psi_self
        priority.append(node)
    matched = 0
    for child in children:
        count = psi_children.get(child)
        if count is None:
            continue
        matched += 1
        if count < 0:
            raise ScheduleError(
                f"negative ψ {count} for child {child!r} of {node!r}")
        if count > 0:
            quantities[child] = count
            priority.append(child)
    if matched != len(psi_children):
        stranger = next(dest for dest in psi_children if dest not in children)
        raise ScheduleError(
            f"ψ for {stranger!r}, which is not a child of {node!r}")
    if not quantities:
        return None
    order = policy(quantities, priority)
    if len(order) != sum(quantities.values()):
        raise ScheduleError(
            f"policy returned {len(order)} tasks for a bunch of "
            f"{sum(quantities.values())} at node {node!r}"
        )
    counts = Counter(order)
    if counts != quantities:
        raise ScheduleError(
            f"policy's order does not respect the ψ quantities at {node!r}: "
            f"{dict(counts)} != {dict(quantities)}"
        )
    return NodeSchedule(
        node=node, quantities=quantities, order=order, periods=periods
    )


def build_schedules(
    allocation: Allocation,
    policy: Policy = interleaved_order,
    periods: Optional[Dict[Hashable, NodePeriods]] = None,
) -> Dict[Hashable, NodeSchedule]:
    """Build the event-driven schedule of every *active* node.

    Nodes with no activity (never visited by BW-First, or visited with zero
    allocation) are omitted — they take no part in the computation.  The
    *policy* orders each bunch; the default is the paper's interleaving.
    """
    if periods is None:
        periods = tree_periods(allocation)
    tree = allocation.tree
    schedules: Dict[Hashable, NodeSchedule] = {}
    for node in tree.nodes():
        p = periods[node]
        if p.psi_self or any(p.psi_children.values()):  # else no bunch
            schedule = node_schedule(tree, node, p, policy)
            if schedule is not None:
                schedules[node] = schedule
    return schedules


def describe_schedules(schedules: Mapping[Hashable, NodeSchedule]) -> str:
    """Multi-line compact description of all local schedules (Figure 4d)."""
    return "\n".join(s.describe() for s in schedules.values())

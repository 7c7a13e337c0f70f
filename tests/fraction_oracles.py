"""The rational-arithmetic bodies of the Section 6 planning chain, as oracles.

Until PR 14 these were the production code of ``repro.core.rates``,
``repro.schedule.local``, ``repro.schedule.periods`` and
``repro.core.allocation``: one ``Fraction`` per interleave mark, two per
``scaled_integer`` product, rational adds and multiplies on every node of
``Allocation.check`` — and later the ``(Fraction, i)`` sort of
``Tree.children_by_bandwidth``.  Production now does the same work on integer
numerators and denominators; these copies stay, unchanged, as what the
property tests (``tests/test_plan_exact.py``) and the same-run ratio gate
(``benchmarks/bench_e27_timeline.py::test_e27_cold_plan_gate``) compare it
against.  Do not optimise them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.allocation import Allocation
from repro.core.rates import ONE, ZERO, lcm_denominators, lcm_ints
from repro.exceptions import ScheduleError
from repro.platform.tree import Tree
from repro.schedule.periods import NodePeriods


def interleaved_order_fraction(
    quantities: Mapping[Hashable, int],
    priority: Sequence[Hashable],
) -> Tuple[Hashable, ...]:
    """Figure 3 read literally: one ``Fraction`` mark ``k/(ψ+1)`` per task,
    sorted by ``(position, ψ, priority index)``."""
    order = list(priority)
    if set(order) != set(quantities):
        raise ScheduleError("priority list must contain exactly the destinations")
    if len(set(order)) != len(order):
        raise ScheduleError("priority list has duplicates")
    for dest, count in quantities.items():
        if count < 0:
            raise ScheduleError(f"negative quantity {count} for {dest!r}")
    index = {dest: i for i, dest in enumerate(order)}
    marks: List[Tuple[Fraction, int, int, Hashable]] = []
    for dest in order:
        count = quantities[dest]
        if count == 0:
            continue
        delta = Fraction(1, count + 1)
        for k in range(1, count + 1):
            marks.append((k * delta, count, index[dest], dest))
    marks.sort(key=lambda m: (m[0], m[1], m[2]))
    return tuple(m[3] for m in marks)


def children_by_bandwidth_fraction(tree: Tree, name: Hashable) -> List[Hashable]:
    """The bandwidth-centric order as one ``(Fraction, insertion index)``
    key per child — what ``Tree.children_by_bandwidth`` sorted on before
    its integer keys ``c·L``."""
    kids = list(tree.children(name))
    order = sorted(range(len(kids)),
                   key=lambda i: (tree.edge_cost(name, kids[i]), i))
    return [kids[i] for i in order]


def scaled_integer_fraction(value: Fraction, period: Union[int, Fraction]) -> int:
    """``value * period`` as a ``Fraction`` product, checked integral and
    non-negative."""
    product = value * Fraction(period)
    if product.denominator != 1:
        raise ValueError(f"{value} * {period} = {product} is not an integer")
    if product < 0:
        raise ValueError(f"{value} * {period} = {product} is negative")
    return int(product)


def node_periods_fraction(
    allocation: Allocation,
    node: Hashable,
    parent_send_period: Optional[int],
) -> NodePeriods:
    """Lemma 1 and equation sets (3)/(4) for one node, every count a
    ``Fraction`` product; no shortcut for inactive nodes."""
    scaled_integer = scaled_integer_fraction
    tree = allocation.tree
    alpha = allocation.alpha.get(node, ZERO)
    eta_in = allocation.eta_in.get(node, ZERO)
    children = tree.children(node)
    etas: Dict[Hashable, Fraction] = {
        child: allocation.eta_out.get((node, child), ZERO) for child in children
    }

    t_send = lcm_denominators(etas.values()) if children else 1
    t_compute = alpha.denominator
    is_root = node == tree.root
    if is_root:
        t_receive: Optional[int] = None
        t_full = lcm_ints([t_send, t_compute])
    else:
        if parent_send_period is None:
            raise ScheduleError(f"non-root node {node!r} needs its parent's T^s")
        t_receive = parent_send_period
        t_full = lcm_ints([t_send, t_compute, t_receive])
    phi_children = {ch: scaled_integer(etas[ch], t_send) for ch in children}
    rho = scaled_integer(alpha, t_compute)
    phi_in = None if t_receive is None else scaled_integer(eta_in, t_receive)

    chi_in = scaled_integer(eta_in, t_full)
    chi_compute = scaled_integer(alpha, t_full)
    chi_children = {ch: scaled_integer(etas[ch], t_full) for ch in children}

    t_cs = lcm_ints([t_send, t_compute])
    psi_self = scaled_integer(alpha, t_cs)
    psi_children = {ch: scaled_integer(etas[ch], t_cs) for ch in children}
    reduction = math.gcd(psi_self, *psi_children.values()) or 1
    if reduction > 1:
        psi_self //= reduction
        psi_children = {ch: n // reduction for ch, n in psi_children.items()}
    t_consume = Fraction(t_cs, reduction)

    periods = NodePeriods(
        node=node, t_send=t_send, t_compute=t_compute, t_receive=t_receive,
        t_full=t_full, t_consume=t_consume, phi_children=phi_children,
        rho=rho, phi_in=phi_in, chi_in=chi_in, chi_compute=chi_compute,
        chi_children=chi_children, psi_self=psi_self,
        psi_children=psi_children,
    )
    periods.check_conservation(is_root)
    return periods


def tree_periods_fraction(allocation: Allocation) -> Dict[Hashable, NodePeriods]:
    tree = allocation.tree
    result: Dict[Hashable, NodePeriods] = {}
    for node in tree.nodes():
        parent = tree.parent(node)
        parent_ts = result[parent].t_send if parent is not None else None
        result[node] = node_periods_fraction(allocation, node, parent_ts)
    return result


def check_fraction(allocation: Allocation) -> None:
    """``Allocation.check`` with every constraint spelled as rational
    arithmetic on every node, zero or not."""
    tree = allocation.tree
    for node in tree.nodes():
        alpha = allocation.alpha.get(node, ZERO)
        eta_in = allocation.eta_in.get(node, ZERO)
        if alpha < 0 or eta_in < 0:
            raise ScheduleError(f"negative activity at node {node!r}")
        if alpha > tree.rate(node):
            raise ScheduleError(
                f"node {node!r} computes {alpha} > its rate {tree.rate(node)}"
            )
        out_total = ZERO
        port_time = ZERO
        for child in tree.children(node):
            sent = allocation.eta_out.get((node, child), ZERO)
            if sent < 0:
                raise ScheduleError(f"negative send rate on {node!r}->{child!r}")
            if sent != allocation.eta_in.get(child, ZERO):
                raise ScheduleError(
                    f"edge {node!r}->{child!r}: parent sends {sent} but child "
                    f"receives {allocation.eta_in.get(child, ZERO)}"
                )
            out_total += sent
            port_time += sent * tree.c(child)
        if node == tree.root:
            if eta_in != ZERO:
                raise ScheduleError("the root cannot receive tasks")
        else:
            if eta_in != alpha + out_total:
                raise ScheduleError(
                    f"conservation violated at {node!r}: receives {eta_in}, "
                    f"consumes {alpha} + {out_total}"
                )
            if eta_in * tree.c(node) > ONE:
                raise ScheduleError(
                    f"receive port of {node!r} over-subscribed: "
                    f"{eta_in} × {tree.c(node)} > 1"
                )
        if port_time > ONE:
            raise ScheduleError(
                f"send port of {node!r} over-subscribed ({port_time} > 1)"
            )

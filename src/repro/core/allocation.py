"""Steady-state allocations: the per-node rational activity rates.

An :class:`Allocation` collects, for every node of a tree, the Section 6
quantities (all in tasks per time unit, exact rationals):

* ``eta_in[n]``  — rate at which ``n`` receives tasks from its parent
  (``η_{-1}``; zero for the root, which generates tasks);
* ``alpha[n]``   — rate at which ``n`` computes tasks (``η_0``);
* ``eta_out[(n, child)]`` — rate at which ``n`` sends tasks to ``child``
  (``η_i``).

It enforces the *conservation law* (equation 1): every non-root node
receives exactly what it computes plus what it forwards, and verifies the
physical constraints of the single-port full-overlap model.  Allocations are
produced by :func:`from_bw_first` and by the LP solvers, and consumed by the
schedule-reconstruction layer (:mod:`repro.schedule`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Hashable, Mapping, Tuple

from ..exceptions import ScheduleError
from ..platform.tree import Tree
from .bwfirst import BWFirstResult
from .rates import ONE, ZERO


@dataclass(frozen=True)
class Allocation:
    """A steady-state activity assignment for every node of a tree."""

    tree: Tree
    alpha: Mapping[Hashable, Fraction]
    eta_in: Mapping[Hashable, Fraction]
    eta_out: Mapping[Tuple[Hashable, Hashable], Fraction]

    @cached_property
    def throughput(self) -> Fraction:
        """Total tasks computed per time unit: ``Σ α_i`` (summed once; the
        idle nodes' zeros are skipped rather than added)."""
        return sum(filter(None, self.alpha.values()), ZERO)

    def sends(self, node: Hashable) -> Dict[Hashable, Fraction]:
        """Non-zero per-child send rates of *node*, in child order."""
        return {
            child: self.eta_out.get((node, child), ZERO)
            for child in self.tree.children(node)
            if self.eta_out.get((node, child), ZERO) > 0
        }

    def active_nodes(self) -> frozenset:
        """Nodes with any non-zero activity (compute, receive or send)."""
        active = {n for n, a in self.alpha.items() if a > 0}
        active |= {n for n, r in self.eta_in.items() if r > 0}
        for (parent, child), rate in self.eta_out.items():
            if rate > 0:
                active.add(parent)
                active.add(child)
        return frozenset(active)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Validate conservation and the single-port full-overlap constraints.

        Raises :class:`~repro.exceptions.ScheduleError` with a description of
        the first violated constraint; returns silently when the allocation
        is feasible.

        Under BW-First most nodes of a large tree are idle, so rates are
        tested for truth before any rational arithmetic is spent on them:
        a zero rate is non-negative, within every capacity, and adds nothing
        to a sum or a port.  Every constraint is still decided for every
        node and every edge — two zeros are equal, so an edge is skipped
        only when *both* its ends read zero.
        """
        tree, root = self.tree, self.tree.root
        alphas, eta_ins, eta_outs = self.alpha, self.eta_in, self.eta_out
        for node in tree.nodes():
            alpha = alphas.get(node, ZERO)
            eta_in = eta_ins.get(node, ZERO)
            if alpha or eta_in:
                if alpha < 0 or eta_in < 0:
                    raise ScheduleError(f"negative activity at node {node!r}")
                # compute capacity: α ≤ r  (α·w ≤ 1)
                if alpha > tree.rate(node):
                    raise ScheduleError(
                        f"node {node!r} computes {alpha} > its rate {tree.rate(node)}"
                    )

            # conservation (equation 1)
            out_total = ZERO
            port_time = ZERO
            for child in tree.children(node):
                sent = eta_outs.get((node, child), ZERO)
                received = eta_ins.get(child, ZERO)
                if sent or received:
                    if sent < 0:
                        raise ScheduleError(f"negative send rate on {node!r}->{child!r}")
                    if sent != received:
                        raise ScheduleError(
                            f"edge {node!r}->{child!r}: parent sends {sent} but child "
                            f"receives {received}"
                        )
                    out_total += sent
                    port_time += sent * tree.c(child)

            if node == root:
                if eta_in:
                    raise ScheduleError("the root cannot receive tasks")
            elif alpha or eta_in or out_total:
                if eta_in != alpha + out_total:
                    raise ScheduleError(
                        f"conservation violated at {node!r}: receives {eta_in}, "
                        f"consumes {alpha} + {out_total}"
                    )
                # receive port: one incoming link, c·η_in ≤ 1
                if eta_in * tree.c(node) > ONE:
                    raise ScheduleError(
                        f"receive port of {node!r} over-subscribed: "
                        f"{eta_in} × {tree.c(node)} > 1"
                    )

            # send port: Σ c_i·η_i ≤ 1
            if port_time and port_time > ONE:
                raise ScheduleError(
                    f"send port of {node!r} over-subscribed ({port_time} > 1)"
                )

    def is_feasible(self) -> bool:
        """``True`` iff :meth:`check` passes."""
        try:
            self.check()
        except ScheduleError:
            return False
        return True


def from_bw_first(result: BWFirstResult) -> Allocation:
    """Materialise the :class:`Allocation` described by a BW-First run."""
    tree, outcomes = result.tree, result.outcomes
    root = tree.root
    alpha: Dict[Hashable, Fraction] = {}
    eta_in: Dict[Hashable, Fraction] = {}
    eta_out: Dict[Tuple[Hashable, Hashable], Fraction] = {}
    for node in tree.nodes():
        outcome = outcomes.get(node)
        if outcome is None:  # never visited: takes no part in the schedule
            alpha[node] = eta_in[node] = ZERO
            for child in tree.children(node):
                eta_out[(node, child)] = ZERO
            continue
        alpha[node] = outcome.alpha
        # the root generates tasks, it does not receive them
        eta_in[node] = ZERO if node == root else outcome.accepted
        sent = {t.child: t.accepted for t in outcome.transactions}
        for child in tree.children(node):
            eta_out[(node, child)] = sent.get(child, ZERO)
    allocation = Allocation(tree=tree, alpha=alpha, eta_in=eta_in, eta_out=eta_out)
    allocation.check()
    if allocation.throughput != result.throughput:
        raise ScheduleError(
            f"BW-First throughput {result.throughput} does not match the "
            f"allocation total {allocation.throughput}"
        )
    return allocation

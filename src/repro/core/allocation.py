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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Hashable, Mapping, Tuple

from ..exceptions import ScheduleError
from ..platform.tree import Tree
from .bwfirst import BWFirstResult
from .rates import ZERO, is_infinite


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

        Every rate ``x`` is scaled once to the integer ``x·D``, ``D`` the
        lcm of the rates' denominators, so every constraint of every node
        and every edge is decided on ints: ``α·D·w ≤ D``,
        ``η_in·D = α·D + Σ η_i·D``, ``η_in·D·c ≤ D`` and
        ``Σ η_i·D·c_i ≤ D``, each ``w`` and ``c`` cross-multiplied by its
        own numerator and denominator.  ``Fraction`` arithmetic is spent
        only on formatting the error of a failing constraint.
        """
        tree, root = self.tree, self.tree.root
        alphas, eta_ins, eta_outs = self.alpha, self.eta_in, self.eta_out
        scale = math.lcm(*{rate.denominator for rates in (alphas, eta_ins, eta_outs)
                           for rate in rates.values()})

        def scaled(rates):
            return {key: rate.numerator * (scale // rate.denominator)
                    for key, rate in rates.items()}

        alpha_d, eta_in_d, eta_out_d = scaled(alphas), scaled(eta_ins), scaled(eta_outs)
        for node in tree.nodes():
            alpha = alpha_d.get(node, 0)
            eta_in = eta_in_d.get(node, 0)
            if alpha < 0 or eta_in < 0:
                raise ScheduleError(f"negative activity at node {node!r}")
            # compute capacity: α ≤ r  (α·w ≤ 1)
            if alpha:
                w = tree.w(node)
                if is_infinite(w) or alpha * w.numerator > scale * w.denominator:
                    raise ScheduleError(
                        f"node {node!r} computes {alphas[node]} > its rate "
                        f"{tree.rate(node)}")

            # conservation (equation 1); the send port's time Σ η_i·c_i is
            # port_time / (D · port_den), port_den the lcm of the c's so far
            out_total = 0
            port_time, port_den = 0, 1
            for child in tree.children(node):
                sent = eta_out_d.get((node, child), 0)
                received = eta_in_d.get(child, 0)
                if sent < 0:
                    raise ScheduleError(f"negative send rate on {node!r}->{child!r}")
                if sent != received:
                    raise ScheduleError(
                        f"edge {node!r}->{child!r}: parent sends "
                        f"{eta_outs.get((node, child), ZERO)} but child "
                        f"receives {eta_ins.get(child, ZERO)}"
                    )
                if sent:
                    out_total += sent
                    c = tree.c(child)
                    den = math.lcm(port_den, c.denominator)
                    port_time = (port_time * (den // port_den)
                                 + sent * c.numerator * (den // c.denominator))
                    port_den = den

            if node == root:
                if eta_in:
                    raise ScheduleError("the root cannot receive tasks")
            elif alpha or eta_in or out_total:
                if eta_in != alpha + out_total:
                    raise ScheduleError(
                        f"conservation violated at {node!r}: receives "
                        f"{eta_ins.get(node, ZERO)}, consumes "
                        f"{alphas.get(node, ZERO)} + {Fraction(out_total, scale)}"
                    )
                # receive port: one incoming link, c·η_in ≤ 1
                c = tree.c(node)
                if eta_in * c.numerator > scale * c.denominator:
                    raise ScheduleError(
                        f"receive port of {node!r} over-subscribed: "
                        f"{eta_ins[node]} × {c} > 1"
                    )

            # send port: Σ c_i·η_i ≤ 1
            if port_time > scale * port_den:
                raise ScheduleError(
                    f"send port of {node!r} over-subscribed "
                    f"({Fraction(port_time, scale * port_den)} > 1)"
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

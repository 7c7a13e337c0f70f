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
from operator import itemgetter
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
        """Total tasks computed per time unit: ``Σ α_i``, summed once, as
        ints over the common denominator of the nonzero α's (the idle
        nodes' zeros are skipped rather than added)."""
        rates = [rate for rate in self.alpha.values() if rate]
        scale = math.lcm(*{rate.denominator for rate in rates})
        return Fraction(sum([rate.numerator * (scale // rate.denominator)
                             for rate in rates]), scale)

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
        the first violated constraint (in pre-order); returns silently when
        the allocation is feasible.

        Every nonzero rate ``x`` is scaled once to the integer ``x·D``, ``D``
        the lcm of their denominators, so every constraint is decided on
        ints: ``α·D·w ≤ D``, ``η_in·D = α·D + Σ η_i·D``, ``η_in·D·c ≤ D``
        and ``Σ η_i·D·c_i ≤ D``, each ``w`` and ``c`` cross-multiplied by
        its own numerator and denominator.  ``Fraction`` arithmetic is spent
        only on formatting the error of a failing constraint.

        A node whose α, η_in and sends are zero, and none of whose children
        receives, satisfies every constraint, so the walk is pre-order over
        the nodes some nonzero rate touches and the root paths that lead to
        them: on a BW-First allocation, the nodes the traversal visited.
        """
        self._check_at(self.alpha, self.eta_in, self.eta_out, None)

    def _check_around(self, changed) -> None:
        """:meth:`check` for an allocation that differs from one which
        passed it only at the *changed* nodes (and at nodes no longer in
        the tree): same verdict, same message.

        A node's constraints read its α, η_in and sends, its children's
        η_in, its ``w`` and the ``c`` of its edges.  A solver's result
        names in ``changed`` every node whose entries, ``w``, children or
        children's ``c`` may differ.  A changed ``c`` into a node is its
        parent's, and the parent's send port, decided before the node,
        carries that edge's ``η·c``: the node's receive port cannot fail
        first.  So only the changed nodes and their root paths (the edge
        into a node is decided at its parent) are decided, on the entries
        they read; every other constraint holds as it held before.
        """
        tree = self.tree
        kids = tree.child_lists()
        nodes = _with_root_paths(
            tree, {node for node in changed if node in tree})
        alphas, eta_ins, eta_outs = self.alpha, self.eta_in, self.eta_out
        self._check_at(
            {node: alphas.get(node, ZERO) for node in nodes},
            {node: eta_ins.get(node, ZERO)
             for parent in nodes for node in (parent, *kids[parent])},
            {(node, child): eta_outs.get((node, child), ZERO)
             for node in nodes for child in kids[node]},
            nodes)

    def _check_at(self, alphas, eta_ins, eta_outs, on_path) -> None:
        """:meth:`check`'s walk over the nodes *on_path* (closed under
        parents), deciding their constraints from the entries *alphas*,
        *eta_ins* and *eta_outs* — all of them or those the walk reads.
        With *on_path* ``None`` it walks the nodes some nonzero entry
        touches and their root paths."""
        tree, root = self.tree, self.tree.root
        maps = (alphas, eta_ins, eta_outs)
        denominators = {rate.denominator for rates in maps
                        for rate in rates.values()}
        scale = math.lcm(*denominators)
        factor = {d: scale // d for d in denominators}
        # only the nonzero rates are kept: a zero breaks no constraint
        alpha_d, eta_in_d, eta_out_d = (
            {key: scaled for key, rate in rates.items()
             if (scaled := rate.numerator * factor[rate.denominator])}
            for rates in maps)
        kids = tree.child_lists()
        if on_path is None:
            # the nodes some nonzero rate touches, and their ancestors (a
            # receiving node's edge is decided at its parent)
            on_path = _with_root_paths(tree, {
                *alpha_d, *eta_in_d, *map(itemgetter(0), eta_out_d)})
        alphas, eta_ins, eta_outs = self.alpha, self.eta_in, self.eta_out
        edge_cost = tree.edge_cost
        cost_in = {}  # c of each edge that carries tasks, for its receiver
        stack = [root] if on_path else []
        while stack:
            node = stack.pop()
            children = kids[node]
            stack.extend(filter(on_path.__contains__, reversed(children)))
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
            for child in children:
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
                    c = cost_in[child] = edge_cost(node, child)
                    c_n, c_d = c.numerator, c.denominator
                    if c_d == port_den:
                        port_time += sent * c_n
                    else:
                        den = math.lcm(port_den, c_d)
                        port_time = (port_time * (den // port_den)
                                     + sent * c_n * (den // c_d))
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
                # receive port: one incoming link, c·η_in ≤ 1 (η_in > 0
                # here, so the parent's loop met this edge carrying it)
                c = cost_in[node]
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


def _with_root_paths(tree: Tree, nodes: set) -> set:
    """*nodes*, updated in place with every ancestor of each."""
    parents = tree.parents()
    added = nodes
    while added:
        added = set(map(parents.get, added)) - nodes
        added.discard(None)  # the root's
        nodes |= added
    return nodes


def from_bw_first(result: BWFirstResult) -> Allocation:
    """Materialise the :class:`Allocation` described by a BW-First run.

    A result of :meth:`~repro.core.incremental.IncrementalSolver.solve`
    carries its lineage: the nodes whose entries may differ from the
    solver's previous result.  When the previous result's allocation was
    built here, this one is that allocation with those nodes rebuilt (see
    :func:`_splice`), and :meth:`Allocation.check` is decided around them
    (:meth:`Allocation._check_around`: the previous allocation passed it).
    Otherwise the full check runs.
    """
    lineage = result._lineage
    before = lineage.base if lineage is not None else None
    if before is not None:
        allocation = _splice(before, result, lineage.changed)
        lineage.base = None  # built on: let the older allocation go
        allocation._check_around(lineage.changed)
    else:
        # a node BW-First never visited takes no part in the schedule: every
        # entry starts at zero, in pre-order, and only the visited are set
        tree, outcomes = result.tree, result.outcomes
        kids = tree.child_lists()
        nodes = list(tree.nodes())
        alpha = dict.fromkeys(nodes, ZERO)
        eta_in = dict.fromkeys(nodes, ZERO)
        eta_out = dict.fromkeys(
            [(node, child) for node in nodes for child in kids[node]], ZERO)
        for node, outcome in outcomes.items():
            alpha[node] = outcome.alpha
            eta_in[node] = outcome.accepted
        # the root generates tasks, it does not receive them
        eta_in[tree.root] = ZERO
        # a send is what its child accepted (the child's λ is the
        # transaction's β, its θ the transaction's ack)
        for node, outcome in outcomes.items():
            for txn in outcome.transactions:
                eta_out[(node, txn.child)] = eta_in[txn.child]
        allocation = Allocation(tree=tree, alpha=alpha, eta_in=eta_in,
                                eta_out=eta_out)
        allocation.check()
    if allocation.throughput != result.throughput:
        raise ScheduleError(
            f"BW-First throughput {result.throughput} does not match the "
            f"allocation total {allocation.throughput}"
        )
    if lineage is not None:
        lineage.allocation = allocation
    return allocation


def _splice(before: Allocation, result: BWFirstResult, changed) -> Allocation:
    """*before* — the allocation of the result *result* followed — with the
    entries of every *changed* node, and of every node the tree lost,
    rebuilt from *result*.

    Every other node kept its outcome and its accepted rate, so its entries
    are *before*'s.  A send equals what its child now receives (the child's
    λ is the transaction's β, its θ the transaction's ack), so each send is
    read off the child's η_in rather than subtracted again.  The
    throughput is *before*'s plus the α that changed, stored in the
    ``cached_property``'s slot instead of summed over every node.
    """
    tree, outcomes = result.tree, result.outcomes
    root = tree.root
    old = before.tree
    alpha, eta_in = dict(before.alpha), dict(before.eta_in)
    eta_out = dict(before.eta_out)
    dropped: Dict[Hashable, Fraction] = {}  # forgotten node → its old α
    stack = [node for node in changed if node in old]
    while stack:
        node = stack.pop()
        if node in dropped:
            continue
        dropped[node] = alpha.pop(node)
        del eta_in[node]
        for child in old.children(node):
            del eta_out[(node, child)]
            if child not in tree:  # pruned: forget its whole old subtree
                stack.append(child)
    total = before.throughput
    nodes = [node for node in changed if node in tree]
    for node in nodes:
        outcome = outcomes.get(node)
        if outcome is None:  # never visited: takes no part in the schedule
            rate = eta_in[node] = ZERO
        else:
            rate = outcome.alpha
            eta_in[node] = ZERO if node == root else outcome.accepted
        alpha[node] = rate
        was = dropped.pop(node, ZERO)
        if rate is not was and rate != was:
            total += rate - was
    for was in dropped.values():  # the α of every node the tree lost
        if was:
            total -= was
    for node in nodes:
        for child in tree.children(node):
            eta_out[(node, child)] = ZERO
        outcome = outcomes.get(node)
        if outcome is not None:
            for txn in outcome.transactions:
                eta_out[(node, txn.child)] = eta_in[txn.child]
    allocation = Allocation(tree=tree, alpha=alpha, eta_in=eta_in, eta_out=eta_out)
    vars(allocation)["throughput"] = total
    return allocation

"""Asynchronous periods: Lemma 1 and equation set (3) of the paper.

Once BW-First has fixed the per-time-unit rational rates of a node —
``η_{-1} = ν/μ`` received, ``η_0 = α`` computed, ``η_i`` sent to each child —
the node can *desynchronize* its three activities (Section 6.1):

* **send period** ``T^s = lcm{μ_i | i ∈ C}``: the shortest horizon over
  which an integer number of tasks ``φ_i = η_i·T^s`` goes to every child;
* **compute period** ``T^c = μ_0``: the shortest horizon over which an
  integer number ``ρ_0`` of tasks is computed;
* **receive period** ``T^r = parent's T^s`` (the root receives nothing).

Their lcm ``T = lcm{T^s, T^c, T^r}`` is the full local period of equation
set (3), over which the conservation law holds with integers
(``χ_{-1} = Σ χ_i``).  Equation set (4) adds the *consumption period*
``T^w`` and the bunch quantities ``ψ_i = η_i·T^w`` that drive the
event-driven schedule of Section 6.2.

``T^w`` is the **true minimal** consumption period: ``lcm{T^s, T^c}``
reduced by the gcd of the resulting bunch counts.  The reduction matters
for covariance — uniformly scaling every ``w`` and ``c`` by ``k`` scales
all rates by ``1/k``, and the minimal period scales by exactly ``k`` while
the ψ counts stay fixed, so the event-driven schedule (and hence the whole
simulated trace) dilates uniformly.  The unreduced integer lcm does *not*
have this property: doubling every rate can leave the integer period
unchanged and double the bunch instead, producing a structurally different
(though equally optimal) schedule.  ``T^w`` may therefore be a non-integer
rational; the periods of equation (3) (``T^s``, ``T^c``, ``T``) remain the
paper's integer lcms.

Everything here is exact: the η rates are rationals in lowest terms, and
all task counts are integers — by construction where a period is a
multiple of the rate's denominator, tested (with
:func:`~repro.core.rates.scaled_integer`'s error) where it need not be.
A node whose every rate is zero gets its trivial periods without any of
this arithmetic; under BW-First that is every node the traversal never
visited (6739 of the 10 000 nodes of ``smooth_tree(10000, 7)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..core.allocation import Allocation
from ..core.rates import ONE, ZERO, lcm_ints, scaled_integer
from ..exceptions import ScheduleError


@dataclass(frozen=True)
class NodePeriods:
    """All Lemma-1 / equation-(3)/(4) quantities for one node.

    Task counts:

    * ``phi_children[i] = η_i · T^s`` — tasks sent to child ``i`` per send
      period;
    * ``rho = α · T^c`` — tasks computed per compute period;
    * ``phi_in = η_{-1} · T^r`` — tasks received per receive period
      (``None`` for the root);
    * ``chi_*`` — the same quantities over the full period ``T``;
    * ``psi_self`` / ``psi_children`` — the event-driven bunch quantities
      over the consumption period ``T_w``, with ``bunch = Σ ψ``.
    """

    node: Hashable
    t_send: int
    t_compute: int
    t_receive: Optional[int]  # None for the root (it receives nothing)
    t_full: int
    t_consume: Fraction  # minimal T^w: lcm(T^c, T^s) / gcd(ψ counts)

    phi_children: Mapping[Hashable, int]
    rho: int
    phi_in: Optional[int]

    chi_in: int
    chi_compute: int
    chi_children: Mapping[Hashable, int]

    psi_self: int
    psi_children: Mapping[Hashable, int]

    @property
    def bunch(self) -> int:
        """Ψ = ψ_0 + Σ ψ_i — the event-driven bunch size."""
        return self.psi_self + sum(self.psi_children.values())

    def check_conservation(self, is_root: bool) -> None:
        """Assert equation (3)'s integer conservation ``χ_{-1} = Σ χ_i``."""
        consumed = self.chi_compute + sum(self.chi_children.values())
        if not is_root and self.chi_in != consumed:
            raise ScheduleError(
                f"node {self.node!r}: χ_in={self.chi_in} but consumes {consumed}"
            )


def bunch_quantities(
    alpha: Fraction, etas: Mapping[Hashable, Fraction],
) -> Tuple[int, Dict[Hashable, int], Fraction]:
    """Equation set (4) from one node's own α and child rates *etas*:
    ``(ψ_0, {child: ψ_i}, T^w)`` with ``ψ = η·T^w`` and ``T^w`` the
    minimal consumption period, ``lcm(T^c, T^s)`` reduced by the gcd of the
    counts (a shared factor means the bunch repeats inside it).  Node-local,
    so a cluster process derives its schedule from its own actor with it.
    """
    a_n, t_compute = alpha.numerator, alpha.denominator
    sends = [(eta.numerator, eta.denominator) for eta in etas.values()]
    t_send = math.lcm(*[d for _, d in sends])
    if a_n < 0 or any(n < 0 for n, _ in sends):
        # the error of the first negative count over T^c ∨ T^s
        t_cs = math.lcm(t_send, t_compute)
        for rate in (alpha, *etas.values()):
            scaled_integer(rate, t_cs)
    phi = [n * (t_send // d) for n, d in sends]
    psi_self, psi, _, t_consume = _bunch(a_n, t_compute, phi, t_send)
    return psi_self, dict(zip(etas, psi)), t_consume


def _bunch(a_n: int, t_compute: int, phi: List[int], t_send: int,
           ) -> Tuple[int, List[int], int, Fraction]:
    """Equation set (4) on ints for a node computing ``α = a_n / T^c`` and
    sending the counts *phi* per ``T^s``: ``(ψ_0, [ψ_i], T^c ∨ T^s, T^w)``,
    the counts over ``T^c ∨ T^s`` reduced by their gcd."""
    t_cs = math.lcm(t_send, t_compute)
    to_cs = t_cs // t_send
    psi_self = a_n * (t_cs // t_compute)
    psi = [count * to_cs for count in phi]
    reduction = math.gcd(psi_self, *psi) or 1
    if reduction > 1:
        psi_self //= reduction
        psi = [count // reduction for count in psi]
    return psi_self, psi, t_cs, Fraction(t_cs, reduction)


def node_periods(
    allocation: Allocation,
    node: Hashable,
    parent_send_period: Optional[int],
) -> NodePeriods:
    """Compute the :class:`NodePeriods` of *node* given its parent's ``T^s``.

    *parent_send_period* must be ``None`` exactly for the root, and a
    positive ``int`` for every other node.
    """
    tree = allocation.tree
    if node == tree.root:
        if parent_send_period is not None:
            raise ScheduleError(
                f"the root {node!r} has no parent, so no parent's T^s "
                f"(got {parent_send_period!r})")
    elif parent_send_period is None:
        raise ScheduleError(f"non-root node {node!r} needs its parent's T^s")
    elif (type(parent_send_period) is not int  # bool is an int subclass
          or parent_send_period <= 0):
        raise ScheduleError(
            f"node {node!r}: its parent's T^s must be a positive int "
            f"(got {parent_send_period!r})")
    eta_out = allocation.eta_out
    children = tree.children(node)
    sends = any([eta_out.get((node, child), ZERO) for child in children])
    return _periods(node, children, allocation.alpha.get(node, ZERO),
                    allocation.eta_in.get(node, ZERO), sends, eta_out,
                    parent_send_period, {})


def tree_periods(allocation: Allocation) -> Dict[Hashable, NodePeriods]:
    """Compute :class:`NodePeriods` for every node of the allocation's tree.

    Periods are propagated top-down (``T^r`` of a node is the ``T^s`` of its
    parent) by one pre-order walk.  Nodes with zero activity still get
    (trivial, all-1) periods so callers need no special-casing; they cost
    no arithmetic.  The child mappings are read-only: those of every
    childless node are one empty dict.
    """
    tree = allocation.tree
    alphas, eta_ins, eta_out = (allocation.alpha, allocation.eta_in,
                                allocation.eta_out)
    parents = tree.parents()
    # the nodes with a nonzero send over one of their tree edges
    senders = {sender for (sender, child), rate in eta_out.items()
               if rate and parents.get(child) == sender}
    kids = tree.child_lists()
    result: Dict[Hashable, NodePeriods] = {}
    # a plan keeps every record, so every map it need not build is one
    # object fewer for the collector to count and later walk
    no_children: Dict[Hashable, int] = {}
    stack: List[Tuple[Hashable, Optional[int]]] = [(tree.root, None)]
    while stack:
        node, t_receive = stack.pop()
        children = kids[node]
        p = result[node] = _periods(
            node, children, alphas.get(node, ZERO), eta_ins.get(node, ZERO),
            node in senders, eta_out, t_receive, no_children)
        if children:
            stack.extend(zip(reversed(children), repeat(p.t_send)))
    return result


def _periods(node: Hashable, children: Sequence[Hashable], alpha: Fraction,
             eta_in: Fraction, sends: bool,
             eta_out: Mapping[Tuple[Hashable, Hashable], Fraction],
             t_receive: Optional[int],
             no_children: Dict[Hashable, int]) -> NodePeriods:
    """The periods of *node*, receiving over its parent's ``T^s``
    *t_receive*: Lemma 1 when its α, its η_in or a send to one of its
    *children* (*sends*) is nonzero, else the idle record (the child
    mappings of a childless node are *no_children*)."""
    if alpha or eta_in or sends:
        etas = [eta_out.get((node, child), ZERO) for child in children]
        return _lemma1(node, children, alpha, eta_in, etas, t_receive,
                       no_children)
    return _idle(node, t_receive,
                 dict.fromkeys(children, 0) if children else no_children)


def _record(node: Hashable, **fields) -> NodePeriods:
    """The :class:`NodePeriods` of *node* with *fields*, without the frozen
    ``__init__``'s fourteen ``object.__setattr__`` calls (a plan builds one
    record per node of the tree).  ``node`` is set the slow way so that the
    instance dict ``vars`` returns is the one sharing the class's keys;
    ``update`` fills it in place (an empty instance dict would be replaced
    by a copy of *fields*, two and a half times the memory).  Every record
    must equal, field for field and in field order, the one the class's
    constructor makes (``tests/test_periods.py::TestRecords``)."""
    periods = object.__new__(NodePeriods)
    object.__setattr__(periods, "node", node)
    vars(periods).update(fields)
    return periods


def _idle(node: Hashable, t_receive: Optional[int],
          idle: Dict[Hashable, int]) -> NodePeriods:
    """The periods of a node whose every rate is 0/1: every period is 1,
    every count 0, and ``T = lcm{1, 1, T^r} = T^r``.  The three child
    mappings are read-only and are the one dict *idle*, every child at 0."""
    return _record(
        node=node, t_send=1, t_compute=1, t_receive=t_receive,
        t_full=1 if t_receive is None else t_receive, t_consume=ONE,
        phi_children=idle, rho=0, phi_in=None if t_receive is None else 0,
        chi_in=0, chi_compute=0, chi_children=idle,
        psi_self=0, psi_children=idle,
    )


def _lemma1(node: Hashable, children: Sequence[Hashable], alpha: Fraction,
            eta_in: Fraction, etas: Sequence[Fraction],
            t_receive: Optional[int],
            no_children: Dict[Hashable, int]) -> NodePeriods:
    """Lemma 1 and equation sets (3)/(4) for one node with some nonzero
    rate, on each rate's numerator and denominator (*etas* in child order,
    *t_receive* ``None`` for the root; a childless node's three child
    mappings are the empty dict *no_children*).

    ``T^s``, ``T^c`` and ``T^c ∨ T^s`` are multiples of the denominators
    of the rates counted over them, so ``φ``, ``ρ``, ``ψ`` and ``χ_i``, ``χ_0``
    are integers by construction and non-negative with their numerators;
    ``η_in`` is counted over the parent's ``T^s`` and over ``T``, which need
    not be, so those two products are tested.  A failing test raises
    :func:`~repro.core.rates.scaled_integer`'s error for that product.
    """
    a_n, t_compute = alpha.numerator, alpha.denominator
    sends = [(eta.numerator, eta.denominator) for eta in etas]
    t_send = math.lcm(*[d for _, d in sends])
    for eta, (n, _) in zip(etas, sends):
        if n < 0:
            scaled_integer(eta, t_send)
    if a_n < 0:
        scaled_integer(alpha, t_compute)
    phi = [n * (t_send // d) for n, d in sends]
    psi_self, psi, t_cs, t_consume = _bunch(a_n, t_compute, phi, t_send)
    t_full = t_cs if t_receive is None else math.lcm(t_cs, t_receive)
    e_n, e_d = eta_in.numerator, eta_in.denominator
    phi_in = None
    if t_receive is not None:
        phi_in, rest = divmod(e_n * t_receive, e_d)
        if rest or phi_in < 0:
            scaled_integer(eta_in, t_receive)
    chi_in, rest = divmod(e_n * t_full, e_d)
    if rest or chi_in < 0:
        scaled_integer(eta_in, t_full)

    to_full = t_full // t_send
    if children:
        phi_children = dict(zip(children, phi))
        chi_children = {ch: count * to_full
                        for ch, count in zip(children, phi)}
        psi_children = dict(zip(children, psi))
    else:
        phi_children = chi_children = psi_children = no_children
    periods = _record(
        node=node,
        t_send=t_send,
        t_compute=t_compute,
        t_receive=t_receive,
        t_full=t_full,
        t_consume=t_consume,
        phi_children=phi_children,
        rho=a_n,
        phi_in=phi_in,
        chi_in=chi_in,
        chi_compute=a_n * (t_full // t_compute),
        chi_children=chi_children,
        psi_self=psi_self,
        psi_children=psi_children,
    )
    periods.check_conservation(t_receive is None)
    return periods


#: Default bit-length cap on the synchronized period.  2**4096 time units is
#: far beyond anything a timetable, report or simulation horizon can use;
#: hitting it means the platform's rates are pathological (the paper's
#: "embarrassingly long" period, Section 6 intro) and the caller should use
#: the event-driven schedule instead.
MAX_PERIOD_BITS = 4096


def global_period(
    periods: Mapping[Hashable, NodePeriods],
    *,
    max_bits: Optional[int] = MAX_PERIOD_BITS,
    telemetry=None,
    tree=None,
) -> int:
    """The synchronized whole-tree period ``T`` (lcm of every local period).

    This is the "embarrassingly long" period of the traditional approach the
    paper avoids (Section 6 intro); it is exposed for the synchronized
    baseline and for reporting.

    Because it is an lcm over *every* node, ``T`` can blow up combinatorially
    on adversarial rate denominators.  The running lcm is therefore guarded:
    when its bit-length exceeds *max_bits* (``None`` disables the guard) a
    :class:`~repro.exceptions.ScheduleError` names the node whose local
    period triggered the blow-up — with its root path when *tree* is given —
    instead of silently building an astronomically long timetable.  With
    *telemetry* attached, the final bit-length lands on the
    ``sched.period_bits`` gauge.
    """
    total = 1
    for node, p in periods.items():
        if total % p.t_full == 0:
            continue  # most nodes repeat a period already folded in
        total = lcm_ints([total, p.t_full])
        if max_bits is not None and total.bit_length() > max_bits:
            if tree is not None and node in tree:
                chain = list(reversed(tree.ancestors(node))) + [node]
                where = " -> ".join(str(a) for a in chain)
            else:
                where = repr(node)
            raise ScheduleError(
                f"synchronized period exceeds 2**{max_bits} time units "
                f"(lcm reached {total.bit_length()} bits at node {where}, "
                f"local period {p.t_full}); the timetable would be "
                "astronomically long — use the event-driven schedule, or "
                "raise max_bits explicitly"
            )
    if telemetry is not None:
        telemetry.gauge("sched.period_bits").set(total.bit_length())
    return total


def startup_bound(periods: Mapping[Hashable, NodePeriods], tree, node: Hashable) -> int:
    """Proposition 4's start-up bound for *node*: ``Σ T^s_a`` over ancestors.

    Every node enters its steady-state regime at most this many time units
    after the computation starts, when all nodes apply their event-driven
    schedule from the beginning.
    """
    return sum(periods[a].t_send for a in tree.ancestors(node))

"""Exact scaled-integer time: the kernel behind the fast simulator path.

Every quantity the steady-state machinery manipulates — rates, periods,
event timestamps — is a rational number, and the whole repository asserts
results with exact ``==``.  Running millions of simulator events on
:class:`~fractions.Fraction` objects is wall-clock-expensive, though:
each addition re-normalises through a gcd and allocates a fresh object.

The classical way out (used by Marchal et al. for tree-shaped task graphs
and star redistribution schedules) is to normalise all rates to one common
denominator up front: once a global denominator ``D`` is fixed, every time
value of interest is an integer number of *ticks* of size ``1/D``, and the
event loop degrades to plain Python ``int`` arithmetic — which is both
exact and several times faster.  ``Fraction`` views are materialised only
at API boundaries (the :class:`~repro.sim.tracing.Trace` when it is read,
the engine's public ``now``, telemetry values), so downstream consumers and
equality assertions are untouched.

:class:`IntTimeline` owns the scale ``D``.  It is *adaptive*: converting a
value whose denominator does not divide ``D`` grows the scale by the
minimal factor and notifies registered observers (the engine rescales its
queue, the simulator its precomputed duration tables, the trace its
recorded ticks) — multiplication by a positive integer preserves heap
order, so a mid-run rescale is safe.  This matters because fault injection and online re-negotiation introduce new
denominators mid-run (control-message latencies, degradation factors,
re-anchored consumption periods) that are unknown when the run starts.

The module also hosts the scaled-integer twin of
:func:`~repro.schedule.periods.tree_periods`: with all rates expressed as
integer numerators over ``D``, the Lemma-1 period math runs on ints and
produces bit-identical :class:`~repro.schedule.periods.NodePeriods`
(property-tested in ``tests/test_timeline.py``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from .allocation import Allocation
from .rates import is_infinite, lcm_ints

__all__ = [
    "IntTimeline",
    "dense_index",
    "denominator_lcm",
    "timeline_for",
    "tree_periods_scaled",
]


class IntTimeline:
    """A global scale ``D``: time ``t`` ticks represent the rational ``t/D``.

    The scale only ever *grows* (by integer factors), so previously
    converted tick values can always be brought to the current scale by
    multiplying with the accumulated factor — which is exactly what the
    registered rescale observers do to their cached tick state.
    """

    __slots__ = ("scale", "rescales", "_observers")

    def __init__(self, scale: int = 1):
        if not isinstance(scale, int) or scale <= 0:
            raise ValueError(f"timeline scale must be a positive int (got {scale!r})")
        self.scale = scale
        self.rescales = 0  # number of mid-run grow events
        self._observers: List[Callable[[int], None]] = []

    def on_rescale(self, observer: Callable[[int], None]) -> None:
        """Call ``observer(factor)`` after every scale growth; the observer
        multiplies its cached tick state by *factor*."""
        self._observers.append(observer)

    def grow(self, factor: int) -> None:
        """Multiply the scale by *factor* (> 1) and notify observers."""
        if factor <= 1:
            return
        self.scale *= factor
        self.rescales += 1
        for observer in self._observers:
            observer(factor)

    def ensure(self, value: Fraction) -> int:
        """Exact tick count of *value*, growing the scale if needed."""
        den = value.denominator
        num = value.numerator * self.scale
        if num % den:
            self.grow(den // math.gcd(self.scale, den))
            num = value.numerator * self.scale
        return num // den

    def ensure_all(self, values: Iterable[Fraction]) -> List[int]:
        """Convert many values with at most **one** rescale.

        Growing once to the joint lcm (instead of per value) keeps every
        returned tick valid at the final scale — use this when filling a
        table whose entries must be mutually consistent.
        """
        values = list(values)
        target = self.scale
        for v in values:
            d = v.denominator
            target = target * d // math.gcd(target, d)
        self.grow(target // self.scale)
        s = self.scale
        return [v.numerator * (s // v.denominator) for v in values]

    def to_fraction(self, ticks: int) -> Fraction:
        """The exact rational a tick count stands for (an API-boundary view)."""
        return Fraction(ticks, self.scale)

    def to_fractions(self, ticks: Iterable[int]) -> List[Fraction]:
        """Vectorised boundary view: :meth:`to_fraction` over many ticks at
        the *current* scale (one attribute read, not one per element)."""
        s = self.scale
        return [Fraction(t, s) for t in ticks]


def dense_index(names: Iterable[Hashable]
                ) -> Tuple[List[Hashable], Dict[Hashable, int]]:
    """Dense-id mapping for struct-of-arrays state: ``(names, index)`` where
    ``names[i]`` is the node at id ``i`` and ``index[name]`` inverts it.
    Iteration order of *names* is preserved, so ids are stable for a given
    tree."""
    names = list(names)
    return names, {name: i for i, name in enumerate(names)}


def denominator_lcm(values: Iterable[Fraction]) -> int:
    """lcm of the denominators of *values* (1 when empty)."""
    result = 1
    for v in values:
        d = v.denominator
        result = result * d // math.gcd(result, d)
    return result


def timeline_for(tree, schedules=(), horizon: Optional[Fraction] = None,
                 extra: Iterable[Fraction] = ()) -> IntTimeline:
    """An :class:`IntTimeline` pre-seeded for simulating *tree*.

    The initial scale is the lcm of the denominators of every duration the
    run is known to need up front: finite node weights, edge costs, the
    **root** schedule's consumption period ``T^w`` and its even-pacing
    release spacing ``T^w/Ψ``, the horizon and any *extra* values (e.g.
    planned fault times).  Non-root consumption periods are deliberately
    left out: clock-free nodes never convert them to ticks, and folding
    10k of them into the lcm can blow the scale past int64 for no benefit
    (a reconfiguration that promotes another node's grid triggers one
    adaptive rescale instead).  Values that appear only mid-run (injected
    latencies, degradation factors) also rescale adaptively.
    """
    root = tree.root
    dens: List[Fraction] = []
    for node in tree.nodes():
        w = tree.w(node)
        if not is_infinite(w):
            dens.append(w)
        if tree.parent(node) is not None:
            dens.append(tree.c(node))
    for schedule in (schedules.values() if hasattr(schedules, "values")
                     else schedules):
        if getattr(schedule, "node", None) != root:
            continue
        t_w = Fraction(schedule.periods.t_consume)
        dens.append(t_w)
        if schedule.bunch:
            dens.append(t_w / schedule.bunch)
    if horizon is not None:
        dens.append(Fraction(horizon))
    dens.extend(Fraction(v) for v in extra)
    return IntTimeline(denominator_lcm(dens))


# ----------------------------------------------------------------------
# scaled-integer period math (the int twin of schedule/periods.py)
# ----------------------------------------------------------------------
def _scaled_numerators(allocation: Allocation) -> Tuple[int, Dict, Dict, Dict]:
    """Normalise every rate of *allocation* to integer numerators over one
    global denominator ``D`` (the lcm of all rate denominators)."""
    d = denominator_lcm(
        list(allocation.alpha.values())
        + list(allocation.eta_in.values())
        + list(allocation.eta_out.values())
    )
    alpha = {n: v.numerator * (d // v.denominator)
             for n, v in allocation.alpha.items()}
    eta_in = {n: v.numerator * (d // v.denominator)
              for n, v in allocation.eta_in.items()}
    eta_out = {e: v.numerator * (d // v.denominator)
               for e, v in allocation.eta_out.items()}
    return d, alpha, eta_in, eta_out


def _node_periods_scaled(allocation, node, parent_send_period, d,
                         alpha_num, eta_in_num, eta_out_num):
    # local import: schedule.periods imports core.rates; core must not
    # import schedule at module load (layering), so bind lazily here
    from ..schedule.periods import NodePeriods

    tree = allocation.tree
    a = alpha_num.get(node, 0)
    b = eta_in_num.get(node, 0)
    children = tree.children(node)
    etas = {child: eta_out_num.get((node, child), 0) for child in children}

    def den(num: int) -> int:
        # denominator of num/D in lowest terms; den(0) = 1 like Fraction(0)
        return d // math.gcd(num, d) if num else 1

    def scaled(num: int, period: int) -> int:
        # num/D · period, integral by construction of the periods
        return num * period // d

    t_send = lcm_ints(den(etas[ch]) for ch in children) if children else 1
    t_compute = den(a)
    is_root = node == tree.root
    if is_root:
        t_receive: Optional[int] = None
        t_full = lcm_ints([t_send, t_compute])
    else:
        t_receive = parent_send_period
        t_full = lcm_ints([t_send, t_compute, t_receive])

    phi_children = {ch: scaled(etas[ch], t_send) for ch in children}
    rho = scaled(a, t_compute)
    phi_in = None if t_receive is None else scaled(b, t_receive)
    chi_in = scaled(b, t_full)
    chi_compute = scaled(a, t_full)
    chi_children = {ch: scaled(etas[ch], t_full) for ch in children}

    t_cs = lcm_ints([t_send, t_compute])
    psi_self = scaled(a, t_cs)
    psi_children = {ch: scaled(etas[ch], t_cs) for ch in children}
    reduction = math.gcd(psi_self, *psi_children.values()) or 1
    if reduction > 1:
        psi_self //= reduction
        psi_children = {ch: n // reduction for ch, n in psi_children.items()}
    t_consume = Fraction(t_cs, reduction)

    periods = NodePeriods(
        node=node,
        t_send=t_send,
        t_compute=t_compute,
        t_receive=t_receive,
        t_full=t_full,
        t_consume=t_consume,
        phi_children=phi_children,
        rho=rho,
        phi_in=phi_in,
        chi_in=chi_in,
        chi_compute=chi_compute,
        chi_children=chi_children,
        psi_self=psi_self,
        psi_children=psi_children,
    )
    periods.check_conservation(is_root)
    return periods


def tree_periods_scaled(allocation: Allocation) -> Dict[Hashable, object]:
    """Scaled-integer twin of :func:`~repro.schedule.periods.tree_periods`.

    Normalises the allocation's rates to integer numerators over one global
    ``D`` once, then runs the whole Lemma-1 period computation on plain
    ints (gcd/lcm/exact division — no ``Fraction`` arithmetic except the
    final non-integer ``T^w`` view).  The result is ``==`` to
    ``tree_periods(allocation)`` node by node.
    """
    d, alpha_num, eta_in_num, eta_out_num = _scaled_numerators(allocation)
    tree = allocation.tree
    result: Dict[Hashable, object] = {}
    for node in tree.nodes():  # pre-order: parents first
        parent = tree.parent(node)
        parent_ts = result[parent].t_send if parent is not None else None
        result[node] = _node_periods_scaled(
            allocation, node, parent_ts, d, alpha_num, eta_in_num, eta_out_num
        )
    return result

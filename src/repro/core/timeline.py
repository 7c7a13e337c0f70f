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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from .rates import is_infinite

__all__ = [
    "IntTimeline",
    "dense_index",
    "denominator_lcm",
    "timeline_for",
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
    10k of them into the lcm grows every tick into a huge int for no benefit
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

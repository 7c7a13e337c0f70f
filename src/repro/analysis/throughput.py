"""Throughput measurement over simulation traces.

All functions work on the exact rational timestamps of a
:class:`~repro.sim.tracing.Trace`, so a simulation that reaches steady state
produces *exactly* the BW-First rate in every full late window — a property
the tests assert with equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, List, Optional, Tuple

from ..sim.tracing import Trace


def measured_rate(trace: Trace, start, end) -> Fraction:
    """Tasks completed per time unit inside the window ``(start, end]``."""
    lo, hi = Fraction(start), Fraction(end)
    if hi <= lo:
        raise ValueError("empty measurement window")
    return Fraction(trace.completions_in(lo, hi)) / (hi - lo)


def window_rates(trace: Trace, period, until=None) -> List[Tuple[Fraction, Fraction]]:
    """Per-period throughput series: ``[(window_start, rate), …]``.

    Windows are consecutive intervals of length *period* starting at 0 and
    ending at *until* (default: the trace's end time, last partial window
    dropped).
    """
    p = Fraction(period)
    if p <= 0:
        raise ValueError("period must be positive")
    horizon = Fraction(until) if until is not None else trace.end_time
    series: List[Tuple[Fraction, Fraction]] = []
    start = Fraction(0)
    while start + p <= horizon:
        series.append((start, measured_rate(trace, start, start + p)))
        start += p
    return series


def steady_state_rate(
    trace: Trace,
    period,
    stop_time=None,
    settle_windows: int = 2,
) -> Optional[Fraction]:
    """The rate the trace settles into, or ``None`` if it never settles.

    Looks for the earliest window after which every *complete* window before
    *stop_time* (the supply cut) shows the same per-period rate, requiring at
    least *settle_windows* stable windows.
    """
    p = Fraction(period)
    horizon = Fraction(stop_time) if stop_time is not None else trace.end_time
    rates = [r for start, r in window_rates(trace, p, until=horizon)]
    if len(rates) < settle_windows:
        return None
    for i in range(len(rates) - settle_windows + 1):
        tail = rates[i:]
        if all(r == tail[0] for r in tail):
            return tail[0]
    return None


def per_node_rate(trace: Trace, node: Hashable, start, end) -> Fraction:
    """Tasks *node* completed per time unit inside ``(start, end]``."""
    lo, hi = Fraction(start), Fraction(end)
    return Fraction(trace.completions_in(lo, hi, node)) / (hi - lo)

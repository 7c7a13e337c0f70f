"""Start-up and wind-down phase analysis (Sections 7–8).

The paper's start-up strategy lets every node compute from the beginning;
Proposition 4 bounds the time for node ``P`` to enter steady state by the
sum of its ancestors' send periods.  These helpers measure the phases from a
simulation trace:

* :func:`startup_length` — the earliest time from which every complete
  steady-state period achieves the optimal per-period task count;
* :func:`startup_efficiency` — tasks computed during the start-up window as
  a fraction of the steady-state amount (the paper reports 80% for its
  example);
* wind-down is measured directly by
  :attr:`repro.sim.simulator.SimulationResult.wind_down`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..sim.tracing import Trace


def startup_length(
    trace: Trace,
    period,
    expected_per_period: int,
    stop_time=None,
) -> Optional[Fraction]:
    """The measured start-up length, on the *period* grid.

    Scans consecutive windows of length *period* from time 0 and returns the
    start of the first window from which **every** later complete window
    (before *stop_time*) completes exactly *expected_per_period* tasks.
    Returns ``None`` when the trace never sustains the optimal rate.
    """
    p = Fraction(period)
    horizon = Fraction(stop_time) if stop_time is not None else trace.end_time
    counts = []
    start = Fraction(0)
    while start + p <= horizon:
        counts.append((start, trace.completions_in(start, start + p)))
        start += p
    if not counts:
        return None
    for i, (w_start, _) in enumerate(counts):
        if all(c == expected_per_period for _, c in counts[i:]):
            return w_start
    return None


def startup_efficiency(
    trace: Trace,
    window,
    optimal_rate,
) -> Fraction:
    """Fraction of the optimal throughput achieved during ``[0, window]``.

    The paper's example computes 32 tasks during a 40-unit start-up against
    an optimal 40 — an efficiency of 80%.
    """
    w = Fraction(window)
    if w <= 0:
        raise ValueError("window must be positive")
    expected = Fraction(optimal_rate) * w
    done = trace.completions_in(Fraction(0), w)
    return Fraction(done) / expected


def winddown_sweep(
    tree,
    allocation,
    policy,
    period,
    offsets: int = 12,
    settle_periods: int = 6,
):
    """Wind-down lengths when the supply stops at different phase offsets.

    The paper cuts the supply "at an arbitrary point in steady state" and
    reports one wind-down; this sweep cuts it at *offsets* evenly spaced
    points inside one steady period and returns the list of wind-down
    lengths, exposing the phase dependence the single sample hides.
    """
    from ..sim.simulator import simulate

    p = Fraction(period)
    results = []
    for k in range(offsets):
        stop = p * settle_periods + p * k / offsets
        run = simulate(tree, allocation=allocation, policy=policy,
                       horizon=stop)
        results.append(run.wind_down)
    return results


def node_steady_entry(
    trace: Trace,
    node,
    period,
    expected_per_period: int,
    stop_time=None,
) -> Optional[Fraction]:
    """When *node* enters its steady-state regime (Proposition 4's quantity).

    Same window scan as :func:`startup_length` but restricted to one node's
    completions.
    """
    p = Fraction(period)
    horizon = Fraction(stop_time) if stop_time is not None else trace.end_time
    counts = []
    start = Fraction(0)
    while start + p <= horizon:
        counts.append((start, trace.completions_in(start, start + p, node)))
        start += p
    for i, (w_start, _) in enumerate(counts):
        if all(c == expected_per_period for _, c in counts[i:]):
            return w_start
    return None

"""Strict steady-state detection: exact periodicity of the execution trace.

"Steady state" in the paper is a flow balance (every node consumes what it
receives per period).  A *stronger* property actually holds for the
event-driven schedule: after the start-up transient, the whole execution
trace becomes **exactly periodic** — every busy segment of every resource
repeats shifted by the global period ``T``.  Exact rational timestamps make
this checkable with equality:

* :func:`segments_in_window` — a node-resource's busy pattern inside a
  window, normalised to window-relative times (segments are clipped at the
  window edges);
* :func:`is_periodic` — whether two consecutive windows of length ``T``
  carry identical patterns for every node;
* :func:`periodic_from` — the earliest window boundary from which the trace
  is periodic for good (the strict start-up length).

Used by the tests to prove the simulator truly cycles, and by
:mod:`repro.analysis.phases` consumers who want the strong notion.  A
trace recorded without segments raises :class:`~repro.exceptions.TraceError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple

from ..exceptions import TraceError
from ..sim.tracing import Trace

#: A normalised busy pattern: {(node, kind, peer): [(rel_start, rel_end), …]}
Pattern = Dict[Tuple[Hashable, str, Optional[Hashable]],
               List[Tuple[Fraction, Fraction]]]


def segments_in_window(trace: Trace, start, end) -> Pattern:
    """The busy pattern of every resource inside ``[start, end)``.

    Segments are clipped to the window and expressed relative to *start*,
    so two windows with identical activity produce equal patterns.
    """
    _require_segments(trace)
    lo, hi = Fraction(start), Fraction(end)
    pattern: Pattern = {}
    for seg in trace.segments:
        clip_lo = max(seg.start, lo)
        clip_hi = min(seg.end, hi)
        if clip_hi <= clip_lo:
            continue
        key = (seg.node, seg.kind, seg.peer)
        pattern.setdefault(key, []).append((clip_lo - lo, clip_hi - lo))
    for intervals in pattern.values():
        intervals.sort()
        _merge(intervals)
    return pattern


def _require_segments(trace: Trace) -> None:
    if not trace.record_segments:
        raise TraceError(
            "strict periodicity compares busy segments, but this trace was "
            "recorded without the 'segments' stream (record_segments=False)")


def _merge(intervals: List[Tuple[Fraction, Fraction]]) -> None:
    """Coalesce touching intervals in place (already sorted)."""
    out = []
    for lo, hi in intervals:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    intervals[:] = out


def is_periodic(trace: Trace, period, at) -> bool:
    """Whether the windows ``[at, at+T)`` and ``[at+T, at+2T)`` match exactly."""
    t = Fraction(period)
    start = Fraction(at)
    first = segments_in_window(trace, start, start + t)
    second = segments_in_window(trace, start + t, start + 2 * t)
    return first == second


def periodic_from(trace: Trace, period, stop_time,
                  min_repeats: int = 2) -> Optional[Fraction]:
    """The earliest multiple of ``T`` from which the trace repeats forever.

    Checks window k against window k+1 for every k up to the last complete
    window before *stop_time*; requires at least *min_repeats* consecutive
    matches at the tail.  Returns ``None`` when the trace never becomes
    strictly periodic (e.g. a heuristic baseline).
    """
    _require_segments(trace)
    t = Fraction(period)
    horizon = Fraction(stop_time)
    count = int((horizon / t))
    if count < min_repeats + 1:
        return None
    patterns = [
        segments_in_window(trace, k * t, (k + 1) * t) for k in range(count)
    ]
    for k in range(count - min_repeats):
        if all(patterns[j] == patterns[k] for j in range(k, count)):
            return k * t
    return None

"""Explicit periodic timetables — and why the paper avoids them.

The traditional way to describe a steady-state schedule is a full
*timetable*: for one global period ``T``, the exact start/end of every
compute, send and receive action of every node (all synchronized on the
same clock).  The paper's Section 6 replaces this with the event-driven
description — per node, just the bunch quantities ψ and their order — and
claims it is "very compact".

This module makes both descriptions concrete so the claim can be measured:

* :func:`extract_timetable` — pull the timetable of one steady period out
  of an execution trace (using the strict-periodicity machinery to find a
  truly periodic window);
* :class:`Timetable` — the explicit description; ``len(timetable)`` is the
  number of timed entries a synchronized implementation would have to store
  and follow;
* :func:`description_sizes` — timetable entries vs event-driven description
  size (Σ bunch lengths), the ratio experiment E17 reports.

The timetable is also *validated*: entries must tile the period without
port conflicts, re-proving feasibility at the executable level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..analysis.periodicity import periodic_from, segments_in_window
from ..exceptions import ScheduleError, TraceError
from ..sim.simulator import SimulationResult
from ..sim.tracing import COMPUTE, RECV, SEND


@dataclass(frozen=True)
class TimetableEntry:
    """One timed action inside the period: ``[start, end)`` relative times."""

    node: Hashable
    kind: str  # COMPUTE, SEND or RECV
    start: Fraction
    end: Fraction
    peer: Optional[Hashable] = None


@dataclass(frozen=True)
class Timetable:
    """An explicit synchronized description of one steady period."""

    period: Fraction
    origin: Fraction  # absolute time the extracted window started at
    entries: Tuple[TimetableEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def entries_for(self, node: Hashable) -> List[TimetableEntry]:
        return [e for e in self.entries if e.node == node]

    def validate(self) -> None:
        """Check the timetable respects the single-port model.

        Within the period, a node's COMPUTE entries must not overlap each
        other, nor its SEND entries, nor its RECV entries.  (Entries may
        wrap around the period boundary as two clipped pieces; overlap is
        checked per kind on the sorted intervals.)
        """
        by_resource: Dict[Tuple[Hashable, str], List[TimetableEntry]] = {}
        for entry in self.entries:
            if not (0 <= entry.start < entry.end <= self.period):
                raise ScheduleError(f"entry {entry} outside the period")
            by_resource.setdefault((entry.node, entry.kind), []).append(entry)
        for (node, kind), entries in by_resource.items():
            entries.sort(key=lambda e: e.start)
            for a, b in zip(entries, entries[1:]):
                if a.end > b.start:
                    raise ScheduleError(
                        f"{node!r} {kind} entries overlap: {a} / {b}"
                    )


def extract_timetable(result: SimulationResult, period) -> Timetable:
    """Extract the timetable of one strictly-periodic window of *result*.

    Uses :func:`repro.analysis.periodicity.periodic_from` to locate the
    first window from which the trace repeats exactly; raises
    :class:`~repro.exceptions.ScheduleError` when the run never became
    periodic (horizon too short) or recorded no segments.
    """
    t = Fraction(period)
    stop = result.stop_time if result.stop_time is not None else result.end_time
    try:
        origin = periodic_from(result.trace, t, stop_time=stop)
    except TraceError as exc:
        raise ScheduleError(f"no timetable: {exc}") from exc
    if origin is None:
        raise ScheduleError(
            "the trace never became strictly periodic; extend the horizon"
        )
    pattern = segments_in_window(result.trace, origin, origin + t)
    entries = []
    for (node, kind, peer), intervals in pattern.items():
        for start, end in intervals:
            entries.append(TimetableEntry(node=node, kind=kind,
                                          start=start, end=end, peer=peer))
    entries.sort(key=lambda e: (str(e.node), e.kind, e.start))
    table = Timetable(period=t, origin=origin, entries=tuple(entries))
    table.validate()
    return table


def description_sizes(
    result: SimulationResult,
    period,
) -> Dict[str, int]:
    """Compare description sizes: explicit timetable vs event-driven.

    Returns ``{"timetable_entries": …, "event_driven_entries": …}`` where
    the event-driven size is the total length of all bunch orders (each
    node needs only its Ψ-long destination list — and, for the root, one
    period number).
    """
    timetable = extract_timetable(result, period)
    event_driven = sum(s.bunch for s in result.schedules.values())
    return {
        "timetable_entries": len(timetable),
        "event_driven_entries": event_driven,
    }

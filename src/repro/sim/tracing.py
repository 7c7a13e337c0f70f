"""Execution traces: the raw material for Gantt charts and phase analysis.

A :class:`Trace` records everything observable about a simulation run:

* **segments** — intervals during which a node resource was busy:
  ``compute`` (the CPU), ``send`` (the emission port, labelled with the
  child), ``recv`` (the reception port, labelled with the parent) and
  ``release`` markers for the root's task generation;
* **completions** — one ``(time, node)`` pair per task computed;
* **buffer deltas** — ±1 changes of the number of tasks held at a node
  (arrived or released, minus computed or forwarded), from which
  :mod:`repro.analysis.buffers` reconstructs occupancy over time.

Traces are append-only during simulation and analysed afterwards: every
stream is stored as flat key columns and decoded into rows when it is read.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

COMPUTE = "compute"
SEND = "send"
RECV = "recv"
CTRL = "ctrl"  # control-plane traffic occupying a send port


@dataclass(frozen=True, slots=True)
class Segment:
    """One busy interval of one resource of one node."""

    node: Hashable
    kind: str  # COMPUTE, SEND or RECV
    start: Fraction
    end: Fraction
    peer: Optional[Hashable] = None  # child for SEND, parent for RECV

    @property
    def duration(self) -> Fraction:
        return self.end - self.start


#: stream → (column kinds, row constructor; None = plain tuple).  Kinds:
#: ``t`` time key, ``n`` node key (or None: no peer), ``r`` raw value.
_STREAMS = {
    "segments": ("nrttn", Segment),
    "completions": ("tn", None),
    "arrivals": ("tn", None),
    "buffer_deltas": ("tnr", None),
    "releases": ("tn", None),
}


def _shifted(ticks, shift):
    """*ticks* moved by *shift*, a run of equal ticks sharing one int (as
    the events of one bucket share the clock's)."""
    last = moved = None
    for t in ticks:
        if t != last:
            last, moved = t, t + shift
        yield moved


class _View(Sequence):
    """Read-only, always-current window on one stream of a :class:`Trace`:
    compares ``==`` to the list of its rows, offers no way to write."""

    __slots__ = ("_trace", "_name")

    def __init__(self, trace: "Trace", name: str):
        self._trace = trace
        self._name = name

    def __len__(self) -> int:
        return len(self._trace._cols[self._name][0])

    def __getitem__(self, item):
        return self._trace._rows_of(self._name)[item]

    def __iter__(self):
        return iter(self._trace._rows_of(self._name))

    def __eq__(self, other) -> bool:
        if isinstance(other, _View):
            other = other._trace._rows_of(other._name)
        return self._trace._rows_of(self._name) == other

    def __repr__(self) -> str:
        return repr(self._trace._rows_of(self._name))


class Trace:
    """Append-only record of a simulation run.

    Each stream is a set of parallel **key columns** (one list per field)
    written through the ``add_*`` methods.  A stand-alone trace (reference
    simulator, baselines, tests) stores the values it is given —
    ``Fraction`` times, node names.  The production simulator calls
    :meth:`use_ticks` first and records integer ticks and dense node ids,
    its hot handlers appending to :meth:`columns` directly.

    ``segments`` / ``completions`` / ``arrivals`` / ``buffer_deltas`` /
    ``releases`` are read-only views that decode the keys into
    :class:`Segment` objects and ``(Fraction, name…)`` tuples when read
    (valid mid-run: decoded rows are kept, a later read decodes only what
    was appended since); :meth:`completions_in` bisects the time column
    and decodes nothing.

    For very long steady-state runs the segment/buffer streams dominate
    memory; construct with ``record_segments=False`` (and/or
    ``record_buffers=False``) to keep only completions — enough for
    throughput measurements — at a fraction of the footprint.

    ``record_events=False`` is the fully lean *counts-only* mode for
    multi-million-event runs: per-event streams (completions, arrivals,
    releases) stay empty and only the ``completed`` counter and
    ``end_time`` are maintained, so the trace costs O(1) memory.
    """

    def __init__(self, record_segments: bool = True,
                 record_buffers: bool = True, record_events: bool = True):
        self.record_segments = record_segments
        self.record_buffers = record_buffers
        self.record_events = record_events
        self._cols = {name: tuple([] for _ in kinds)
                      for name, (kinds, _) in _STREAMS.items()}
        self._rows: Dict[str, list] = {name: [] for name in _STREAMS}
        #: [time key of the last activity, completions counted but not
        #: recorded] — a cell, so that the hot handlers can close over it
        self._tail = [Fraction(0), 0]
        self._scale = 1  # decoding: names None = keys are the values
        self._names: Optional[List[Hashable]] = None
        self._index: Mapping[Hashable, int] = {}

    def use_ticks(self, timeline, names: List[Hashable],
                  index: Mapping[Hashable, int]) -> None:
        """Keys are ticks of *timeline* and dense ids (``names[i]`` /
        ``index[name]``) from now on; rescales multiply recorded ticks."""
        self._scale, self._names, self._index = timeline.scale, names, index
        self._tail[0] = 0
        timeline.on_rescale(self._on_rescale)

    def _on_rescale(self, factor: int) -> None:
        self._scale *= factor
        self._tail[0] *= factor
        for name, (kinds, _) in _STREAMS.items():
            for kind, col in zip(kinds, self._cols[name]):
                if kind == "t":  # in place: the hot handlers hold the lists
                    col[:] = [t * factor for t in col]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def columns(self, name: str) -> Tuple[list, ...]:
        """Key columns of stream *name* for the production hot handlers
        (which then own the ``record_*`` checks and the ``_tail`` cell)."""
        return self._cols[name]

    def repeat(self, start: Mapping[str, int], stop: Mapping[str, int],
               times: int, shift) -> None:
        """Append rows ``start[s]:stop[s]`` of every stream *s* *times*
        more, the j-th copy's time keys moved by ``j·shift`` — a period of
        an exactly periodic run, written instead of stepped."""
        for name, (kinds, _) in _STREAMS.items():
            for kind, col in zip(kinds, self._cols[name]):
                block = col[start[name]:stop[name]]
                for j in range(1, times + 1):
                    col.extend(_shifted(block, j * shift) if kind == "t"
                               else block)

    def _append(self, name: str, *keys) -> None:
        for col, key in zip(self._cols[name], keys):
            col.append(key)

    def add_segment(self, node: Hashable, kind: str, start, end,
                    peer: Optional[Hashable] = None) -> None:
        if end > self._tail[0]:
            self._tail[0] = end
        if self.record_segments:
            self._append("segments", node, kind, start, end, peer)

    def add_completion(self, time, node: Hashable) -> None:
        if time > self._tail[0]:
            self._tail[0] = time
        if self.record_events:
            times = self._cols["completions"][0]
            if times and time < times[-1]:  # completions_in bisects
                raise ValueError(
                    f"completion at {time} recorded after one at {times[-1]}")
            self._append("completions", time, node)
        else:
            self._tail[1] += 1

    def add_arrival(self, time, node: Hashable) -> None:
        if self.record_events:
            self._append("arrivals", time, node)

    def add_buffer_delta(self, time, node: Hashable, delta: int) -> None:
        if self.record_buffers:
            self._append("buffer_deltas", time, node, delta)

    def add_release(self, time, destination: Hashable) -> None:
        if self.record_events:
            self._append("releases", time, destination)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _decode(self, kind: str, keys: list) -> list:
        names = self._names
        if names is None or kind == "r":
            return keys
        if kind == "n":
            return [None if k is None else names[k] for k in keys]
        scale = self._scale  # one Fraction per tick: events share ticks
        memo = {t: Fraction(t, scale) for t in set(keys)}
        return [memo[t] for t in keys]

    def _rows_of(self, name: str) -> list:
        """Decoded rows of stream *name*, brought up to the columns."""
        rows, cols = self._rows[name], self._cols[name]
        lo, hi = len(rows), len(cols[0])
        if lo < hi:
            kinds, make = _STREAMS[name]
            parts = [self._decode(kind, col[lo:hi])
                     for kind, col in zip(kinds, cols)]
            rows.extend(zip(*parts) if make is None else map(make, *parts))
        return rows

    segments = property(lambda self: _View(self, "segments"))
    completions = property(lambda self: _View(self, "completions"))
    arrivals = property(lambda self: _View(self, "arrivals"))
    buffer_deltas = property(lambda self: _View(self, "buffer_deltas"))
    releases = property(lambda self: _View(self, "releases"))

    _FIELDS = (*_STREAMS, "record_segments", "record_buffers",
               "record_events", "completed", "end_time")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self._FIELDS)

    def __repr__(self) -> str:
        return "Trace(%s)" % ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._FIELDS)

    @property
    def completed(self) -> int:
        """Total number of tasks computed."""
        return self._tail[1] + len(self._cols["completions"][0])

    @property
    def end_time(self) -> Fraction:
        """Timestamp of the last recorded activity (0 for an empty trace),
        tracked whether or not segments are recorded."""
        last = self._tail[0]
        return last if self._names is None else Fraction(last, self._scale)

    def completions_by_node(self) -> Dict[Hashable, int]:
        """Tasks computed per node."""
        return dict(Counter(
            self._decode("n", self._cols["completions"][1])))

    def completions_in(self, start, end,
                       node: Optional[Hashable] = None) -> int:
        """Tasks completed (by *node*, when given) in the half-open window
        ``(start, end]``: two bisections of the non-decreasing time column
        at ``⌊start·D⌋`` / ``⌊end·D⌋`` — an integer tick ``t`` has
        ``t/D > start`` exactly when ``t > ⌊start·D⌋``."""
        times, nodes = self._cols["completions"]
        if self._names is not None:
            start, end = Fraction(start), Fraction(end)
            start = start.numerator * self._scale // start.denominator
            end = end.numerator * self._scale // end.denominator
            if node is not None:
                node = self._index.get(node, -1)  # -1: no such id recorded
        lo, hi = bisect_right(times, start), bisect_right(times, end)
        if node is None:
            return max(hi - lo, 0)
        return nodes[lo:hi].count(node)

    def segments_for(self, node: Hashable, kind: Optional[str] = None) -> List[Segment]:
        """All segments of *node*, optionally filtered by *kind*."""
        return [
            s for s in self.segments
            if s.node == node and (kind is None or s.kind == kind)
        ]

    def busy_time(self, node: Hashable, kind: str,
                  start: Fraction, end: Fraction) -> Fraction:
        """Total busy time of a resource inside ``[start, end]``."""
        total = Fraction(0)
        for s in self.segments_for(node, kind):
            lo = max(s.start, start)
            hi = min(s.end, end)
            if hi > lo:
                total += hi - lo
        return total

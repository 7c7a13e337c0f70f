"""Measurement plumbing shared by every workload.

Four things live here and nowhere else:

* the **statistics rules** — medians, the tail-percentile rule (the
  highest percentile that still has at least ten samples beyond it) and
  the quartile spread the regression bounds are judged against;
* the **tracer** — spans around calls into the program's public
  functions, recorded through :class:`repro.telemetry.Registry` and kept
  in memory until the workload ends.  With tracing off :meth:`Tracer.span`
  hands out one shared no-op context, so the untraced run pays nothing;
* the **host-speed normalisation** — this benchmark runs on shared
  hosts that slow down in bursts of a few milliseconds (a 0.7 ms loop
  takes 1.3–1.6 times as long in one), and the share of time spent in
  bursts wanders between 7 % and 54 % from one second to the next: eight-
  second medians of one operation spread by 17–27 % (first to third
  quartile over the median), more than the regressions the benchmark has
  to catch.  So a fixed loop owned by the benchmark runs right before and
  right after every end-to-end timer and, from an interval timer, every
  25 ms *during* it; the reported time is the raw time (less the loops
  that ran inside it) divided by the mean duration of those loops and
  multiplied by the loop's nominal duration: milliseconds *at nominal
  host speed*.  The loop does what the program does (rational arithmetic,
  small objects, a dict, method calls, a sort) — an integer-arithmetic
  loop tracks object-heavy code worse.  On twenty eight-second windows per
  operation this took the spread of a 1.5 s supervised recovery from 19 %
  to 6 %, of a cold plan + simulation from 27 % to 5 %, of a task-plane
  run from 18 % to 5 % and of a 40 ms negotiation from 25 % to 10 %;
  loops before and after alone left the long operations at 11–14 %.  Raw
  times are kept and printed beside the normalised ones;
* the **ledger** — per span name: calls, wall, self time (duration minus
  the part its children cover) and share.  Self times of a sequential
  span tree sum to the root's duration exactly, which is what lets a later
  PR point at one row and call every other row "unchanged".
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import math
import os
import platform as _platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: Conventional percentiles the tail rule chooses from, lowest first.
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Span that brackets the measured window of a traced run.
MEASURE_SPAN = "harness.measure"

#: The host-speed probe.  SPEED_LOOP iterations make one loop of about
#: SPEED_NOMINAL_S seconds on the host the first baseline was recorded on,
#: so normalised and raw times agree there on average.  A timer is followed
#: by SPEED_ROUNDS loops; loops that ended less than SPEED_FRESH_S ago also
#: open the next timer.  While a run's pulse is on, one more loop runs every
#: PULSE_S seconds wherever the program happens to be.  An operation's host
#: speed is the mean of the loops that ended within SPEED_WINDOW_S of it.
SPEED_LOOP = 110
SPEED_NOMINAL_S = 0.00076
SPEED_ROUNDS = 8
SPEED_FRESH_S = 0.02
SPEED_WINDOW_S = 0.03
PULSE_S = 0.025


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def _rank(pct: float, n: int) -> int:
    """Nearest rank of the *pct*-th percentile among *n* samples (1-based;
    the epsilon keeps 99.9 % of 10000 at 9990, not 9991)."""
    return max(1, math.ceil(pct * n / 100 - 1e-9))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    *pct* % of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(pct, len(samples)) - 1]


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` for the highest ladder percentile that leaves at
    least :data:`MIN_BEYOND` samples beyond it, or ``None`` when even the
    median has fewer (below twenty samples only the median is reported,
    and it is reported as a median, not as a tail)."""
    n = len(samples)
    best = None
    for pct in PERCENTILE_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND:
            best = pct
    if best is None:
        return None
    return best, percentile(samples, best)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own three quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread a regression bound has to exceed to mean
    anything."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """By what share of *base* is *new* worse (negative when better)."""
    if better == "lower":
        return (new - base) / base
    return (base - new) / base


# ----------------------------------------------------------------------
# self time and the ledger
# ----------------------------------------------------------------------
def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*
    (clipped to the window; overlapping intervals count once)."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals
        if min(hi, end) > max(lo, start)
    )
    total = 0.0
    cursor = start
    for lo, hi in clipped:
        if hi <= cursor:
            continue
        total += hi - max(lo, cursor)
        cursor = hi
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(start, end, children)


def _descendants(spans, root) -> list:
    by_parent = defaultdict(list)
    for span in spans:
        by_parent[span.parent_id].append(span)
    out, frontier = [], [root]
    while frontier:
        span = frontier.pop()
        out.append(span)
        frontier.extend(by_parent.get(span.id, ()))
    return out


def ledger(spans, root) -> List[dict]:
    """One row per span name under *root* (inclusive): layer, name, calls,
    wall, self, share of the root's duration.  Rows are sorted by self
    time, largest first; their self times sum to the root's duration as
    long as sibling spans do not overlap (one thread, closed loop)."""
    members = _descendants(spans, root)
    children = defaultdict(list)
    for span in members:
        children[span.parent_id].append((span.start, span.end))
    total = root.end - root.start
    rows: Dict[str, dict] = {}
    for span in members:
        row = rows.get(span.name)
        if row is None:
            row = rows[span.name] = {
                "layer": span.name.split(".", 1)[0], "name": span.name,
                "calls": 0, "wall_s": 0.0, "self_s": 0.0,
            }
        row["calls"] += 1
        row["wall_s"] += span.end - span.start
        row["self_s"] += self_time(span.start, span.end,
                                   children.get(span.id, ()))
    out = sorted(rows.values(), key=lambda r: -r["self_s"])
    for row in out:
        row["share"] = row["self_s"] / total if total else 0.0
    return out


def layer_shares(rows: Sequence[dict]) -> Dict[str, float]:
    """Self-time share per layer (the rows' layer column, summed)."""
    shares: Dict[str, float] = defaultdict(float)
    for row in rows:
        shares[row["layer"]] += row["share"]
    return dict(shares)


def render_ledger(rows: Sequence[dict], total: float) -> str:
    """The printed table: layer, span, calls, wall s, self s, share."""
    header = f"{'layer':<11}{'span':<30}{'calls':>7}{'wall s':>10}" \
             f"{'self s':>10}{'share':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['layer']:<11}{row['name']:<30}{row['calls']:>7}"
            f"{row['wall_s']:>10.4f}{row['self_s']:>10.4f}"
            f"{row['share']:>8.1%}")
    summed = sum(row["self_s"] for row in rows)
    lines.append("-" * len(header))
    lines.append(f"{'':<11}{'sum of self / measured wall':<30}{'':>7}"
                 f"{total:>10.4f}{summed:>10.4f}"
                 f"{(summed / total if total else 0.0):>8.1%}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    __slots__ = ("_tracer", "_name", "_op", "span")

    def __init__(self, tracer: "Tracer", name: str, op):
        self._tracer = tracer
        self._name = name
        self._op = op
        self.span = None

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack
        tags = {} if self._op is None else {"op": self._op}
        self.span = tracer.registry.begin_span(
            self._name, clock(), node=self._name.split(".", 1)[0],
            parent=stack[-1] if stack else None, **tags)
        stack.append(self.span)
        return self.span

    def __exit__(self, *exc):
        tracer = self._tracer
        tracer.registry.end_span(self.span, clock())
        tracer._stack.pop()
        return False


class _Cell:
    """A small object with a method, as the program's own state has."""

    __slots__ = ("scale", "offset")

    def __init__(self, scale, offset):
        self.scale = scale
        self.offset = offset

    def step(self, x):
        return self.scale * x + self.offset


def _speed_loop() -> float:
    """One run of the fixed loop: rational arithmetic, small objects, a
    dict, method calls and a sort — what the program under test is made
    of, owned by the benchmark so no change to the program can move it.
    The collector is held off meanwhile: a collection triggered here would
    cost whatever the program's heap happens to hold."""
    collecting = gc.isenabled()
    gc.disable()
    start = clock()
    cells = {}
    acc = Fraction(0)
    for i in range(SPEED_LOOP):
        f = Fraction(i + 1, 7)
        acc += f * 3
        cells[i] = _Cell(f, acc)
    values = [cells[i].step(2) for i in range(SPEED_LOOP)]
    values.sort()
    taken = clock() - start
    if collecting:
        gc.enable()
    return taken


class _Op:
    """One end-to-end timer.  ``raw_s`` is what the clock read, less the
    pulse loops that ran inside; :meth:`Tracer.norm_s` turns it into
    seconds at nominal host speed once the loops after it have run."""

    __slots__ = ("_tracer", "start", "end", "raw_s")

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer
        self.start = self.end = self.raw_s = 0.0

    def __enter__(self):
        self._tracer._probe_before()
        self.start = clock()
        return self

    def __exit__(self, *exc):
        self.end = clock()
        self.raw_s = (self.end - self.start
                      - self._tracer._pulse_s(self.start, self.end))
        self._tracer._loops(SPEED_ROUNDS)
        return False


class Tracer:
    """Spans, counts and end-to-end timers of one workload run.

    Counts come in two flavours.  ``count`` feeds ratios (totals over
    however many blocks fitted the time budget).  While
    :attr:`exact_open` is set — the first blocks of a run, a number fixed
    per workload — the same amounts are mirrored into :attr:`exact`, so
    the counts a later PR may cite repeat bit for bit for a fixed seed
    however fast the host was.
    """

    def __init__(self, trace: bool):
        self.registry = None
        if trace:
            from repro.telemetry import Registry
            self.registry = Registry()
        self._stack: list = []
        self.totals: Dict[str, float] = defaultdict(float)
        self.exact: Dict[str, float] = defaultdict(float)
        self.exact_open = False
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: every run of the speed loop, in time order: when it ended, how
        #: long it took, whether the pulse ran it
        self.loop_ends: List[float] = []
        self.loop_times: List[float] = []
        self.loop_pulsed: List[bool] = []
        self._probing = False
        #: end-to-end timers by role: latency samples (tuples of timers
        #: whose sum is one sample), timers of the headline work, and
        #: named timers feeding per-layer ratios
        self.latencies: List[tuple] = []
        self.busy: List[_Op] = []
        self.named: Dict[str, List[_Op]] = defaultdict(list)

    def span(self, name: str, op=None):
        """Context manager timing one call into layer ``name.split('.')[0]``;
        *op* is the id shared by the spans of one tenant-batch/repetition."""
        if self.registry is None:
            return _NULL_SPAN
        return _LiveSpan(self, name, op)

    def op(self) -> _Op:
        """Context manager around one end-to-end timed operation."""
        return _Op(self)

    def _loop(self, pulsed: bool) -> None:
        self.loop_times.append(_speed_loop())
        self.loop_ends.append(clock())
        self.loop_pulsed.append(pulsed)

    def _loops(self, rounds: int) -> None:
        self._probing = True   # a pulse landing in a loop would stretch it
        with self.span("harness.speed_probe"):
            for _ in range(rounds):
                self._loop(False)
        self._probing = False

    def _probe_before(self) -> None:
        if not self.loop_ends or clock() - self.loop_ends[-1] > SPEED_FRESH_S:
            self._loops(SPEED_ROUNDS)

    def _on_pulse(self, signum, frame) -> None:
        if not self._probing:
            self._probing = True
            self._loop(True)
            self._probing = False

    @contextlib.contextmanager
    def pulse(self):
        """Run the loop every :data:`PULSE_S` seconds from ``SIGALRM``
        while the block runs, so operations too long for their neighbouring
        loops to speak for them are sampled from inside.  Python runs the
        handler in the main thread between two bytecodes; children the
        program forks inherit no timer."""
        previous = signal.signal(signal.SIGALRM, self._on_pulse)
        signal.setitimer(signal.ITIMER_REAL, PULSE_S, PULSE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _window(self, start: float, end: float) -> Tuple[int, int]:
        return (bisect.bisect_left(self.loop_ends, start),
                bisect.bisect_right(self.loop_ends, end))

    def _pulse_s(self, start: float, end: float) -> float:
        """Time pulse loops took inside ``[start, end]``."""
        lo, hi = self._window(start, end)
        return sum(taken for taken, pulsed in
                   zip(self.loop_times[lo:hi], self.loop_pulsed[lo:hi])
                   if pulsed)

    def host_speed(self, start: float, end: float) -> float:
        """Mean loop time within :data:`SPEED_WINDOW_S` of ``[start,
        end]`` — every timer has loops right before and right after it, so
        the window is never empty."""
        lo, hi = self._window(start - SPEED_WINDOW_S, end + SPEED_WINDOW_S)
        return statistics.fmean(self.loop_times[lo:hi])

    def norm_s(self, timer: _Op) -> float:
        """*timer* in seconds at nominal host speed."""
        return (timer.raw_s * SPEED_NOMINAL_S
                / self.host_speed(timer.start, timer.end))

    def count(self, name: str, amount=1) -> None:
        self.totals[name] += amount
        if self.exact_open:
            self.exact[name] += amount

    def check(self, ok: bool, what: str) -> bool:
        """Tally one verified output; a mismatch is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    # -- reading spans back ------------------------------------------------
    def spans(self) -> list:
        return [] if self.registry is None else self.registry.spans

    def span_totals(self) -> Dict[str, Tuple[float, int]]:
        """``name → (wall, calls)`` over every span of the run."""
        totals: Dict[str, Tuple[float, int]] = {}
        for span in self.spans():
            wall, calls = totals.get(span.name, (0.0, 0))
            totals[span.name] = (wall + span.end - span.start, calls + 1)
        return totals

    def root(self, name: str = MEASURE_SPAN):
        found = [s for s in self.spans() if s.name == name]
        return found[-1] if found else None


def span_overhead_s(rounds: int = 20000) -> float:
    """Seconds one recorded span costs on this host (begin + end, empty
    body), measured on a scratch tracer."""
    scratch = Tracer(trace=True)
    start = clock()
    for _ in range(rounds):
        with scratch.span("harness.noop"):
            pass
    return (clock() - start) / rounds


# ----------------------------------------------------------------------
# host and environment
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child, in MiB (``ru_maxrss`` is KiB on Linux)."""
    import resource
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def array_backend() -> str:
    """Which storage the array simulation kernel will use in this process."""
    if os.environ.get("REPRO_NO_NUMPY"):
        return "python (REPRO_NO_NUMPY)"
    try:
        import numpy  # noqa: F401
    except Exception:  # any import failure means the fallback engages
        return "python (numpy missing)"
    return "numpy"


def git_commit(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root, timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "commit": git_commit(root),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": _platform.python_version(),
        "implementation": sys.implementation.name,
        "array_backend": array_backend(),
    }

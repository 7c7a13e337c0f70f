"""E31 — the production event kernel at 10k–100k nodes.

The struct-of-arrays kernel (dense-id parallel state arrays + a bucketed
integer event queue draining every same-tick event per heap pop) on the
same E27 smooth-tree family the kernel benchmarks use.  How much faster
it is than the ``Fraction`` reference is E27's gate
(``benchmarks/bench_e27_timeline.py``); E31 pins what happens at scale:

* **10k nodes, exact counts** — measured with ``root_pacing="burst"``
  (the whole root bunch released at each period start), which is the
  bucketed queue's design case: thousands of events share a tick, so the
  loop pays one heap pop per tick instead of Ψ ``heappush``/``heappop``
  pairs.  The processed-event count is deterministic per (nodes, seed,
  periods) and must equal the recorded ``BENCH_e31_arraykernel.json``
  value: a change means kernel behaviour changed, not the host;
* **100k nodes, ≥1M events** — a seven-period 100k-node run (>1.2M
  events) completes in single-digit seconds; the run is gated inside
  ``make perf-smoke``'s hard timeout;
* **periods the kernel does not step** — once two global-period
  boundaries hold the same state the kernel writes the remaining whole
  periods as shifted columns, so ``run()`` over 8 periods may cost at most
  ``E31_REPLICATION_RATIO`` × ``run()`` over 4 in the same process
  (stepping every period reads ≈ 2×), and its ``processed`` count must
  equal the stepped count of the same run with telemetry on;
* **what recording costs** — the trace is written as (tick, dense id)
  columns and decoded on read, so a run that records every completion,
  arrival and release may cost at most ``E31_RECORDING_RATIO`` × the
  counts-only run *in the same process* (a same-run ratio: host speed
  cancels), and must not have lost a row.

The first two runs are counts-only (segments/buffers/events recording
off): that is the regime the kernel is built for.  Full-trace bit-equality with the
reference is property-tested over 25 seeds in ``tests/test_timeline.py``;
a burst-pacing spot check rides along here.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.platform.generators import smooth_tree
from repro.schedule.eventdriven import build_schedules
from repro.schedule.periods import global_period, tree_periods
from repro.sim import KERNELS
from repro.sim.simulator import Simulation
from repro.telemetry import Registry
from repro.util.text import render_table

from .conftest import emit

E31_NODES = 10_000
E31_BIG_NODES = 100_000
E31_SEED = 1
E31_PERIODS = 3
E31_BIG_PERIODS = 7
E31_REPEATS = 3
E31_PACING = "burst"
E31_EVENTS = 437_835  # engine.processed at E31_NODES × E31_PERIODS (recorded)
E31_RATIO_NODES = 3000
E31_RECORDING_RATIO = 1.35  # 1.66 when every event built a Fraction; ≈ 1.1 now
E31_REPLICATION_PERIODS = (4, 8)
E31_REPLICATION_RATIO = 1.4  # ≈ 2 when every period is stepped


def e31_setup(nodes=E31_NODES, seed=E31_SEED, periods=E31_PERIODS):
    tree = smooth_tree(nodes, seed)
    allocation = from_bw_first(bw_first(tree))
    period_map = tree_periods(allocation)
    schedules = build_schedules(allocation, periods=period_map)
    horizon = Fraction(global_period(period_map)) * periods
    return tree, period_map, schedules, horizon


def counts_only_sim(tree, schedules, periods, horizon, pacing=E31_PACING,
                    record_events=False):
    return Simulation(tree, dict(schedules), dict(periods), horizon=horizon,
                      root_pacing=pacing, record_segments=False,
                      record_buffers=False, record_events=record_events)


def best_counts_run(tree, schedules, periods, horizon, pacing=E31_PACING,
                    repeats=E31_REPEATS, record_events=False):
    """Best-of-*repeats* CPU seconds of ``run()`` with segment and buffer
    recording off (and, by default, event recording too) and the cycle GC
    paused, plus the last (sim, result) for assertions."""
    best, sim, result = None, None, None
    for _ in range(repeats):
        sim = counts_only_sim(tree, schedules, periods, horizon, pacing,
                              record_events)
        gc.collect()
        gc.disable()
        try:
            t0 = time.process_time()
            result = sim.run()
            dt = time.process_time() - t0
        finally:
            gc.enable()
        best = dt if best is None else min(best, dt)
    return best, sim, result


def kernel_columns(sim, result, wall=None):
    """The columns every E31 table prints about one run: events processed,
    of which stepped and replicated, and the boundary replication began at
    (in global periods)."""
    engine = sim.engine
    period = global_period(sim.periods)
    start = ("-" if result.periodic_from is None
             else f"{result.periodic_from / period}T")
    row = [str(engine.processed), str(engine.processed - engine.replicated),
           str(engine.replicated), start]
    return row if wall is None else [f"{wall:.3f}"] + row


KERNEL_HEADERS = ["events", "stepped", "replicated", "periodic from"]


def test_e31_traces_exactly_equal():
    """Spot check: full traces (segments on) are bit-identical between the
    production kernel and the reference under burst pacing too."""
    tree, periods, schedules, horizon = e31_setup(nodes=200, periods=1)
    traces = {}
    for kernel, simulation_class in KERNELS.items():
        sim = simulation_class(tree, dict(schedules), dict(periods),
                               horizon=horizon, root_pacing=E31_PACING)
        traces[kernel] = sim.run().trace
    got, ref = traces["array"], traces["fraction"]
    assert got.segments == ref.segments
    assert got.completions == ref.completions
    assert got.buffer_deltas == ref.buffer_deltas
    assert got.end_time == ref.end_time


def test_e31_10k_nodes_exact_counts():
    """10k nodes, three periods: the recorded event count."""
    tree, periods, schedules, horizon = e31_setup()
    wall, sim, result = best_counts_run(tree, schedules, periods, horizon)
    emit(
        f"E31: {E31_NODES}-node simulator, burst pacing, horizon "
        f"{E31_PERIODS} global periods (seed {E31_SEED})",
        render_table(
            ["best-of-3 run() s", *KERNEL_HEADERS, "tasks"],
            [kernel_columns(sim, result, wall)
             + [str(result.trace.completed)]],
        ),
    )
    assert sim.engine.processed == E31_EVENTS


def test_e31_100k_nodes_million_events():
    """The scale bar: a 100k-node run of more than one million events
    completes (single run; setup dominates, run() is single-digit s)."""
    tree, periods, schedules, horizon = e31_setup(
        nodes=E31_BIG_NODES, periods=E31_BIG_PERIODS)
    sim = counts_only_sim(tree, schedules, periods, horizon)
    gc.collect()
    t0 = time.process_time()
    result = sim.run()
    dt = time.process_time() - t0
    emit(
        f"E31: {E31_BIG_NODES}-node array kernel, horizon "
        f"{E31_BIG_PERIODS} global periods (seed {E31_SEED})",
        f"run(): {dt:.2f}s CPU, "
        + ", ".join(f"{header} {value}" for header, value in zip(
            KERNEL_HEADERS, kernel_columns(sim, result)))
        + f", {result.trace.completed} tasks",
    )
    assert sim.engine.processed >= 1_000_000, (
        f"only {sim.engine.processed} events — below the 1M-event bar")
    assert result.trace.completed > 0


def test_e31_perf_smoke_gate():
    """The CI regression gate, sized for slow runners: at 10k nodes over a
    one-period horizon the counts-only run reports the same completed
    tasks and end time as a run that records every event."""
    tree, periods, schedules, horizon = e31_setup(periods=1)
    _, _, lean = best_counts_run(tree, schedules, periods, horizon,
                                 repeats=1)
    full = Simulation(tree, dict(schedules), dict(periods), horizon=horizon,
                      root_pacing=E31_PACING, record_segments=False,
                      record_buffers=False).run()
    assert lean.trace.completed == len(full.trace.completions) > 0
    assert lean.trace.end_time == full.trace.end_time


def test_e31_recording_ratio_gate():
    """Recording is not the hot path: at 3000 nodes over three global
    periods, ``run()`` keeping every completion, arrival and release costs
    at most ``E31_RECORDING_RATIO`` × the counts-only ``run()`` (best of
    three each, alternated, GC paused) — and every event a handler saw is
    in the columns."""
    tree, periods, schedules, horizon = e31_setup(nodes=E31_RATIO_NODES)
    best = {True: None, False: None}
    for _ in range(E31_REPEATS):
        for record_events in (False, True):
            wall, sim, result = best_counts_run(
                tree, schedules, periods, horizon, pacing="even", repeats=1,
                record_events=record_events)
            if best[record_events] is None or wall < best[record_events]:
                best[record_events] = wall
    ratio = best[True] / best[False]
    trace = result.trace  # the last run recorded events
    emit(
        f"E31: what recording costs, {E31_RATIO_NODES} nodes, even pacing, "
        f"{E31_PERIODS} global periods (seed {E31_SEED})",
        render_table(
            ["counts-only s", "events recorded s", "ratio",
             *KERNEL_HEADERS, "rows"],
            [[f"{best[False]:.3f}", f"{best[True]:.3f}", f"{ratio:.2f}",
              *kernel_columns(sim, result),
              str(len(trace.completions) + len(trace.arrivals)
                  + len(trace.releases))]],
        ),
    )
    assert len(trace.completions) == trace.completed > 0
    assert len(trace.releases) == result.released
    # the per-node arrival counters are the handlers' own tally: every
    # task a node received, plus every release at the root
    assert len(trace.arrivals) == sum(sim._arrivals) - result.released
    assert ratio <= E31_RECORDING_RATIO, (
        f"recording events costs {ratio:.2f}x a counts-only run "
        f"(bar {E31_RECORDING_RATIO}x)")


def test_e31_replication_ratio_gate():
    """Periods the kernel does not step: at 3000 nodes with even pacing,
    ``run()`` over 8 global periods costs at most ``E31_REPLICATION_RATIO``
    × ``run()`` over 4 (best of three each, alternated, GC paused) — the
    periods after the first repeated boundary are written, not stepped —
    and the 8-period run counts exactly the events of the same run with
    telemetry on, which steps every one."""
    tree, periods, schedules, _ = e31_setup(nodes=E31_RATIO_NODES)
    period = Fraction(global_period(periods))
    best, runs = {}, {}
    for _ in range(E31_REPEATS):
        for count in E31_REPLICATION_PERIODS:
            wall, sim, result = best_counts_run(
                tree, schedules, periods, period * count, pacing="even",
                repeats=1)
            if count not in best or wall < best[count]:
                best[count] = wall
            runs[count] = (sim, result)
    short, long = E31_REPLICATION_PERIODS
    ratio = best[long] / best[short]
    stepped = Simulation(tree, dict(schedules), dict(periods),
                         horizon=period * long, root_pacing="even",
                         record_segments=False, record_buffers=False,
                         record_events=False, telemetry=Registry())
    stepped_result = stepped.run()
    emit(
        f"E31: periods the kernel does not step, {E31_RATIO_NODES} nodes, "
        f"even pacing (seed {E31_SEED})",
        render_table(
            ["periods", "best-of-3 run() s", *KERNEL_HEADERS],
            [[str(count), *kernel_columns(*runs[count], best[count])]
             for count in E31_REPLICATION_PERIODS]
            + [[f"{long}, telemetry on", "-",
                *kernel_columns(stepped, stepped_result)]],
        ) + f"\n{long} / {short} periods: {ratio:.2f} "
            f"(bar {E31_REPLICATION_RATIO})",
    )
    sim, result = runs[long]
    assert sim.engine.replicated > 0 and stepped.engine.replicated == 0
    assert sim.engine.processed == stepped.engine.processed
    assert result.trace.completed == stepped_result.trace.completed
    assert result.end_time == stepped_result.end_time
    assert ratio <= E31_REPLICATION_RATIO, (
        f"8 global periods cost {ratio:.2f}x 4 (bar "
        f"{E31_REPLICATION_RATIO}x): periods are being stepped again")

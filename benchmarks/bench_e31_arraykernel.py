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
  events) completes in single-digit seconds without a single int64
  fallback; the run is gated inside ``make perf-smoke``'s hard timeout.

Both runs are counts-only (segments/buffers/events recording off): that
is the regime the kernel is built for.  Full-trace bit-equality with the
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


def e31_setup(nodes=E31_NODES, seed=E31_SEED, periods=E31_PERIODS):
    tree = smooth_tree(nodes, seed)
    allocation = from_bw_first(bw_first(tree))
    period_map = tree_periods(allocation)
    schedules = build_schedules(allocation, periods=period_map)
    horizon = Fraction(global_period(period_map)) * periods
    return tree, period_map, schedules, horizon


def counts_only_sim(tree, schedules, periods, horizon, pacing=E31_PACING):
    return Simulation(tree, dict(schedules), dict(periods), horizon=horizon,
                      root_pacing=pacing, record_segments=False,
                      record_buffers=False, record_events=False)


def best_counts_run(tree, schedules, periods, horizon,
                    pacing=E31_PACING, repeats=E31_REPEATS):
    """Best-of-*repeats* CPU seconds of ``run()`` with recording off and
    the cycle GC paused, plus the last (sim, result) for assertions."""
    best, sim, result = None, None, None
    for _ in range(repeats):
        sim = counts_only_sim(tree, schedules, periods, horizon, pacing)
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
    """10k nodes, three periods: the recorded event count, in int64."""
    tree, periods, schedules, horizon = e31_setup()
    wall, sim, result = best_counts_run(tree, schedules, periods, horizon)
    emit(
        f"E31: {E31_NODES}-node simulator, burst pacing, horizon "
        f"{E31_PERIODS} global periods (seed {E31_SEED})",
        render_table(
            ["best-of-3 run() s", "events", "tasks", "backend"],
            [[f"{wall:.3f}", str(sim.engine.processed),
              str(result.trace.completed), sim.backend]],
        ),
    )
    assert sim.engine.processed == E31_EVENTS
    assert sim.int64_fallbacks == 0, "10k-scale family must stay in int64"


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
        f"run(): {dt:.2f}s CPU, {sim.engine.processed} events, "
        f"{result.trace.completed} tasks, "
        f"backend={sim.backend}, "
        f"int64 fallbacks={sim.int64_fallbacks}",
    )
    assert sim.engine.processed >= 1_000_000, (
        f"only {sim.engine.processed} events — below the 1M-event bar")
    assert result.trace.completed > 0
    assert sim.int64_fallbacks == 0, "10k-scale family must stay in int64"


def test_e31_perf_smoke_gate():
    """The CI regression gate, sized for slow runners: at 10k nodes over a
    one-period horizon the counts-only run reports the same completed
    tasks and end time as a run that records every event, without leaving
    int64."""
    tree, periods, schedules, horizon = e31_setup(periods=1)
    _, sim, lean = best_counts_run(tree, schedules, periods, horizon,
                                   repeats=1)
    full = Simulation(tree, dict(schedules), dict(periods), horizon=horizon,
                      root_pacing=E31_PACING, record_segments=False,
                      record_buffers=False).run()
    assert lean.trace.completed == len(full.trace.completions) > 0
    assert lean.trace.end_time == full.trace.end_time
    assert sim.int64_fallbacks == 0, "10k-scale family must stay in int64"

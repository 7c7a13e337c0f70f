"""The harness's own rules, tested without running a workload.

Collected by ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (tier-1's
``testpaths`` is ``tests``, so it does not pick this file up).
"""

from __future__ import annotations

import json
import re
import signal
from collections import namedtuple
from pathlib import Path

import pytest

from . import metrics
from .harness import (MEASURE_SPAN, PULSE_S, SPEED_NOMINAL_S, SPEED_ROUNDS,
                      Tracer, clock, covered, layer_shares, ledger,
                      percentile, quartile_spread, self_time,
                      tail_percentile, worse_by)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

Span = namedtuple("Span", "id name start end parent_id")


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None),       # not even the median has ten beyond it
    (20, 50), (39, 50), (40, 75), (99, 75),
    (100, 90), (104, 90), (199, 90), (200, 95), (1000, 99), (10000, 99.9),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = list(range(1, n + 1))
    tail = tail_percentile(samples)
    if expected is None:
        assert tail is None
        return
    pct, value = tail
    assert pct == expected
    assert sum(1 for s in samples if s > value) >= 10
    higher = [p for p in (50, 75, 90, 95, 99, 99.9) if p > pct]
    if higher:  # the next rung up would leave fewer than ten
        above = percentile(samples, higher[0])
        assert sum(1 for s in samples if s > above) < 10


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3], 50) == 3
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile([7], 99) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_and_worse_by():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(values, n=4) gives 11.75, 14.5, 17.25
    assert quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert quartile_spread([3.0]) == 0.0
    assert worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worse_by(100.0, 80.0, "higher") == pytest.approx(0.20)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_nested_children():
    # parent 0..10, children 1..3 and 5..9; a grandchild never counts twice
    assert self_time(0, 10, [(1, 3), (5, 9)]) == pytest.approx(4)
    assert self_time(5, 9, [(6, 7)]) == pytest.approx(3)


def test_self_time_overlapping_children_count_once():
    # 2..6 and 4..8 cover 2..8: six, not eight
    assert covered(0, 10, [(2, 6), (4, 8)]) == pytest.approx(6)
    assert self_time(0, 10, [(2, 6), (4, 8)]) == pytest.approx(4)
    # a child contained in another adds nothing
    assert self_time(0, 10, [(2, 8), (3, 4)]) == pytest.approx(4)
    # children reaching outside the parent are clipped to it
    assert self_time(0, 10, [(-5, 2), (9, 50)]) == pytest.approx(7)
    # never negative, whatever the children claim
    assert self_time(0, 1, [(0, 1), (0, 1), (0, 1)]) == 0


def test_ledger_rows_sum_to_the_total():
    spans = [
        Span(1, MEASURE_SPAN, 0.0, 10.0, None),
        Span(2, "core.solve", 1.0, 4.0, 1),
        Span(3, "sim.run", 2.0, 3.0, 2),         # nested in core.solve
        Span(4, "core.solve", 5.0, 7.0, 1),
        Span(5, "runtime.negotiate", 7.0, 9.5, 1),
        Span(6, "harness.setup", -3.0, -1.0, None),  # outside the root
    ]
    rows = ledger(spans, spans[0])
    by_name = {row["name"]: row for row in rows}
    assert "harness.setup" not in by_name
    assert by_name["core.solve"]["calls"] == 2
    assert by_name["core.solve"]["wall_s"] == pytest.approx(5.0)
    assert by_name["core.solve"]["self_s"] == pytest.approx(4.0)
    assert by_name["sim.run"]["self_s"] == pytest.approx(1.0)
    assert by_name[MEASURE_SPAN]["self_s"] == pytest.approx(2.5)
    assert sum(row["self_s"] for row in rows) == pytest.approx(10.0)
    assert sum(row["share"] for row in rows) == pytest.approx(1.0)
    shares = layer_shares(rows)
    assert shares["core"] == pytest.approx(0.4)
    assert shares["harness"] == pytest.approx(0.25)
    assert rows == sorted(rows, key=lambda r: -r["self_s"])


def test_tracer_spans_nest_and_share_an_op_id():
    tr = Tracer(trace=True)
    with tr.span(MEASURE_SPAN):
        with tr.span("core.solve", op="r0.t000"):
            with tr.span("sim.run", op="r0.t000"):
                pass
    outer, middle, inner = tr.spans()
    assert (middle.parent_id, inner.parent_id) == (outer.id, middle.id)
    assert middle.tags["op"] == inner.tags["op"] == "r0.t000"
    assert middle.node == "core" and inner.node == "sim"
    assert outer.start <= middle.start <= inner.start
    assert inner.end <= middle.end <= outer.end
    rows = ledger(tr.spans(), tr.root())
    assert sum(r["self_s"] for r in rows) == pytest.approx(
        outer.end - outer.start)


def test_untraced_tracer_records_nothing_but_still_counts():
    tr = Tracer(trace=False)
    with tr.span("core.solve"):
        tr.count("n", 2)
    tr.exact_open = True
    tr.count("n", 3)
    tr.exact_open = False
    tr.count("n", 5)
    assert tr.spans() == []
    assert tr.totals["n"] == 10 and tr.exact["n"] == 3
    assert tr.check(True, "fine") and not tr.check(False, "broken")
    assert (tr.attempted, tr.failed, tr.failures) == (2, 1, ["broken"])


# ----------------------------------------------------------------------
# host-speed normalisation
# ----------------------------------------------------------------------
def test_a_timer_is_bracketed_by_loops_and_normalised_by_their_mean():
    tr = Tracer(trace=False)
    with tr.op() as timer:
        pass
    assert len(tr.loop_times) == 2 * SPEED_ROUNDS
    assert not any(tr.loop_pulsed)
    assert timer.raw_s == timer.end - timer.start
    speed = sum(tr.loop_times) / len(tr.loop_times)
    assert tr.host_speed(timer.start, timer.end) == pytest.approx(speed)
    assert tr.norm_s(timer) == pytest.approx(
        timer.raw_s * SPEED_NOMINAL_S / speed)
    with tr.op():   # the loops that closed the first timer open this one
        pass
    assert len(tr.loop_times) == 3 * SPEED_ROUNDS


def test_the_pulse_samples_a_long_timer_from_inside_and_is_taken_off_it():
    tr = Tracer(trace=False)
    before = signal.getsignal(signal.SIGALRM)
    with tr.pulse():
        with tr.op() as timer:
            until = clock() + 8 * PULSE_S
            while clock() < until:
                pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == before
    inside = [taken for taken, end, pulsed
              in zip(tr.loop_times, tr.loop_ends, tr.loop_pulsed)
              if pulsed and timer.start < end <= timer.end]
    assert len(inside) >= 4
    assert timer.raw_s == pytest.approx(
        timer.end - timer.start - sum(inside))
    # whichever source ran them, loops are recorded in time order
    assert tr.loop_ends == sorted(tr.loop_ends)


# ----------------------------------------------------------------------
# the catalogue and BENCHMARK.json
# ----------------------------------------------------------------------
def test_names_and_units_are_well_formed_and_unique():
    names = ([m.name for m in metrics.END_TO_END] + metrics.PER_LAYER_NAMES
             + metrics.WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in metrics.units().values():
        assert UNIT.fullmatch(unit), unit
    for m in metrics.END_TO_END:
        assert m.better in ("lower", "higher") and 0 < m.bound <= 0.25
    for m in metrics.PER_LAYER:
        assert m.better in ("lower", "higher")
        assert m.name.split(".", 1)[0] in (
            "platform", "core", "schedule", "sim", "protocol", "runtime",
            "faults", "taskplane", "federation", "harness")
    assert len(metrics.PER_LAYER) <= 128 and 2 <= len(metrics.WORKLOADS) <= 8
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in metrics.END_TO_END)
    assert max(m.bound for m in metrics.END_TO_END) == next(
        m.bound for m in metrics.END_TO_END if m.name == "setup_s")
    for w in metrics.WORKLOADS:
        assert len(w.why) <= 200 and "\n" not in w.why


def test_benchmark_json_lists_exactly_what_the_command_prints():
    recorded = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(recorded) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    expected = metrics.benchmark_json(recorded["command"], recorded["paths"],
                                      recorded["run_seconds"])
    assert recorded == expected
    assert recorded["paths"] == ["benchmarks/e2e"]
    assert 1 <= recorded["run_seconds"] <= 60
    # what a run prints is exactly the catalogue: the workload registry
    # and the per-layer record are both keyed by it
    from .workloads import registry
    assert list(registry()) == [w["name"] for w in recorded["workloads"]]
    assert set(metrics.EXACT) | set(metrics.INEXACT) <= set(
        m["name"] for m in recorded["per_layer"])

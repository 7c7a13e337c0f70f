"""Tests for strict periodicity detection and the Prop-3 buffer bound."""

from fractions import Fraction

import pytest

from repro.analysis.buffers import peak, occupancy_series, prop3_buffer_bound
from repro.analysis.periodicity import (
    is_periodic,
    periodic_from,
    segments_in_window,
)
from repro.baselines import simulate_greedy
from repro.core import bw_first, from_bw_first
from repro.exceptions import ScheduleError, TraceError
from repro.platform.generators import fork
from repro.schedule.periods import tree_periods
from repro.schedule.timetable import extract_timetable
from repro.sim import simulate
from repro.sim.tracing import COMPUTE, Trace

F = Fraction
PERIOD = 36


class TestSegmentsInWindow:
    def test_clipping_and_normalisation(self):
        trace = Trace()
        trace.add_segment("a", COMPUTE, F(1), F(5))
        pattern = segments_in_window(trace, 2, 4)
        assert pattern == {("a", COMPUTE, None): [(F(0), F(2))]}

    def test_merging_adjacent(self):
        trace = Trace()
        trace.add_segment("a", COMPUTE, F(0), F(1))
        trace.add_segment("a", COMPUTE, F(1), F(2))
        pattern = segments_in_window(trace, 0, 2)
        assert pattern == {("a", COMPUTE, None): [(F(0), F(2))]}

    def test_peers_distinguished(self):
        trace = Trace()
        trace.add_segment("a", "send", F(0), F(1), peer="x")
        trace.add_segment("a", "send", F(1), F(2), peer="y")
        pattern = segments_in_window(trace, 0, 2)
        assert len(pattern) == 2


class TestStrictPeriodicity:
    def test_event_driven_becomes_exactly_periodic(self, paper_tree):
        result = simulate(paper_tree, horizon=12 * PERIOD)
        start = periodic_from(result.trace, PERIOD, stop_time=result.stop_time)
        assert start is not None
        assert start <= 3 * PERIOD  # strict periodicity within 3 periods

    def test_late_windows_match(self, paper_tree):
        result = simulate(paper_tree, horizon=12 * PERIOD)
        assert is_periodic(result.trace, PERIOD, at=6 * PERIOD)

    def test_startup_window_differs(self, paper_tree):
        result = simulate(paper_tree, horizon=12 * PERIOD)
        assert not is_periodic(result.trace, PERIOD, at=0)

    def test_simple_fork_periodic(self):
        tree = fork(weights=[2, 4], costs=[1, 2], root_w=2)
        allocation = from_bw_first(bw_first(tree))
        from repro.schedule.periods import global_period

        period = global_period(tree_periods(allocation))
        result = simulate(tree, allocation=allocation, horizon=10 * period)
        start = periodic_from(result.trace, period, stop_time=result.stop_time)
        assert start is not None

    def test_too_short_trace_returns_none(self, paper_tree):
        result = simulate(paper_tree, horizon=PERIOD)
        assert periodic_from(result.trace, PERIOD, stop_time=PERIOD) is None


class TestWithoutSegments:
    """Strict periodicity reads busy segments: a trace recorded without
    them used to look "periodic from 0" (the Fig. 4 tree over 8 periods
    said 0 where the same run with segments says 72) and handed
    ``extract_timetable`` a window-0 timetable.  It fails closed now."""

    @pytest.mark.parametrize("recording", [
        dict(record_segments=False),
        dict(record_segments=False, record_buffers=False,
             record_events=False),
    ])
    def test_raises_naming_the_stream(self, paper_tree, recording):
        full = simulate(paper_tree, horizon=8 * PERIOD)
        assert periodic_from(full.trace, PERIOD,
                             stop_time=full.stop_time) == 2 * PERIOD
        lean = simulate(paper_tree, horizon=8 * PERIOD, **recording)
        with pytest.raises(TraceError, match="segments"):
            periodic_from(lean.trace, PERIOD, stop_time=lean.stop_time)
        with pytest.raises(TraceError, match="segments"):
            is_periodic(lean.trace, PERIOD, at=6 * PERIOD)
        with pytest.raises(TraceError, match="segments"):
            periodic_from(lean.trace, PERIOD, stop_time=PERIOD)  # too short
        with pytest.raises(ScheduleError, match="segments"):
            extract_timetable(lean, PERIOD)


class TestProp3Bound:
    def test_bound_values(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        periods = tree_periods(allocation)
        bound = prop3_buffer_bound(periods, paper_tree.root)
        # χ_in over the full local period (P8: 1/6 × T_full=6 = 1)
        assert bound["P8"] == 1
        assert all(v > 0 for v in bound.values())
        assert "P0" not in bound
        assert "P5" not in bound

    def test_measured_peaks_within_bound_plus_transit(self, paper_tree):
        """Steady-state node occupancy ≤ χ_in + 1 task in transit."""
        allocation = from_bw_first(bw_first(paper_tree))
        periods = tree_periods(allocation)
        bound = prop3_buffer_bound(periods, paper_tree.root)
        result = simulate(paper_tree, horizon=12 * PERIOD)
        for node, chi in bound.items():
            series = occupancy_series(result.trace, node)
            measured = peak(series, start=F(6 * PERIOD), end=F(12 * PERIOD))
            assert measured <= chi + 1, (node, measured, chi)

    def test_greedy_exceeds_nothing(self, paper_tree):
        # the bound is about the paper's schedule; just smoke the helper
        allocation = from_bw_first(bw_first(paper_tree))
        periods = tree_periods(allocation)
        assert prop3_buffer_bound(periods, paper_tree.root)

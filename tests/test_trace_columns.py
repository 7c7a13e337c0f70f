"""The production kernel's trace is recorded as (tick, dense id) columns
and decoded when read; nothing a reader can observe may differ from the
``Fraction``-per-event reference.

Covered here: the views against the reference kernel on the five pinned
stories of ``tests/test_timeline.py`` under every legal ``record_*``
combination, the bisecting window query against the naive scan on every
kind of bound, views read mid-run and across a rescale, the read-only
contract of the views, the stand-alone ``add_*`` path the baselines use,
and ``==`` / ``repr`` of whole traces.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.analysis.throughput import measured_rate, per_node_rate
from repro.schedule.periods import global_period
from repro.sim import KERNELS
from repro.sim.base import BufferedStartController, Controller
from repro.sim.tracing import COMPUTE, RECV, SEND, Segment, Trace

from .test_timeline import SCENARIOS, SEEDS, random_tree, solved

F = Fraction

STREAMS = ("segments", "completions", "arrivals", "buffer_deltas", "releases")

#: every (record_segments, record_buffers, record_events) the simulators
#: accept — counts-only requires the other two off
LEGAL_FLAGS = [(True, True, True), (True, False, True), (False, True, True),
               (False, False, True), (False, False, False)]
LEAN, COUNTS = LEGAL_FLAGS[3], LEGAL_FLAGS[4]

def run_story(scenario, seed, kernel, flags=(True, True, True), drive=None):
    """``tests.test_timeline.run_scenario`` with the ``record_*`` flags
    exposed; *drive* replaces ``sim.run()`` (for mid-run reads)."""
    tree = random_tree(seed)
    _, periods, schedules = solved(tree)
    t = F(global_period(periods))
    controller = Controller(schedules)
    horizon = 2 * t
    if scenario == "plain":
        horizon = t * F(3, 2)
    if scenario == "buffered":
        controller = BufferedStartController(
            schedules, {n: periods[n].chi_in for n in schedules}, tree.root)
    sim = KERNELS[kernel](tree, dict(schedules), dict(periods),
                          controller=controller, horizon=horizon,
                          record_segments=flags[0], record_buffers=flags[1],
                          record_events=flags[2])
    at = sim.engine.schedule_at
    if scenario == "rescale":
        node = next(iter(schedules))
        at(t / 3, lambda: sim.inject_control(node, F(1, 7)))
        at(t * F(2, 3), lambda: sim.inject_control(node, F(1, 11)))
    if scenario in ("crash", "rejoin"):
        victim = random.Random(1000 + seed).choice(
            [n for n in tree.nodes() if n != tree.root])
        sim.schedule_failure(victim, t / 3)
        if scenario == "rejoin":
            _, new_periods, new_schedules = solved(
                tree.without_subtrees([victim]))
            at(t / 2, lambda: sim.reconfigure(new_schedules, new_periods))
            at(t * F(3, 4), lambda: sim.revive_node(victim))
            at(t, lambda: sim.reconfigure(schedules, periods))
    return sim, (drive(sim) if drive else sim.run())


def naive_in(trace, lo, hi, node=None):
    return sum(1 for t, n in trace.completions
               if lo < t <= hi and (node is None or n == node))


# ----------------------------------------------------------------------
# views == the reference kernel's lists
# ----------------------------------------------------------------------
class TestViewsEqualReference:
    @staticmethod
    def check(scenario, seed, flags, ref):
        _, got = run_story(scenario, seed, "array", flags)
        where = f"{scenario}, seed {seed}, record_* = {flags}"
        recorded = dict(zip(STREAMS, (flags[0], flags[2], flags[2],
                                      flags[1], flags[2])))
        for name in STREAMS:
            want = getattr(ref.trace, name) if recorded[name] else []
            assert getattr(got.trace, name) == want, (name, where)
        assert got.trace.completed == ref.trace.completed, where
        assert got.trace.end_time == ref.trace.end_time, where
        assert got.end_time == ref.end_time, where
        assert got.released == ref.released, where
        assert got.tasks_lost == ref.tasks_lost, where
        assert got.wind_down == ref.wind_down, where

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_every_story_under_every_legal_flag_combination(self, seed):
        for scenario in SCENARIOS:
            _, ref = run_story(scenario, seed, "fraction")
            for flags in LEGAL_FLAGS:
                self.check(scenario, seed, flags, ref)

    @pytest.mark.parametrize("seed", SEEDS[5:])
    def test_every_story_lean_and_counts_only(self, seed):
        """The other twenty seeds: fully recorded they are pinned by the
        digests in ``test_timeline.py`` (both kernels), so only the two
        modes the benchmarks run are added here — against a reference
        that skips the segment and buffer streams as well."""
        for scenario in SCENARIOS:
            _, ref = run_story(scenario, seed, "fraction", LEAN)
            assert ref.trace.segments == [] and ref.trace.completions
            for flags in (LEAN, COUNTS):
                self.check(scenario, seed, flags, ref)

    @pytest.mark.parametrize("flags", LEGAL_FLAGS)
    def test_reference_kernel_honours_the_flags_the_same_way(self, flags):
        _, a = run_story("rejoin", 3, "array", flags)
        _, b = run_story("rejoin", 3, "fraction", flags)
        assert a.trace == b.trace
        assert repr(a.trace) == repr(b.trace)

    def test_nothing_is_lost_between_handlers_and_columns(self):
        sim, result = run_story("plain", 5, "array")
        trace = result.trace
        assert len(trace.completions) == trace.completed > 0
        assert len(trace.releases) == result.released
        sends = [s for s in trace.segments if s.kind == SEND]
        assert len(trace.arrivals) == len(sends) - result.tasks_lost
        assert len(trace.buffer_deltas) == (
            len(trace.releases) + 2 * len(trace.arrivals)
            + len(trace.completions))
        assert trace.completions_by_node() == {
            n: sum(1 for _, m in trace.completions if m == n)
            for n in dict.fromkeys(n for _, n in trace.completions)}


# ----------------------------------------------------------------------
# the window query
# ----------------------------------------------------------------------
class TestCompletionsIn:
    @pytest.fixture(scope="class")
    def run(self):
        tree = random_tree(7)
        _, periods, _ = solved(tree)
        sim, result = run_story("plain", 7, "array")
        return sim, result, F(global_period(periods)) * F(3, 2)

    def test_bounds_exactly_on_completion_times(self, run):
        _, result, _ = run
        trace = result.trace
        times = sorted({t for t, _ in trace.completions})
        assert len(times) > 4
        for lo in (times[0], times[1], times[len(times) // 2]):
            for hi in (times[len(times) // 2], times[-2], times[-1]):
                # half-open: a completion AT lo is out, one AT hi is in
                assert trace.completions_in(lo, hi) == naive_in(trace, lo, hi)
        first, last = times[0], times[-1]
        assert trace.completions_in(first, first) == 0
        assert (trace.completions_in(0, first)
                == sum(1 for t, _ in trace.completions if t == first))
        assert (trace.completions_in(first, last) + trace.completions_in(
            0, first) == trace.completed)

    def test_bounds_that_are_not_tick_aligned(self, run):
        sim, result, horizon = run
        trace = result.trace
        rescales = sim._timeline.rescales
        for lo, hi in [(F(1, 7), horizon - F(1, 3)), (F(1, 7), F(22, 7)),
                       (F(5, 13), horizon), (F(0), F(10**9, 3)),
                       (horizon - F(1, 3), F(1, 7))]:
            assert trace.completions_in(lo, hi) == naive_in(trace, lo, hi)
        # a query converts by floor, it never grows the timeline's scale
        assert sim._timeline.rescales == rescales
        assert 1 / F(sim._timeline.scale) != F(1, 7)

    def test_per_node_counts(self, run):
        _, result, horizon = run
        trace = result.trace
        for node in result.tree.nodes():
            for lo, hi in [(F(0), horizon), (F(1, 7), horizon - F(1, 3))]:
                assert (trace.completions_in(lo, hi, node)
                        == naive_in(trace, lo, hi, node))
                assert per_node_rate(trace, node, lo, hi) == F(
                    naive_in(trace, lo, hi, node)) / (hi - lo)
        assert trace.completions_in(F(0), horizon, "no such node") == 0

    def test_integer_and_rational_bounds_mean_the_same(self, run):
        _, result, _ = run
        assert (result.trace.completions_in(2, 9)
                == result.trace.completions_in(F(2), F(9)))

    def test_empty_trace(self):
        assert Trace().completions_in(F(0), F(10)) == 0
        assert Trace().completions_in(F(0), F(10), "n") == 0
        tree = random_tree(1)
        _, periods, schedules = solved(tree)
        sim = KERNELS["array"](tree, dict(schedules), dict(periods),
                               horizon=F(1))
        assert sim.trace.completions_in(F(0), F(10)) == 0
        assert sim.trace.completions == []

    def test_counts_only_trace_has_nothing_to_count_in_a_window(self):
        _, lean = run_story("plain", 7, "array", COUNTS)
        assert lean.trace.completed > 0
        assert lean.trace.completions_in(F(0), F(10**6)) == 0

    def test_a_rescale_between_two_reads(self):
        """Query, let a foreign denominator grow the scale (the recorded
        ticks are multiplied), query again: same counts, same rows."""
        marks = {}

        def drive(sim):
            t = sim.horizon / 2
            sim._schedule_period(0)
            sim.engine.run_until(t * F(2, 3))
            trace = sim.trace
            marks["scale"] = sim._timeline.scale
            marks["rows"] = list(trace.completions)
            marks["count"] = trace.completions_in(F(1, 7), t / 2)
            sim.inject_control(sim.tree.root, F(1, 13))
            assert sim._timeline.scale == 13 * marks["scale"]
            assert trace.completions_in(F(1, 7), t / 2) == marks["count"]
            assert trace.completions[:len(marks["rows"])] == marks["rows"]
            sim.engine.run_all()
            return trace

        sim, trace = run_story("crash", 4, "array", drive=drive)
        _, ref = run_story("crash", 4, "fraction", drive=lambda s: (
            s._schedule_period(0),
            s.engine.run_until(s.horizon / 3),
            s.inject_control(s.tree.root, F(1, 13)),
            s.engine.run_all(), s.trace)[-1])
        assert trace.completions == ref.completions
        assert trace.segments == ref.segments
        assert trace.buffer_deltas == ref.buffer_deltas
        assert len(trace.completions) > len(marks["rows"]) > 0
        t = sim.horizon / 2
        assert marks["count"] == naive_in(ref, F(1, 7), t / 2)
        assert measured_rate(trace, t, 2 * t) == measured_rate(ref, t, 2 * t)


# ----------------------------------------------------------------------
# views: live, cached, read-only
# ----------------------------------------------------------------------
class TestViews:
    def test_a_view_read_mid_run_extends_afterwards(self):
        seen = {}

        def drive(sim):
            sim._schedule_period(0)
            held = {name: getattr(sim.trace, name) for name in STREAMS}
            for k in (1, 2, 3):
                sim.engine.run_until(sim.horizon * k / 4)
                seen[k] = {name: list(view) for name, view in held.items()}
            sim.engine.run_all()
            seen["held"] = held
            return sim.trace

        _, trace = run_story("rejoin", 2, "array", drive=drive)
        _, ref = run_story("rejoin", 2, "fraction")
        for name in STREAMS:
            final = list(getattr(ref.trace, name))
            assert getattr(trace, name) == final
            # the view object taken before the first event is still current
            assert seen["held"][name] == final
            sizes = [len(seen[k][name]) for k in (1, 2, 3)] + [len(final)]
            assert sizes == sorted(sizes) and 0 < sizes[0] < sizes[-1]
            for k in (1, 2, 3):  # every partial read was a prefix
                assert seen[k][name] == final[:len(seen[k][name])]

    def test_rows_are_decoded_once(self):
        _, result = run_story("plain", 0, "array")
        first = result.trace.completions[0]
        assert result.trace.completions[0] is first
        assert next(iter(result.trace.completions)) is first

    def test_sequence_protocol(self):
        _, result = run_story("plain", 0, "array")
        view = result.trace.completions
        rows = list(view)
        assert len(view) == len(rows) and bool(view)
        assert view[-1] == rows[-1] and view[1:3] == rows[1:3]
        assert rows[0] in view and view.index(rows[2]) <= 2
        assert view == rows and rows == view and not (view != rows)
        assert view != rows[:-1] and view != tuple(rows)
        assert repr(view) == repr(rows)
        assert sorted(view, reverse=True) == sorted(rows, reverse=True)
        assert not result.trace.__class__().completions

    def test_views_offer_no_way_to_write(self):
        """Pinned: writing through a view raises; the columns stay put."""
        _, result = run_story("plain", 0, "array")
        trace = result.trace
        before = {name: list(getattr(trace, name)) for name in STREAMS}
        row = (F(1), "n0")
        for name in STREAMS:
            view = getattr(trace, name)
            with pytest.raises(AttributeError):
                view.append(row)
            with pytest.raises(AttributeError):
                view.extend([row])
            with pytest.raises(TypeError):
                view[0] = row
            with pytest.raises(TypeError):
                del view[0]
            with pytest.raises(AttributeError):
                setattr(trace, name, [])
        assert {name: list(getattr(trace, name)) for name in STREAMS} == before
        assert trace.completed == len(before["completions"])
        # a slice is a plain list of its own: mutating it reaches nothing
        trace.completions[:].append(row)
        assert trace.completions == before["completions"]


# ----------------------------------------------------------------------
# the stand-alone add_* path (reference kernel, baselines, tests)
# ----------------------------------------------------------------------
class TestStandAlone:
    def build(self, **flags):
        trace = Trace(**flags)
        trace.add_release(F(0), "a")
        trace.add_buffer_delta(F(0), "r", +1)
        trace.add_segment("r", SEND, F(0), F(3, 2), peer="a")
        trace.add_segment("a", RECV, F(0), F(3, 2), peer="r")
        trace.add_arrival(F(3, 2), "a")
        trace.add_buffer_delta(F(3, 2), "r", -1)
        trace.add_buffer_delta(F(3, 2), "a", +1)
        trace.add_segment("a", COMPUTE, F(3, 2), F(7, 2))
        trace.add_completion(F(7, 2), "a")
        trace.add_buffer_delta(F(7, 2), "a", -1)
        return trace

    def test_round_trip(self):
        trace = self.build()
        assert trace.releases == [(F(0), "a")]
        assert trace.arrivals == [(F(3, 2), "a")]
        assert trace.completions == [(F(7, 2), "a")]
        assert trace.buffer_deltas == [(F(0), "r", 1), (F(3, 2), "r", -1),
                                       (F(3, 2), "a", 1), (F(7, 2), "a", -1)]
        assert trace.segments == [
            Segment("r", SEND, F(0), F(3, 2), "a"),
            Segment("a", RECV, F(0), F(3, 2), "r"),
            Segment("a", COMPUTE, F(3, 2), F(7, 2))]
        assert trace.completed == 1 and trace.end_time == F(7, 2)
        assert trace.completions_by_node() == {"a": 1}
        assert trace.completions_in(F(0), F(7, 2)) == 1
        assert trace.completions_in(F(7, 2), F(9)) == 0
        assert trace.completions_in(F(0), F(9), "a") == 1
        assert trace.completions_in(F(0), F(9), "r") == 0
        assert trace.busy_time("a", COMPUTE, F(0), F(3)) == F(3, 2)

    def test_rows_added_after_a_read_show_up(self):
        trace = self.build()
        view = trace.completions
        assert len(view) == 1
        trace.add_completion(F(4), "r")
        assert view == [(F(7, 2), "a"), (F(4), "r")]

    def test_flags(self):
        lean = self.build(record_segments=False, record_buffers=False)
        assert lean.segments == [] and lean.buffer_deltas == []
        assert lean.completions == [(F(7, 2), "a")]
        assert lean.end_time == F(7, 2)
        counts = self.build(record_segments=False, record_buffers=False,
                            record_events=False)
        assert all(getattr(counts, name) == [] for name in STREAMS)
        assert counts.completed == 1 and counts.end_time == F(7, 2)

    def test_completions_must_come_in_time_order(self):
        trace = self.build()
        with pytest.raises(ValueError, match="recorded after"):
            trace.add_completion(F(3), "a")
        trace.add_completion(F(7, 2), "r")  # a tie is in order
        assert trace.completed == 2

    def test_equality_and_repr(self):
        a, b = self.build(), self.build()
        assert a == b and not (a != b)
        assert repr(a) == repr(b)
        assert repr(a).startswith("Trace(segments=[Segment(node='r'")
        assert "completed=1" in repr(a) and "end_time=Fraction(7, 2)" in repr(a)
        b.add_arrival(F(4), "a")
        assert a != b and repr(a) != repr(b)
        assert a != self.build(record_buffers=False)
        assert a != "a trace"
        with pytest.raises(TypeError):
            hash(a)

    def test_baselines_and_return_sim_still_report_through_it(self):
        from repro.baselines.greedy import simulate_greedy
        from repro.platform.examples import paper_figure4_tree

        run = simulate_greedy(paper_figure4_tree(), horizon=F(30))
        assert run.completed == len(run.trace.completions) > 0
        assert run.wind_down is not None
        assert run.trace.completions_in(F(0), run.end_time) == run.completed

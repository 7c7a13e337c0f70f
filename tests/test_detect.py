"""Edge cases of the heartbeat failure detector.

The happy paths live in ``tests/test_faults.py``; this suite pins the
corners: a crash landing exactly on a monitoring beat, several deaths
declared inside one interval, ``stop()`` racing an already-armed
declaration timer, and the boundary arithmetic of
:func:`~repro.faults.detect.detection_time`.  The production monitor
wakes only for deaths; :class:`SteppingMonitor` below — the
every-interval chain it replaced — is the oracle it is compared against.
"""

import random
from fractions import Fraction

import pytest

from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.exceptions import FaultError
from repro.faults import HeartbeatMonitor, detection_time
from repro.platform.tree import Tree
from repro.schedule.eventdriven import build_schedules
from repro.schedule.periods import global_period, tree_periods
from repro.sim import KERNELS
from repro.sim.simulator import Simulation

from .test_timeline import SEEDS, random_tree, solved, trace_digest

F = Fraction


def two_level():
    t = Tree("root", w=2)
    t.add_node("a", 2, parent="root", c=F(1, 2))
    t.add_node("b", 3, parent="root", c=1)
    t.add_node("a1", 2, parent="a", c=1)
    return t


def build_sim(tree, horizon):
    allocation = from_bw_first(bw_first(tree))
    periods = tree_periods(allocation)
    schedules = build_schedules(allocation, periods=periods)
    return Simulation(tree, dict(schedules), dict(periods), horizon=horizon)


class TestDetectionTimeBoundaries:
    def test_crash_at_zero_is_caught_by_the_first_beat(self):
        # the monitor's very first scan runs at t=0, after the crash
        assert detection_time(F(0), F(1), F(1, 2)) == F(1, 2)

    def test_crash_exactly_on_a_beat_is_caught_by_that_beat(self):
        # the death arms the beat of its own grid point, so the beat at
        # t=4 runs after it and already sees the node dead
        assert detection_time(F(4), F(2), F(1)) == F(5)

    def test_crash_just_after_a_beat_waits_a_full_interval(self):
        assert detection_time(F(4) + F(1, 1000), F(2), F(1)) == F(7)

    def test_zero_timeout_declares_on_the_beat(self):
        assert detection_time(F(3), F(2), F(0)) == F(4)

    def test_rational_parameters(self):
        # beat grid k·3/4: the first beat at or after 7/3 is 4·(3/4) = 3
        assert detection_time(F(7, 3), F(3, 4), F(1, 8)) == F(3) + F(1, 8)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(FaultError):
            detection_time(F(1), F(0), F(1))


class TestMonitorEdgeCases:
    def test_three_crashes_detected_identically_on_both_kernels(self):
        """The monitor reads ``sim.dead_nodes()``; node for node and time
        for time, the two simulator classes must tell it the same story."""
        tree = two_level()
        allocation = from_bw_first(bw_first(tree))
        periods = tree_periods(allocation)
        schedules = build_schedules(allocation, periods=periods)
        detected = {}
        for kernel, simulation_class in KERNELS.items():
            sim = simulation_class(tree, dict(schedules), dict(periods),
                                   horizon=F(20))
            sim.schedule_failure("a1", F(1))
            sim.schedule_failure("b", F(7, 2))
            sim.schedule_failure("a", F(6))
            monitor = HeartbeatMonitor(sim, F(2), F(1), until=F(20)).start()
            sim.run()
            detected[kernel] = list(monitor.detected.items())
        assert detected["array"] == detected["fraction"]
        assert detected["array"] == [("a1", F(3)), ("b", F(5)), ("a", F(7))]

    def test_beat_chain_in_clock_units_follows_rescales(self):
        """The grid lives in the engine's own units.  An interval and an
        *until* whose denominators the timeline has never seen, plus a
        control job that grows the scale between two beats: the rounds and
        the declarations are those of the Fraction kernel, and the count is
        the analytic one (beats at k·7/5 up to the first at or past
        until)."""
        tree = two_level()
        allocation = from_bw_first(bw_first(tree))
        periods = tree_periods(allocation)
        schedules = build_schedules(allocation, periods=periods)
        interval, timeout, until = F(7, 5), F(2, 9), F(61, 3)
        seen = {}
        for kernel, simulation_class in KERNELS.items():
            sim = simulation_class(tree, dict(schedules), dict(periods),
                                   horizon=F(20))
            sim.schedule_failure("b", F(1))
            sim.schedule_failure("a1", F(11))
            sim.engine.schedule_at(
                F(6), lambda s=sim: s.inject_control("root", F(1, 13)))
            monitor = HeartbeatMonitor(sim, interval, timeout,
                                       until=until).start()
            result = sim.run()
            seen[kernel] = (monitor.heartbeats, list(monitor.detected.items()),
                            result.end_time, sim.dead_nodes())
        assert seen["array"] == seen["fraction"]
        beats, detected, _, dead = seen["array"]
        assert beats == -(-until // interval) + 1 == 16
        assert detected == [
            ("b", detection_time(F(1), interval, timeout)),
            ("a1", detection_time(F(11), interval, timeout))]
        assert dead == ["a1", "b"]  # tree order, not crash order

    def test_crash_on_the_beat_detected_at_that_beat(self):
        sim = build_sim(two_level(), horizon=F(20))
        sim.schedule_failure("a", F(4))  # beats at 0, 2, 4, ...
        monitor = HeartbeatMonitor(sim, F(2), F(1), until=F(20)).start()
        sim.run()
        assert monitor.detected == {"a": F(5)}

    def test_two_nodes_declared_in_the_same_interval(self):
        sim = build_sim(two_level(), horizon=F(20))
        sim.schedule_failure("a", F(3))
        sim.schedule_failure("b", F(7, 2))  # both suspected by the beat at 4
        monitor = HeartbeatMonitor(sim, F(2), F(1), until=F(20)).start()
        sim.run()
        assert monitor.detected == {"a": F(5), "b": F(5)}
        # one beat suspected both: the scan count didn't double-charge
        assert monitor.heartbeats <= 11

    def test_stop_racing_a_pending_declare_suppresses_it(self):
        # the beat at t=4 suspects "a" and arms a declaration for t=5;
        # stop() lands at 9/2, between suspicion and declaration
        sim = build_sim(two_level(), horizon=F(20))
        sim.schedule_failure("a", F(3))
        monitor = HeartbeatMonitor(sim, F(2), F(1), until=F(20)).start()
        sim.engine.schedule_at(F(9, 2), monitor.stop)
        sim.run()
        assert monitor.detected == {}

    def test_detection_is_idempotent_per_node(self):
        # long run, short interval: the node stays dead for many beats but
        # is declared exactly once, at the analytic time
        sim = build_sim(two_level(), horizon=F(30))
        sim.schedule_failure("a", F(5))
        monitor = HeartbeatMonitor(sim, F(1, 2), F(1, 4), until=F(30)).start()
        sim.run()
        assert monitor.detected == {"a": detection_time(F(5), F(1, 2),
                                                        F(1, 4))}

    def test_dead_root_is_detected(self):
        # fail_root kills the master; the monitor scans every node state,
        # so the root's death is declared like any other — the hook the
        # failover election hangs off
        sim = build_sim(two_level(), horizon=F(20))
        sim.engine.schedule_at(F(5), sim.fail_root)
        monitor = HeartbeatMonitor(sim, F(1), F(1, 2), until=F(20)).start()
        sim.run()
        assert monitor.detected == {"root": detection_time(F(5), F(1),
                                                           F(1, 2))}


# ----------------------------------------------------------------------
# the oracle: the every-interval chain, one engine event per grid point
# ----------------------------------------------------------------------
class SteppingMonitor:
    """What ``HeartbeatMonitor`` was until it stopped polling: every beat
    re-arms the next one, ``heartbeats`` counts the beats that ran.  Kept
    as the reference the event-eliding monitor must agree with; do not
    optimise it."""

    def __init__(self, sim, interval, timeout, until=None, on_detect=None):
        self.sim, self.interval, self.timeout = sim, F(interval), F(timeout)
        self.until = None if until is None else F(until)
        self.on_detect = on_detect
        self.heartbeats, self.detected = 0, {}
        self._suspected, self._stopped, self._k = set(), False, 0

    def start(self):
        self._timer = self.sim.engine.schedule_at(0, self._beat)
        return self

    def stop(self):
        self._stopped = True
        self._timer.cancel()

    def _beat(self):
        if self._stopped:
            return
        self.heartbeats += 1
        for name in self.sim.dead_nodes():
            if name not in self._suspected:
                self._suspected.add(name)
                self.sim.engine.schedule_in(
                    self.timeout, lambda n=name: self._declare(n))
        if self.until is None or self._k * self.interval < self.until:
            self._k += 1
            self._timer = self.sim.engine.schedule_at(
                self._k * self.interval, self._beat)

    def _declare(self, node):
        if self._stopped or node in self.detected:
            return
        self.detected[node] = now = self.sim.engine.now
        if self.on_detect is not None:
            self.on_detect(node, now)


def _crash_on_a_beat(sim, monitor, i, a, b):
    sim.schedule_failure(a, 4 * i)


def _crash_just_after_a_beat(sim, monitor, i, a, b):
    sim.schedule_failure(a, 4 * i + i / 1000)


def _crash_at_zero(sim, monitor, i, a, b):
    sim.schedule_failure(a, 0)


def _two_in_one_interval(sim, monitor, i, a, b):
    sim.schedule_failure(a, i * F(17, 4))
    sim.schedule_failure(b, i * F(19, 4))


def _rejoin_before_the_next_beat(sim, monitor, i, a, b):
    sim.schedule_failure(a, i * F(17, 4))        # never suspected
    sim.engine.schedule_at(i * F(19, 4), lambda: sim.revive_node(a))
    sim.schedule_failure(b, i * F(37, 4))        # a later beat still works


def _rejoin_after_suspicion(sim, monitor, i, a, b):
    sim.schedule_failure(a, i * F(17, 4))        # suspected at 5i ...
    sim.engine.schedule_at(i * F(21, 4), lambda: sim.revive_node(a))
    # ... and declared at 5i + timeout all the same


def _stop_wins_the_race(sim, monitor, i, a, b):
    sim.schedule_failure(a, i * F(17, 4))
    # armed before the beat that arms the declaration: fires first
    sim.engine.schedule_at(5 * i + monitor.timeout, monitor.stop)


def _stop_loses_the_race(sim, monitor, i, a, b):
    sim.schedule_failure(a, i * F(17, 4))
    sim.engine.schedule_at(          # armed after it: the declare fires
        i * F(21, 4),
        lambda: sim.engine.schedule_at(5 * i + monitor.timeout, monitor.stop))
    sim.schedule_failure(b, 7 * i)               # after stop(): unseen


def _dead_root(sim, monitor, i, a, b):
    sim.engine.schedule_at(i * F(17, 4), sim.fail_root)


def _rescale_between_beats(sim, monitor, i, a, b):
    sim.schedule_failure(a, i)
    sim.engine.schedule_at(
        i * F(11, 3), lambda: sim.inject_control(sim.tree.root, F(1, 13)))
    sim.schedule_failure(b, i * F(23, 3))


def _no_until_then_stop(sim, monitor, i, a, b):
    sim.schedule_failure(a, i * F(17, 4))
    sim.engine.schedule_at(i * F(19, 2), monitor.stop)
    sim.schedule_failure(b, 11 * i)              # after stop(): unseen


STORIES = {
    story.__name__.strip("_"): story for story in (
        _crash_on_a_beat, _crash_just_after_a_beat, _crash_at_zero,
        _two_in_one_interval, _rejoin_before_the_next_beat,
        _rejoin_after_suspicion, _stop_wins_the_race, _stop_loses_the_race,
        _dead_root, _rescale_between_beats, _no_until_then_stop)
}


def run_story(story, seed, kernel, monitor_class):
    """One story on ``random_tree(seed)``: everything the monitor decides
    and everything it could have disturbed.  Each declaration injects a
    control job at the root, so a declaration at another time, or in
    another place among its instant's events, shows in the trace."""
    tree = random_tree(seed)
    _, periods, schedules = solved(tree)
    horizon = min(F(global_period(periods)), F(24))
    victims = random.Random(seed).sample(
        [n for n in tree.nodes() if n != tree.root], 2)
    sim = KERNELS[kernel](tree, dict(schedules), dict(periods),
                          horizon=horizon)
    interval, timeout, until = horizon / 16, horizon / 32, horizon
    if story is _rescale_between_beats:       # denominators nobody has seen
        interval, timeout, until = (horizon * F(7, 97), horizon * F(2, 89),
                                    horizon * F(61, 67))
    elif story is _no_until_then_stop:
        until = None
    elif story is _rejoin_after_suspicion:
        timeout = interval * F(3, 2)
    monitor = monitor_class(
        sim, interval, timeout, until=until,
        on_detect=lambda node, now: sim.inject_control(sim.tree.root,
                                                       F(1, 7)))
    story(sim, monitor, interval, *victims)
    monitor.start()
    result = sim.run()
    return (list(monitor.detected.items()), monitor.heartbeats,
            sim.engine.now, trace_digest(result))


class TestAgainstTheSteppingOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_story_on_both_kernels(self, seed):
        for name, story in STORIES.items():
            for kernel in KERNELS:
                want = run_story(story, seed, kernel, SteppingMonitor)
                got = run_story(story, seed, kernel, HeartbeatMonitor)
                assert got == want, (name, kernel)

    def test_the_stories_do_what_their_names_say(self):
        """On one tree: who is declared, and when, per story."""
        seen = {name: run_story(story, 3, "array", HeartbeatMonitor)
                for name, story in STORIES.items()}
        horizon = min(F(global_period(solved(random_tree(3))[1])), F(24))
        i = horizon / 16
        a, b = random.Random(3).sample(
            [n for n in random_tree(3).nodes() if n != "n0"], 2)
        half = i / 2
        assert seen["crash_on_a_beat"][0] == [(a, 4 * i + half)]
        assert seen["crash_just_after_a_beat"][0] == [(a, 5 * i + half)]
        assert seen["crash_at_zero"][0] == [(a, half)]
        assert seen["two_in_one_interval"][0] == [(a, 5 * i + half),
                                                  (b, 5 * i + half)]
        assert seen["rejoin_before_the_next_beat"][0] == [(b, 10 * i + half)]
        assert seen["rejoin_after_suspicion"][0] == [(a, i * F(13, 2))]
        assert seen["stop_wins_the_race"][0] == []
        assert seen["stop_loses_the_race"][0] == [(a, 5 * i + half)]
        assert seen["dead_root"][0] == [("n0", 5 * i + half)]
        assert seen["no_until_then_stop"][0] == [(a, 5 * i + half)]
        assert seen["no_until_then_stop"][1] == 10   # grid points 0 .. 9
        assert seen["crash_on_a_beat"][1] == 17      # 0 .. 16, the closing


class TestElidedBeats:
    def test_beats_cost_events_only_where_a_death_needs_one(self):
        """Three deaths on three different grid points, 200 grid points in
        all: five beats on the engine (t = 0, one per death, the closing
        one) and the count an every-interval chain would have reported."""
        spent = {}
        for monitor_class in (SteppingMonitor, HeartbeatMonitor):
            sim = build_sim(two_level(), horizon=F(20))
            sim.schedule_failure("a1", F(1))
            sim.schedule_failure("b", F(7, 2))
            sim.schedule_failure("a", F(6))
            monitor = monitor_class(sim, F(1, 10), F(1, 20),
                                    until=F(20)).start()
            sim.run()
            assert monitor.heartbeats == 201
            spent[monitor_class] = sim.engine.processed
        assert spent[SteppingMonitor] - spent[HeartbeatMonitor] == 201 - 5

    def test_heartbeats_is_read_only_and_counts_rounds_that_ran(self):
        sim = build_sim(two_level(), horizon=F(20))
        monitor = HeartbeatMonitor(sim, F(2), F(1), until=F(20))
        assert monitor.heartbeats == 0                # never started
        monitor.start()
        assert monitor.heartbeats == 0                # armed at 0, not run
        with pytest.raises(AttributeError):
            monitor.heartbeats = 7
        seen = []
        sim.engine.schedule_at(F(5), lambda: seen.append(monitor.heartbeats))
        sim.run()
        assert seen == [3]                            # 0, 2, 4
        assert monitor.heartbeats == 11               # 0, 2, ..., 20

    def test_a_stop_on_a_grid_point_counts_that_point(self):
        """The one place the count is not the oracle's: whether the chain's
        beat at 6 ran before a ``stop()`` at 6 depended on which of the two
        had been scheduled first.  The grid point has been passed; it
        counts.  ``stop()`` freezes the count, twice is once."""
        sim = build_sim(two_level(), horizon=F(20))
        monitor = HeartbeatMonitor(sim, F(2), F(1), until=F(20)).start()
        sim.engine.schedule_at(F(6), monitor.stop)
        sim.engine.schedule_at(F(9), monitor.stop)
        sim.schedule_failure("a", F(7))
        sim.run()
        assert monitor.heartbeats == 4 and monitor.detected == {}

    def test_a_death_after_the_closing_beat_is_nobodys(self):
        sim = build_sim(two_level(), horizon=F(20))
        monitor = HeartbeatMonitor(sim, F(2), F(1), until=F(9)).start()
        sim.schedule_failure("a", F(10))   # on the closing beat: seen
        sim.schedule_failure("b", F(21, 2))
        sim.run()
        assert monitor.detected == {"a": F(11)}
        assert monitor.heartbeats == 6

    def test_beats_do_not_eat_max_events(self):
        """A fine grid on a short run: the chain alone would have tripped
        the simulation's livelock guard."""
        tree = two_level()
        allocation = from_bw_first(bw_first(tree))
        periods = tree_periods(allocation)
        schedules = build_schedules(allocation, periods=periods)
        sim = Simulation(tree, dict(schedules), dict(periods), horizon=F(20),
                         max_events=2_000)
        monitor = HeartbeatMonitor(sim, F(1, 1000), F(1, 2000),
                                   until=F(20)).start()
        sim.schedule_failure("a", F(5))
        sim.run()
        assert monitor.heartbeats == 20_001
        assert monitor.detected == {"a": F(5) + F(1, 2000)}

"""Edge cases of the heartbeat failure detector.

The happy paths live in ``tests/test_faults.py``; this suite pins the
corners: a crash landing exactly on a monitoring beat, several deaths
declared inside one interval, ``stop()`` racing an already-armed
declaration timer, and the boundary arithmetic of
:func:`~repro.faults.detect.detection_time`.
"""

from fractions import Fraction

import pytest

from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.exceptions import FaultError
from repro.faults import HeartbeatMonitor, detection_time
from repro.platform.tree import Tree
from repro.schedule.eventdriven import build_schedules
from repro.schedule.periods import tree_periods
from repro.sim import KERNELS
from repro.sim.simulator import Simulation

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
        # the crash event is scheduled before the monitor's beat at equal
        # times, so the beat at t=4 already sees the node dead
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
        """The chain re-arms in the engine's own units.  An interval and an
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

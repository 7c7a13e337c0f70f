"""Tests for the fault-injection subsystem (plans, injectors, detection)."""

from fractions import Fraction

import pytest

from repro.core.bwfirst import bw_first
from repro.exceptions import FaultError, PlatformError, SimulationError
from repro.faults import (
    FaultPlan,
    FaultyNetwork,
    HeartbeatMonitor,
    LinkDegradation,
    LinkFaults,
    NodeCrash,
    apply_to_simulation,
    detection_time,
    random_plan,
)
from repro.platform.examples import paper_figure4_tree
from repro.platform.tree import Tree
from repro.protocol import Network, Proposal, run_protocol
from repro.protocol.runner import VIRTUAL_PARENT
from repro.sim.simulator import Simulation, simulate
from repro.core.allocation import from_bw_first
from repro.schedule.eventdriven import build_schedules
from repro.schedule.periods import tree_periods

F = Fraction


def two_level():
    t = Tree("root", w=2)
    t.add_node("a", 2, parent="root", c=F(1, 2))
    t.add_node("b", 3, parent="root", c=1)
    t.add_node("a1", 2, parent="a", c=1)
    return t


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_defaults_are_benign(self):
        plan = FaultPlan()
        assert plan.drop == plan.duplicate == plan.corrupt == 0
        assert plan.crashed_nodes == ()
        assert plan.degradation_factor("x", 5) == 1

    def test_probability_range_enforced(self):
        with pytest.raises(FaultError):
            FaultPlan(drop=F(1))  # certain loss can never terminate
        with pytest.raises(FaultError):
            FaultPlan(duplicate=F(-1, 2))
        with pytest.raises(FaultError):
            LinkFaults(child="a", drop=F(3, 2))

    def test_double_crash_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(crashes=(NodeCrash("a", F(1)), NodeCrash("a", F(2))))

    def test_negative_crash_time_rejected(self):
        with pytest.raises(FaultError):
            NodeCrash("a", F(-1))

    def test_degradation_window_validation(self):
        with pytest.raises(FaultError):
            LinkDegradation("a", factor=F(1, 2), start=F(0), end=F(1))
        with pytest.raises(FaultError):
            LinkDegradation("a", factor=F(2), start=F(1), end=F(1))

    def test_validate_against_tree(self):
        tree = two_level()
        FaultPlan(crashes=(NodeCrash("a", F(1)),)).validate(tree)
        with pytest.raises(FaultError):
            FaultPlan(crashes=(NodeCrash("root", F(1)),)).validate(tree)
        with pytest.raises(FaultError):
            FaultPlan(crashes=(NodeCrash("ghost", F(1)),)).validate(tree)
        with pytest.raises(FaultError):
            FaultPlan(links=(LinkFaults("root"),)).validate(tree)
        with pytest.raises(FaultError):
            FaultPlan(degradations=(
                LinkDegradation("ghost", F(2), F(0), F(1)),
            )).validate(tree)

    def test_per_link_overrides(self):
        plan = FaultPlan(drop=F(1, 10),
                         links=(LinkFaults("a", drop=F(1, 2)),))
        assert plan.link_drop("a") == F(1, 2)
        assert plan.link_drop("b") == F(1, 10)

    def test_overlapping_degradations_compound(self):
        plan = FaultPlan(degradations=(
            LinkDegradation("a", F(2), F(0), F(10)),
            LinkDegradation("a", F(3), F(5), F(10)),
        ))
        assert plan.degradation_factor("a", F(1)) == 2
        assert plan.degradation_factor("a", F(5)) == 6
        assert plan.degradation_factor("a", F(10)) == 1  # half-open window

    def test_decision_is_a_pure_function(self):
        plan = FaultPlan(seed=42)
        a = plan.decision("drop", "x", "y", 0)
        assert a == FaultPlan(seed=42).decision("drop", "x", "y", 0)
        assert 0 <= a < 1
        assert a != plan.decision("drop", "x", "y", 1)
        assert a != FaultPlan(seed=43).decision("drop", "x", "y", 0)

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=9,
            crashes=(NodeCrash("a", F(7, 3)),),
            drop=F(1, 10),
            duplicate=F(1, 20),
            links=(LinkFaults("b", drop=F(2, 5)),),
            degradations=(LinkDegradation("a", F(3, 2), F(1), F(4)),),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_json_fractions_stay_exact(self):
        plan = FaultPlan(drop=F(1, 3))
        assert FaultPlan.from_json(plan.to_json()).drop == F(1, 3)

    def test_json_round_trips_every_field(self):
        from repro.faults import Corruption, NodeRejoin, RootFailover

        plan = FaultPlan(
            seed=9, crashes=(NodeCrash("a", F(7, 3)), NodeCrash(3, F(1))),
            rejoins=(NodeRejoin("a", F(9)),), failover=RootFailover(F(20)),
            drop=F(1, 10), duplicate=F(1, 20), corrupt=F(1, 7),
            links=(LinkFaults("b", drop=F(2, 5)),
                   LinkFaults("c", corrupt=F(1, 5), duplicate=F(1, 9))),
            degradations=(LinkDegradation("a", F(3, 2), F(1), F(4)),),
            corruptions=(Corruption("b", F(1, 3)),
                         Corruption("a", F(1, 3), F(1), F(5))),
            task_drop=F(1, 9), task_corrupt=F(1, 11),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_json("{}") == FaultPlan()
        # what a hand would write: a number is read as the digits written
        assert FaultPlan.from_json('{"drop": 0.1, "seed": 3}') == FaultPlan(
            seed=3, drop=F(1, 10))

    @pytest.mark.parametrize("text, named", [
        ("not json", "JSON"),
        ("[]", "plan"),
        ('{"drop": "1/0"}', "'drop'"),
        ('{"drop": "abc"}', "'drop'"),
        ('{"drop": true}', "'drop'"),
        ('{"drop": null}', "'drop'"),
        ('{"drop": "3/2"}', "probability"),
        ('{"seed": 1.5}', "'seed'"),
        ('{"seed": "x"}', "'seed'"),
        ('{"seed": true}', "'seed'"),
        ('{"task_dorp": "1/2"}', "'task_dorp'"),
        ('{"crashes": [{"node": "a"}]}', "'time'"),
        ('{"crashes": [{"time": "1"}]}', "'node'"),
        ('{"crashes": [{"node": ["a"], "time": "1"}]}', "'node'"),
        ('{"crashes": [{"node": true, "time": "1"}]}', "'node'"),
        ('{"crashes": {"node": "a", "time": "1"}}', "'crashes'"),
        ('{"crashes": [3]}', "crashes[0]"),
        ('{"links": [{"child": "a", "dorp": "1/2"}]}', "'dorp'"),
        ('{"failover": 3}', "failover"),
        ('{"failover": {"time": "1", "then": 2}}', "'then'"),
        ('{"corruptions": [{"child": "a", "rate": "1/2", "end": true}]}',
         "'end'"),
    ])
    def test_from_json_fails_closed_naming_the_key(self, text, named):
        """Each was an ``AttributeError`` / ``ZeroDivisionError`` /
        ``ValueError`` / ``KeyError`` / ``TypeError`` / ``JSONDecodeError``
        — or accepted: a misspelt key as a fault-free plan, ``true`` as
        probability 1, ``1.5`` as a seed."""
        with pytest.raises(FaultError) as refused:
            FaultPlan.from_json(text)
        assert named in str(refused.value)

    def test_random_plan_is_seeded(self):
        tree = paper_figure4_tree()
        a = random_plan(tree, seed=5, n_crashes=2, drop=F(1, 10))
        b = random_plan(tree, seed=5, n_crashes=2, drop=F(1, 10))
        assert a == b
        assert len(a.crashes) == 2
        assert all(c.node != tree.root for c in a.crashes)
        assert a != random_plan(tree, seed=6, n_crashes=2, drop=F(1, 10))

    def test_random_plan_too_many_crashes(self):
        with pytest.raises(FaultError):
            random_plan(two_level(), seed=1, n_crashes=10)


# ----------------------------------------------------------------------
# the lossy transport
# ----------------------------------------------------------------------
class TestFaultyNetwork:
    def collect(self, tree, plan, n_messages=200):
        """Push n proposals root→child and count what arrives."""
        network = FaultyNetwork(tree, plan)
        arrived = []
        network.register("a", arrived.append)
        network.register("root", lambda m: None)
        for _ in range(n_messages):
            network.send(Proposal(sender="root", receiver="a", beta=F(1)))
        network.run()
        return network, arrived

    def test_lossless_plan_changes_nothing(self):
        tree = two_level()
        network, arrived = self.collect(tree, FaultPlan(), 50)
        assert len(arrived) == 50
        assert network.dropped == network.duplicated == 0

    def test_drop_rate_materializes(self):
        tree = two_level()
        plan = FaultPlan(seed=1, drop=F(3, 10))
        network, arrived = self.collect(tree, plan, 400)
        assert network.dropped > 0
        assert len(arrived) == 400 - network.dropped
        # the realized rate is in the right ballpark for 400 draws
        assert F(60, 400) < F(network.dropped, 400) < F(180, 400)

    def test_duplicates_materialize(self):
        tree = two_level()
        plan = FaultPlan(seed=2, duplicate=F(3, 10))
        network, arrived = self.collect(tree, plan, 400)
        assert network.duplicated > 0
        assert len(arrived) == 400 + network.duplicated

    def test_fault_trace_is_deterministic(self):
        tree = two_level()
        plan = FaultPlan(seed=3, drop=F(1, 4), duplicate=F(1, 8))
        n1, a1 = self.collect(tree, plan, 300)
        n2, a2 = self.collect(tree, plan, 300)
        assert (n1.dropped, n1.duplicated) == (n2.dropped, n2.duplicated)
        assert len(a1) == len(a2)

    def test_dropped_messages_still_billed(self):
        tree = two_level()
        plan = FaultPlan(seed=1, drop=F(3, 10))
        network, _ = self.collect(tree, plan, 100)
        assert network.messages_sent == 100

    def test_virtual_parent_link_never_perturbed(self):
        tree = two_level()
        plan = FaultPlan(seed=1, drop=F(99, 100))
        network = FaultyNetwork(tree, plan)
        arrived = []
        network.register("root", arrived.append)
        network.register(VIRTUAL_PARENT, lambda m: None)
        for _ in range(50):
            network.send(
                Proposal(sender=VIRTUAL_PARENT, receiver="root", beta=F(1))
            )
        network.run()
        assert len(arrived) == 50
        assert network.dropped == 0

    def test_degradation_stretches_control_latency(self):
        tree = two_level()
        slow = FaultPlan(degradations=(
            LinkDegradation("a", F(10), F(0), F(100)),
        ))
        fast = Network(tree)
        slowed = FaultyNetwork(tree, slow)
        for net in (fast, slowed):
            net.register("a", lambda m: None)
            net.register("root", lambda m: None)
            net.send(Proposal(sender="root", receiver="a", beta=F(1)))
        assert slowed.engine.run_all() or True
        assert fast.engine.run_all() or True
        assert slowed.engine.now == 10 * fast.engine.now

    def test_time_offset_shifts_windows(self):
        tree = two_level()
        plan = FaultPlan(degradations=(
            LinkDegradation("a", F(10), F(50), F(100)),
        ))
        outside = FaultyNetwork(tree, plan)  # local time 0 ≠ window
        inside = FaultyNetwork(tree, plan, time_offset=F(50))
        for net in (outside, inside):
            net.register("a", lambda m: None)
            net.register("root", lambda m: None)
            net.send(Proposal(sender="root", receiver="a", beta=F(1)))
            net.run()
        assert inside.engine.now == 10 * outside.engine.now


# ----------------------------------------------------------------------
# simulator crash semantics
# ----------------------------------------------------------------------
def build_sim(tree, horizon):
    allocation = from_bw_first(bw_first(tree))
    periods = tree_periods(allocation)
    schedules = build_schedules(allocation, periods=periods)
    return Simulation(tree, dict(schedules), dict(periods), horizon=horizon)


class TestSimulatorCrashes:
    def test_root_cannot_fail(self):
        sim = build_sim(two_level(), horizon=F(10))
        with pytest.raises(SimulationError):
            sim.fail_node("root")

    def test_unknown_node_rejected(self):
        sim = build_sim(two_level(), horizon=F(10))
        with pytest.raises(SimulationError):
            sim.fail_node("ghost")

    def test_crash_destroys_buffered_tasks(self):
        tree = two_level()
        sim = build_sim(tree, horizon=F(40))
        sim.schedule_failure("a", F(20))
        result = sim.run()
        assert result.failed_at == {"a": F(20)}
        assert result.tasks_lost > 0
        # completions after the crash happen only on surviving nodes
        dead = {"a", "a1"}
        assert all(
            node not in dead
            for t, node in result.trace.completions
            if t > F(20) + tree.w("a")  # in-flight compute would be lost too
        )

    def test_crash_is_idempotent(self):
        sim = build_sim(two_level(), horizon=F(30))
        sim.schedule_failure("a", F(10))
        sim.schedule_failure("a", F(15))
        result = sim.run()
        assert result.failed_at == {"a": F(10)}

    def test_lossless_run_reports_no_faults(self):
        result = simulate(two_level(), horizon=F(30))
        assert result.tasks_lost == 0
        assert result.failed_at == {}

    def test_descendants_starve_but_do_not_die(self):
        tree = two_level()
        sim = build_sim(tree, horizon=F(60))
        sim.schedule_failure("a", F(12))
        result = sim.run()
        late = [n for t, n in result.trace.completions if t > F(30)]
        assert "a1" not in late  # starved behind its dead parent
        assert "b" in late or "root" in late  # the rest keeps working

    def test_apply_to_simulation_validates_first(self):
        sim = build_sim(two_level(), horizon=F(10))
        with pytest.raises(FaultError):
            apply_to_simulation(
                sim, FaultPlan(crashes=(NodeCrash("ghost", F(1)),))
            )

    def test_link_degradation_slows_task_transfers(self):
        tree = two_level()
        plan = FaultPlan(degradations=(
            # the window covers the whole run: every transfer to "a" is 4×
            LinkDegradation("a", F(4), F(0), F(1000)),
        ))
        nominal = simulate(tree, horizon=F(40))
        sim = build_sim(tree, horizon=F(40))
        apply_to_simulation(sim, plan)
        degraded = sim.run()
        # both runs drain their released supply eventually, but the
        # degraded one gets much less done inside the horizon
        assert (degraded.trace.completions_in(F(0), F(40))
                < nominal.trace.completions_in(F(0), F(40)))
        assert degraded.end_time > nominal.end_time

    def test_degradation_window_expires(self):
        tree = two_level()
        plan = FaultPlan(degradations=(
            LinkDegradation("a", F(4), F(0), F(10)),
        ))
        sim = build_sim(tree, horizon=F(200))
        apply_to_simulation(sim, plan)
        result = sim.run()
        # after the window the platform settles back to the optimum
        from repro.analysis.throughput import measured_rate
        optimum = bw_first(tree).throughput
        periods = tree_periods(from_bw_first(bw_first(tree)))
        from repro.schedule.periods import global_period
        t = global_period(periods)
        hi = F(200) - (F(200) % t)
        assert measured_rate(result.trace, hi - 2 * t, hi) == optimum


# ----------------------------------------------------------------------
# heartbeat detection
# ----------------------------------------------------------------------
class TestDetection:
    def test_analytic_detection_time(self):
        assert detection_time(F(5), F(2), F(1)) == 7  # beat at 6, +1
        assert detection_time(F(4), F(2), F(1)) == 5  # crash on the beat
        assert detection_time(F(0), F(2), F(1)) == 1
        with pytest.raises(FaultError):
            detection_time(F(1), F(0), F(1))

    @pytest.mark.parametrize("crash,interval,timeout", [
        (F(5), F(1), F(1, 2)),
        (F(5), F(2), F(1)),
        (F(6), F(2), F(1)),     # crash exactly on a beat
        (F(7, 3), F(3, 4), F(1, 8)),  # rational everything
    ])
    def test_live_detector_matches_analytic(self, crash, interval, timeout):
        tree = two_level()
        sim = build_sim(tree, horizon=F(40))
        sim.schedule_failure("a", crash)
        monitor = HeartbeatMonitor(sim, interval, timeout, until=F(40)).start()
        sim.run()
        assert monitor.detected == {
            "a": detection_time(crash, interval, timeout)
        }

    def test_no_crash_no_detection(self):
        sim = build_sim(two_level(), horizon=F(20))
        monitor = HeartbeatMonitor(sim, F(1), F(1), until=F(20)).start()
        sim.run()
        assert monitor.detected == {}
        assert monitor.heartbeats >= 20

    def test_stop_cancels_the_chain(self):
        sim = build_sim(two_level(), horizon=F(20))
        monitor = HeartbeatMonitor(sim, F(1), F(1), until=F(20)).start()
        sim.engine.schedule_at(F(5), monitor.stop)
        sim.schedule_failure("a", F(10))
        sim.run()
        assert monitor.detected == {}  # stopped before the crash
        assert monitor.heartbeats <= 6

    def test_parameter_validation(self):
        sim = build_sim(two_level(), horizon=F(10))
        with pytest.raises(FaultError):
            HeartbeatMonitor(sim, F(0), F(1))
        with pytest.raises(FaultError):
            HeartbeatMonitor(sim, F(1), F(-1))


# ----------------------------------------------------------------------
# the public prune API
# ----------------------------------------------------------------------
class TestWithoutSubtrees:
    def test_root_rejected(self):
        with pytest.raises(PlatformError):
            two_level().without_subtrees({"root"})

    def test_unknown_rejected(self):
        with pytest.raises(PlatformError):
            two_level().without_subtrees({"ghost"})

    def test_nested_names_are_fine(self):
        tree = two_level()
        assert (set(tree.without_subtrees({"a", "a1"}).nodes())
                == {"root", "b"})

    def test_preserves_costs_and_weights(self):
        tree = paper_figure4_tree()
        pruned = tree.without_subtrees({"P4"})
        for node in pruned.nodes():
            assert pruned.w(node) == tree.w(node)
            if pruned.parent(node) is not None:
                assert pruned.c(node) == tree.c(node)

    def test_original_untouched(self):
        tree = two_level()
        tree.without_subtrees({"a"})
        assert set(tree.nodes()) == {"root", "a", "b", "a1"}


# ----------------------------------------------------------------------
# xid-keyed fault decisions (the runtime's reordering guarantee)
# ----------------------------------------------------------------------
class TestLinkFaultDecider:
    """Fault decisions for numbered messages are addressed by ``xid`` and
    occurrence, not by send ordinal — so concurrency reordering the sends
    cannot change which messages die."""

    def messages(self):
        return [
            Proposal(sender="root", receiver="a", beta=F(1), xid=x)
            for x in (1, 2, 3, 4, 5)
        ]

    def judge(self, decider, message):
        return decider.judge("a", decider.coordinates(message))

    def test_reordering_does_not_change_verdicts(self):
        from repro.faults import LinkFaultDecider
        from repro.faults.inject import LOST

        plan = FaultPlan(seed=7, drop=F(1, 3), duplicate=F(1, 8))
        in_order = self.messages()
        shuffled = [in_order[i] for i in (3, 0, 4, 2, 1)]

        first = LinkFaultDecider(plan)
        verdicts_in_order = {m.xid: self.judge(first, m) for m in in_order}
        second = LinkFaultDecider(plan)
        verdicts_shuffled = {m.xid: self.judge(second, m) for m in shuffled}
        assert verdicts_in_order == verdicts_shuffled
        assert LOST in verdicts_in_order.values()

    def test_retransmissions_get_fresh_decisions(self):
        from repro.faults import LinkFaultDecider

        plan = FaultPlan(seed=0, drop=F(1, 2))
        decider = LinkFaultDecider(plan)
        message = Proposal(sender="root", receiver="a", beta=F(1), xid=9)
        verdicts = [self.judge(decider, message) for _ in range(20)]
        # occurrence advances per transmission: not all draws are equal
        assert len(set(verdicts)) > 1

    def test_unnumbered_messages_keep_the_legacy_ordinal_path(self):
        from repro.faults import LinkFaultDecider

        plan = FaultPlan(seed=3, drop=F(1, 2))
        decider = LinkFaultDecider(plan)
        message = Proposal(sender="root", receiver="a", beta=F(1))
        coordinates = [decider.coordinates(message) for _ in range(3)]
        assert coordinates == [
            ("root", "a", 0), ("root", "a", 1), ("root", "a", 2),
        ]

    def test_network_and_decider_agree(self):
        """FaultyNetwork's injected trace is exactly what a standalone
        decider predicts for the same plan and traffic."""
        from repro.faults import LinkFaultDecider

        tree = two_level()
        plan = FaultPlan(seed=11, drop=F(1, 4), duplicate=F(1, 10))
        network = FaultyNetwork(tree, plan)
        network.register("a", lambda m: None)
        network.register("root", lambda m: None)
        traffic = [
            Proposal(sender="root", receiver="a", beta=F(1), xid=x)
            for x in range(40)
        ]
        for message in traffic:
            network.send(message)
        network.run()

        decider = LinkFaultDecider(plan)
        verdicts = [self.judge(decider, message) for message in traffic]
        assert network.dropped == verdicts.count(0) > 0
        assert network.duplicated == verdicts.count(2) > 0

"""End-to-end tests of the self-healing supervisor (crash → heal → optimum)."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis.throughput import measured_rate
from repro.core.bwfirst import bw_first
from repro.exceptions import FaultError, ProtocolError
from repro.faults import (
    FaultPlan,
    LinkDegradation,
    NodeCrash,
    NodeRejoin,
    resilient_run,
)
from repro.platform.examples import paper_figure4_tree
from repro.platform.generators import random_tree
from repro.platform.tree import Tree

F = Fraction


def small_tree():
    t = Tree("root", w=2)
    t.add_node("a", 2, parent="root", c=F(1, 2))
    t.add_node("b", 3, parent="root", c=1)
    t.add_node("a1", 2, parent="a", c=1)
    t.add_node("b1", 3, parent="b", c=1)
    return t


def crash_plan(*crashes, **kwargs):
    return FaultPlan(
        crashes=tuple(NodeCrash(n, t) for n, t in crashes), **kwargs
    )


class TestResilientRun:
    def test_recovers_exactly_to_pruned_optimum(self):
        tree = small_tree()
        report = resilient_run(tree, crash_plan(("a", F(5)), seed=1))
        assert report.new_optimum == bw_first(
            tree.without_subtrees({"a"})).throughput
        assert report.rate_after == report.new_optimum  # exact, not approx
        assert report.recovery == 1

    def test_acceptance_scenario(self):
        """The ISSUE acceptance bar: crash a *visited* node mid-steady-state
        with 10% control drops; resilient_run ends at exactly the pruned
        bw_first optimum, with a full recovery report."""
        tree = paper_figure4_tree()
        assert "P4" in run_protocol_visited(tree)  # P4 takes part
        plan = crash_plan(("P4", F(6)), seed=23, drop=F(1, 10))
        report = resilient_run(tree, plan)
        pruned = tree.without_subtrees({"P4"})
        assert report.rate_after == bw_first(pruned).throughput
        assert report.tasks_lost > 0
        assert report.heartbeats > 0
        assert report.renegotiation_messages > 0
        assert report.renegotiation_bytes > 0
        assert report.t_first_crash == 6
        assert report.t_detect < report.t_switched
        assert report.timeline  # the throughput story is recorded
        assert set(report.survivors.nodes()) == set(pruned.nodes())

    def test_throughput_dips_then_heals(self):
        tree = small_tree()
        report = resilient_run(tree, crash_plan(("a", F(8)), seed=2))
        assert report.rate_before is not None
        assert report.rate_during < report.old_optimum
        assert report.rate_after == report.new_optimum

    def test_multiple_crashes(self):
        tree = paper_figure4_tree()
        plan = crash_plan(("P4", F(4)), ("P3", F(7)), seed=3)
        report = resilient_run(tree, plan)
        expected = bw_first(tree.without_subtrees({"P4", "P3"})).throughput
        assert report.rate_after == expected
        assert set(report.detected_at) == {"P4", "P3"}
        assert all(report.detected_at[n] > t
                   for n, t in [("P4", F(4)), ("P3", F(7))])

    def test_crash_of_unvisited_node_keeps_old_optimum(self):
        tree = paper_figure4_tree()
        # P5 consumes nothing in the full-tree negotiation
        report = resilient_run(tree, crash_plan(("P5", F(5)), seed=4))
        assert report.new_optimum == report.old_optimum
        assert report.rate_after == report.old_optimum

    def test_same_seed_reproduces_identical_run(self):
        tree = small_tree()
        plan = crash_plan(("a", F(5)), seed=11,
                          drop=F(2, 10), duplicate=F(1, 10))
        a = resilient_run(tree, plan)
        b = resilient_run(small_tree(), plan)
        assert a.timeline == b.timeline
        assert a.detected_at == b.detected_at
        assert (a.tasks_lost, a.retransmissions, a.dropped, a.duplicated) == (
            b.tasks_lost, b.retransmissions, b.dropped, b.duplicated)
        assert (list(a.result.trace.completions)
                == list(b.result.trace.completions))

    def test_lossy_control_plane_survived(self):
        tree = paper_figure4_tree()
        plan = crash_plan(("P4", F(6)), seed=13,
                          drop=F(3, 10), duplicate=F(1, 10))
        report = resilient_run(tree, plan)
        assert report.dropped > 0  # faults really happened
        assert report.rate_after == report.new_optimum  # and were healed

    def test_degradation_window_during_run(self):
        tree = small_tree()
        plan = FaultPlan(
            seed=14,
            crashes=(NodeCrash("a", F(6)),),
            degradations=(LinkDegradation("b", F(3), F(2), F(5)),),
        )
        report = resilient_run(tree, plan)
        assert report.rate_after == report.new_optimum

    def test_empty_plan_rejected(self):
        with pytest.raises(FaultError):
            resilient_run(small_tree(), FaultPlan())

    def test_root_crash_rejected(self):
        with pytest.raises(FaultError):
            resilient_run(small_tree(), crash_plan(("root", F(1))))

    def test_detection_parameters_shift_timing_not_outcome(self):
        tree = small_tree()
        plan = crash_plan(("a", F(5)), seed=15)
        fast = resilient_run(tree, plan, heartbeat_interval=F(1, 2),
                             detection_timeout=F(1, 4))
        slow = resilient_run(tree, plan, heartbeat_interval=F(2),
                             detection_timeout=F(1))
        assert fast.t_detect < slow.t_detect
        assert fast.rate_after == slow.rate_after == fast.new_optimum

    def test_tasks_lost_matches_simulation(self):
        tree = small_tree()
        report = resilient_run(tree, crash_plan(("a", F(5)), seed=16))
        assert report.tasks_lost == report.result.tasks_lost

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        tree_seed=st.integers(min_value=0, max_value=2**16),
        plan_seed=st.integers(min_value=0, max_value=2**16),
        drop=st.fractions(min_value=0, max_value=F(25, 100)),
    )
    # the victim is internal and a slow orphan finishes a task it had
    # buffered under the old schedule inside the after-window
    @example(tree_seed=277, plan_seed=0, drop=F(0))
    @example(tree_seed=63, plan_seed=0, drop=F(0))
    # the retry budget runs out against a live child: P0 → P1 went
    # unacknowledged through all 9 transmissions (see protocol/retry.py)
    @example(tree_seed=14981, plan_seed=185, drop=F(1, 4))
    def test_random_crash_always_heals_exactly(self, tree_seed, plan_seed,
                                               drop):
        """Either the exact optimum, or — when the finite retry budget gave
        a live child up — a check that fails closed and says so."""
        tree = random_tree(8, seed=tree_seed)
        candidates = [n for n in tree.nodes() if n != tree.root]
        if not candidates:
            return
        victim = candidates[plan_seed % len(candidates)]
        pruned = tree.without_subtrees({victim})
        expected = bw_first(pruned).throughput
        # Exact measurement runs whole global periods of the pruned tree.
        # Global periods are LCMs, so adversarial rational rates can make
        # one period carry ~10^5 tasks (millions of events); skip those
        # computationally infeasible draws rather than time out on them.
        from repro.core.allocation import from_bw_first
        from repro.schedule.periods import global_period, tree_periods

        period = global_period(tree_periods(from_bw_first(bw_first(pruned))))
        # the horizon is ~8 periods: bound the task events (period × rate)
        # and the heartbeat events (period / interval) it will generate
        assume(period <= 2_000 and period * expected <= 3_000)
        plan = crash_plan((victim, F(5)), seed=plan_seed, drop=drop)
        try:
            report = resilient_run(tree, plan)
        except ProtocolError as exc:
            assert "closed by timeout" in str(exc), exc
        else:
            assert report.rate_after == expected


class TestSurvivorsOnlyRates:
    def test_an_orphans_late_completion_is_not_the_platforms_rate(self):
        """``random_tree(8, 277)``: P1 (internal) dies at 5 and is pruned
        at 11/2, leaving P0 alone (optimum 1, period 1).  Its child P3
        (w = 5) stays alive and, at 99/10, finishes a task it had buffered
        under the old schedule — inside the after-window (15/2, 27/2],
        which is sized in the *new* period."""
        tree = random_tree(8, seed=277)
        report = resilient_run(tree, crash_plan(("P1", F(5)), seed=0))
        trace, stop = report.result.trace, report.result.stop_time
        assert (report.t_switched, stop) == (F(11, 2), F(27, 2))
        assert list(report.survivors.nodes()) == ["P0"]
        late = [(t, n) for t, n in trace.completions
                if t > report.t_switched and n != "P0"]
        assert late == [(F(99, 10), "P3")]
        assert measured_rate(trace, stop - 6, stop) == F(7, 6)  # all nodes
        assert report.rate_after == report.new_optimum == 1     # platform's
        # before the cut P3 was on the platform: its work counts there
        before = trace.completions_in(0, 5)
        assert before > trace.completions_in(0, 5, "P0")
        assert report.rate_before == F(before, 5)

    def test_windows_before_the_cut_count_everybody(self):
        """The same run, window by window (width 1/2): a completion by a
        node that is cut later is subtracted only from the windows after
        its cut, so up to the prune the timeline is the plain trace's."""
        tree = random_tree(8, seed=277)
        report = resilient_run(tree, crash_plan(("P1", F(5)), seed=0),
                               window=F(1, 2))
        trace = report.result.trace
        differs = []
        for start, rate in report.timeline:
            plain = measured_rate(trace, start, start + F(1, 2))
            if start + F(1, 2) <= report.t_switched:
                assert rate == plain, start
            else:
                assert rate == 2 * trace.completions_in(
                    start, start + F(1, 2), "P0"), start
            if rate != plain:
                differs.append(start)
        assert differs == [F(19, 2)]       # (19/2, 10] holds P3's straggler


    def test_a_rejoined_orphan_counts_again(self):
        """``a`` dies with its child ``a1`` alive under it and returns at
        8: from the graft on, ``a1`` is on the platform again, so the
        settled rate is the full tree's optimum — its completions
        included."""
        tree = small_tree()
        plan = FaultPlan(crashes=(NodeCrash("a", F(5)),),
                         rejoins=(NodeRejoin("a", F(8)),), seed=5)
        report = resilient_run(tree, plan)
        assert [epoch.kind for epoch in report.epochs] == ["prune", "rejoin"]
        stop = report.result.stop_time
        assert report.result.trace.completions_in(
            report.t_switched, stop, "a1") > 0
        assert report.rate_after == report.new_optimum == report.old_optimum


def run_protocol_visited(tree):
    from repro.protocol import run_protocol

    return run_protocol(tree).visited

"""Unit tests for Lemma 1 / equation sets (2)–(4) (asynchronous periods)."""

from dataclasses import fields
from fractions import Fraction

import pytest

from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.exceptions import ScheduleError
from repro.platform.generators import random_tree
from repro.schedule.periods import (
    NodePeriods,
    global_period,
    node_periods,
    startup_bound,
    tree_periods,
)

F = Fraction


@pytest.fixture
def paper_periods(paper_tree):
    allocation = from_bw_first(bw_first(paper_tree))
    return paper_tree, allocation, tree_periods(allocation)


class TestLemma1OnPaperTree:
    def test_root_send_period(self, paper_periods):
        _, _, periods = paper_periods
        # η: P1 11/18, P2 1/9, P3 1/18 → lcm(18, 9, 18) = 18
        assert periods["P0"].t_send == 18

    def test_root_compute_period(self, paper_periods):
        _, _, periods = paper_periods
        assert periods["P0"].t_compute == 3  # α = 1/3

    def test_root_has_no_receive_period(self, paper_periods):
        _, _, periods = paper_periods
        assert periods["P0"].t_receive is None
        assert periods["P0"].phi_in is None

    def test_receive_period_is_parent_send_period(self, paper_periods):
        tree, _, periods = paper_periods
        for node in tree.nodes():
            parent = tree.parent(node)
            if parent is not None:
                assert periods[node].t_receive == periods[parent].t_send

    def test_phi_counts(self, paper_periods):
        _, _, periods = paper_periods
        p0 = periods["P0"]
        assert p0.phi_children == {"P1": 11, "P2": 2, "P3": 1}
        assert p0.rho == 1  # 1/3 × 3

    def test_chi_conservation(self, paper_periods):
        tree, _, periods = paper_periods
        for node in tree.nodes():
            p = periods[node]
            consumed = p.chi_compute + sum(p.chi_children.values())
            if node == tree.root:
                assert p.chi_in == 0
            else:
                assert p.chi_in == consumed

    def test_psi_quantities(self, paper_periods):
        _, _, periods = paper_periods
        p4 = periods["P4"]
        # T^w = lcm(T^c=9, T^s=6) = 18; ψ_self = 2, ψ_P8 = 3
        assert p4.t_consume == 18
        assert p4.psi_self == 2
        assert p4.psi_children["P8"] == 3
        assert p4.bunch == 5

    def test_integer_task_counts(self, paper_periods):
        _, _, periods = paper_periods
        for p in periods.values():
            assert isinstance(p.rho, int)
            assert all(isinstance(v, int) for v in p.phi_children.values())
            assert all(isinstance(v, int) for v in p.psi_children.values())

    def test_global_period(self, paper_periods):
        _, _, periods = paper_periods
        assert global_period(periods) == 36

    def test_inactive_nodes_have_trivial_periods(self, paper_periods):
        _, _, periods = paper_periods
        p5 = periods["P5"]
        assert p5.t_send == 1
        assert p5.t_compute == 1
        assert p5.bunch == 0


class TestStartupBound:
    def test_root_is_zero(self, paper_periods):
        tree, _, periods = paper_periods
        assert startup_bound(periods, tree, "P0") == 0

    def test_depth_one(self, paper_periods):
        tree, _, periods = paper_periods
        assert startup_bound(periods, tree, "P1") == 18

    def test_accumulates_down_the_tree(self, paper_periods):
        tree, _, periods = paper_periods
        # P8's ancestors: P4 (T^s=6), P1 (T^s=18), P0 (T^s=18)
        assert startup_bound(periods, tree, "P8") == 6 + 18 + 18


class TestNodePeriodsAPI:
    def test_non_root_needs_parent_period(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        from repro.exceptions import ScheduleError

        with pytest.raises(ScheduleError):
            node_periods(allocation, "P1", parent_send_period=None)

    def test_root_refuses_a_parent_period(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        with pytest.raises(ScheduleError, match="'P0'"):
            node_periods(allocation, "P0", parent_send_period=7)

    def test_non_root_refuses_a_zero_parent_period(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        with pytest.raises(ScheduleError, match="'P1'"):
            node_periods(allocation, "P1", parent_send_period=0)

    def test_non_root_refuses_a_negative_parent_period(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        with pytest.raises(ScheduleError, match="'P1'"):
            node_periods(allocation, "P1", parent_send_period=-4)

    def test_non_root_refuses_a_fractional_parent_period(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        with pytest.raises(ScheduleError, match="'P1'"):
            node_periods(allocation, "P1", parent_send_period=F(3, 2))

    def test_non_root_refuses_a_float_parent_period(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        with pytest.raises(ScheduleError, match="'P1'"):
            node_periods(allocation, "P1", parent_send_period=2.0)

    def test_non_root_refuses_a_bool_parent_period(self, paper_tree):
        # True == 1 would pass an int test; T^s is a count, not a flag
        allocation = from_bw_first(bw_first(paper_tree))
        with pytest.raises(ScheduleError, match="'P1'"):
            node_periods(allocation, "P1", parent_send_period=True)

    def test_an_idle_node_refuses_a_bad_parent_period(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        assert not tree_periods(allocation)["P5"].bunch
        with pytest.raises(ScheduleError, match="'P5'"):
            node_periods(allocation, "P5", parent_send_period=0)

    def test_minimality_of_send_period(self, paper_periods):
        # no smaller period yields integer counts for every child
        _, allocation, periods = paper_periods
        p0 = periods["P0"]
        for shorter in range(1, p0.t_send):
            etas = [allocation.eta_out[("P0", ch)] for ch in ("P1", "P2", "P3")]
            if all((e * shorter).denominator == 1 for e in etas):
                pytest.fail(f"period {shorter} < {p0.t_send} also works")


class TestRecords:
    """``tree_periods`` fills each record's instance dict instead of going
    through the frozen constructor: every record must be the one the
    class's own constructor makes from the same fields."""

    def test_records_equal_the_constructors(self):
        tree = random_tree(30, 0)
        result = bw_first(tree)
        kinds = set()
        for node, record in tree_periods(from_bw_first(result)).items():
            built = NodePeriods(**{field.name: getattr(record, field.name)
                                   for field in fields(NodePeriods)})
            assert type(record) is NodePeriods
            assert list(vars(record).items()) == list(vars(built).items())
            kinds.add((node in result.outcomes, bool(tree.children(node))))
        # visited and idle, inner and leaf
        assert kinds == {(True, True), (True, False), (False, True),
                         (False, False)}

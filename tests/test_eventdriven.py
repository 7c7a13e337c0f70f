"""Unit tests for the event-driven schedule construction (Section 6.2)."""

import pytest

from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.exceptions import ScheduleError
from repro.platform.tree import Tree
from repro.schedule.eventdriven import (
    NodeSchedule,
    build_schedules,
    bunch_schedule,
    describe_schedules,
)
from repro.schedule.local import block_order
from repro.schedule.periods import tree_periods


@pytest.fixture
def paper_schedules(paper_tree):
    allocation = from_bw_first(bw_first(paper_tree))
    return build_schedules(allocation)


class TestBuildSchedules:
    def test_only_active_nodes(self, paper_schedules):
        assert set(paper_schedules) == {"P0", "P1", "P2", "P3", "P4", "P6", "P7", "P8"}

    def test_bunch_sizes(self, paper_schedules):
        assert paper_schedules["P0"].bunch == 20  # ψ: 6 self + 11 + 2 + 1
        assert paper_schedules["P4"].bunch == 5
        assert paper_schedules["P8"].bunch == 1

    def test_order_quantities_match(self, paper_schedules):
        for schedule in paper_schedules.values():
            for dest, count in schedule.quantities.items():
                assert schedule.order.count(dest) == count

    def test_self_first_in_priority(self, paper_schedules):
        # P4's bunch interleaves itself (ψ=2) with P8 (ψ=3): P8 first by ψ tie rules
        assert paper_schedules["P4"].order == ("P8", "P4", "P8", "P4", "P8")

    def test_destination_wraps(self, paper_schedules):
        s = paper_schedules["P4"]
        assert s.destination(0) == "P8"
        assert s.destination(5) == "P8"  # 5 mod 5 == 0
        assert s.destination(8) == s.order[3]

    def test_leaf_schedule_is_all_self(self, paper_schedules):
        assert paper_schedules["P8"].order == ("P8",)

    def test_switch_never_computes(self):
        t = Tree("sw")
        t.add_node("w", w=1, parent="sw", c=1)
        allocation = from_bw_first(bw_first(t))
        schedules = build_schedules(allocation)
        assert "sw" not in schedules["sw"].order
        assert schedules["sw"].order == ("w",)

    def test_alternate_policy(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        schedules = build_schedules(allocation, policy=block_order)
        s = schedules["P4"]
        assert s.order == ("P4", "P4", "P8", "P8", "P8")

    def test_broken_policy_caught(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))

        def bad_policy(quantities, priority):
            return ("oops",)

        with pytest.raises(ScheduleError):
            build_schedules(allocation, policy=bad_policy)

    def test_wrong_counts_policy_caught(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))

        def swapped(quantities, priority):
            order = []
            dests = list(quantities)
            total = sum(quantities.values())
            for i in range(total):
                order.append(dests[i % len(dests)])
            return tuple(order)

        with pytest.raises(ScheduleError):
            build_schedules(allocation, policy=swapped)


class TestBunchScheduleFailsClosed:
    def test_a_stranger_destination_is_refused(self):
        # P2 is not among the children: its 3 tasks of the bunch of 6
        # would vanish from a 3-task order
        with pytest.raises(ScheduleError, match="'P2'"):
            bunch_schedule("P0", 1, {"P1": 2, "P2": 3}, ["P1"])

    def test_a_stranger_with_zero_tasks_is_refused(self):
        with pytest.raises(ScheduleError, match="'P9'"):
            bunch_schedule("P0", 1, {"P1": 2, "P9": 0}, ["P1"])

    def test_a_negative_child_count_is_refused(self):
        with pytest.raises(ScheduleError, match="'P1'"):
            bunch_schedule("P0", 1, {"P1": -2, "P2": 3}, ["P1", "P2"])

    def test_a_negative_own_count_is_refused(self):
        with pytest.raises(ScheduleError, match="'P0'"):
            bunch_schedule("P0", -1, {"P1": 2}, ["P1"])

    def test_children_without_a_count_keep_nothing(self):
        schedule = bunch_schedule("P0", 1, {"P1": 2}, ["P1", "P2"])
        assert schedule.quantities == {"P0": 1, "P1": 2}


class TestNodeSchedule:
    def test_describe(self, paper_schedules):
        assert paper_schedules["P8"].describe() == "P8: [P8]"

    def test_describe_all(self, paper_schedules):
        text = describe_schedules(paper_schedules)
        assert "P4: [P8 P4 P8 P4 P8]" in text

    def test_empty_schedule_destination_raises(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        periods = tree_periods(allocation)
        empty = NodeSchedule(node="x", quantities={}, order=(),
                             periods=periods["P5"])
        with pytest.raises(ScheduleError):
            empty.destination(0)

"""Tests for the makespan heuristic and the infinite-tree extension."""

import sys
from fractions import Fraction

import pytest

from repro.core.bwfirst import bw_first
from repro.core.rates import INFINITY
from repro.exceptions import PlatformError, ScheduleError
from repro.extensions.infinite import (
    InfiniteTreeSpec,
    geometric_chain,
    infinite_throughput,
    truncate,
    uniform_binary,
)
from repro.extensions.makespan import (
    makespan_lower_bound,
    makespan_report,
    steady_state_makespan,
)
from repro.platform.tree import Tree

F = Fraction


class TestMakespan:
    def test_lower_bound(self, paper_tree):
        assert makespan_lower_bound(paper_tree, 100) == 100 / F(10, 9)

    def test_bound_rejects_negative(self, paper_tree):
        with pytest.raises(ScheduleError):
            makespan_lower_bound(paper_tree, -1)

    def test_bound_rejects_powerless_platform(self):
        with pytest.raises(ScheduleError):
            makespan_lower_bound(Tree("sw"), 10)

    def test_makespan_above_bound(self, paper_tree):
        report = makespan_report(paper_tree, 60)
        assert report.makespan >= report.lower_bound
        assert report.completed == 60

    def test_ratio_improves_with_scale(self, paper_tree):
        small = makespan_report(paper_tree, 40)
        large = makespan_report(paper_tree, 400)
        assert large.ratio < small.ratio

    def test_large_n_is_near_optimal(self, paper_tree):
        report = makespan_report(paper_tree, 800)
        assert report.ratio < F(11, 10)  # within 10% of the bound

    def test_needs_positive_supply(self, paper_tree):
        with pytest.raises(ScheduleError):
            steady_state_makespan(paper_tree, 0)


class TestInfinite:
    def test_binary_saturates_immediately(self):
        result = infinite_throughput(uniform_binary(w=1, c=2))
        assert result.lower == result.upper == F(3, 2)
        assert result.visited == 2

    def test_geometric_chain_brackets(self):
        result = infinite_throughput(geometric_chain(), tol=F(1, 10**6))
        assert result.upper - result.lower <= F(1, 10**5)
        assert result.lower > 0

    def test_deep_binary_terminates_without_cuts(self):
        # w=4, c=1: each level absorbs 1/4, so the first-child chain soaks up
        # the whole proposal after four levels — no cut-off needed
        result = infinite_throughput(uniform_binary(w=4, c=1), tol=F(1, 1000))
        assert result.cut == 0
        assert result.lower == result.upper == F(5, 4)
        assert result.visited == 5

    def test_switch_fan_needs_cutoff(self):
        # an infinite binary tree of pure switches with geometrically growing
        # link costs: δ never shrinks (switches compute nothing) but the
        # proposals halve with depth, so only the cut-off terminates the walk
        from repro.core.rates import INFINITY

        def children(node):
            depth = node.count(".")
            cost = 2 ** depth
            return [(f"{node}.0", INFINITY, cost), (f"{node}.1", INFINITY, cost)]

        spec = InfiniteTreeSpec(root="R", root_w=2, children=children)
        result = infinite_throughput(spec, tol=F(1, 100))
        assert result.cut > 0
        # pessimistically only the root computes
        assert result.lower == F(1, 2)
        assert result.upper >= result.lower
        assert result.width <= result.cut * F(1, 100)

    def test_bounds_bracket_truncations(self):
        spec = uniform_binary(w=4, c=1)
        inf = infinite_throughput(spec, tol=F(1, 10000))
        # every finite truncation is a sub-platform: its throughput is ≤ upper
        for depth in (1, 3, 5):
            finite = bw_first(truncate(spec, depth)).throughput
            assert finite <= inf.upper

    def test_truncations_converge_to_bracket(self):
        spec = uniform_binary(w=4, c=1)
        inf = infinite_throughput(spec, tol=F(1, 10**6))
        deep = bw_first(truncate(spec, 10)).throughput
        assert inf.lower - F(1, 1000) <= deep <= inf.upper

    def test_truncate_depth_zero(self):
        spec = uniform_binary(w=2, c=1)
        t = truncate(spec, 0)
        assert len(t) == 1
        assert bw_first(t).throughput == F(1, 2)

    def test_truncate_negative_rejected(self):
        with pytest.raises(ScheduleError):
            truncate(uniform_binary(), -1)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ScheduleError):
            infinite_throughput(uniform_binary(), tol=F(0))

    def test_node_budget_enforced(self):
        # an extremely absorbent platform with a tiny tolerance blows the cap
        spec = uniform_binary(w=100, c=F(1, 100))
        with pytest.raises(ScheduleError):
            infinite_throughput(spec, tol=F(1, 10**30), max_nodes=50)

    @pytest.mark.parametrize("w, c", [(1, -1), (1, 0), (1, "x"), (0, 1),
                                      (-2, 1), ("y", 1)])
    def test_children_are_validated_like_tree_nodes(self, w, c):
        """A child's ``w`` and ``c`` are read as ``Tree.add_node`` reads
        them: a cost of 0, -1 or "x" (or a bad weight) is a typed error,
        not a silent ``[0, 0]`` bracket or a bare ``ZeroDivisionError``."""
        def children(node):
            return [(f"{node}.0", w, c)] if node == "R" else []

        with pytest.raises(PlatformError):
            Tree("R", 1).add_node("R.0", w, parent="R", c=c)
        with pytest.raises(PlatformError):
            infinite_throughput(InfiniteTreeSpec("R", 1, children))

    def test_a_deep_chain_leaves_the_recursion_limit_alone(self):
        """A chain of switches never spends δ: the walk expands it until it
        hits ``max_nodes`` — far deeper than Python's recursion limit —
        without a frame per node and without touching the limit."""
        def children(node):
            return [(node + 1, INFINITY, 1)]

        spec = InfiniteTreeSpec(root=0, root_w=1, children=children)
        limit = sys.getrecursionlimit()
        with pytest.raises(ScheduleError, match="expanded more than"):
            infinite_throughput(spec, max_nodes=3 * limit)
        assert sys.getrecursionlimit() == limit

    def test_a_chain_deeper_than_the_recursion_limit_is_walked(self):
        depth = 2 * sys.getrecursionlimit()

        def children(node):
            return [(node + 1, INFINITY if node + 1 < depth else 2, 1)] \
                if node < depth else []

        result = infinite_throughput(InfiniteTreeSpec(0, 1, children))
        assert result.visited == depth + 1 and result.cut == 0
        assert result.lower == result.upper == F(3, 2)

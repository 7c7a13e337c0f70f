"""Tests for the Section 9 result-return model and counterexample."""

from fractions import Fraction

import pytest

from repro.analysis import measured_rate
from repro.exceptions import PlatformError
from repro.extensions.result_return import (
    ReturnPlatform,
    merged_model_throughput,
    return_lp_throughput,
    section9_counterexample,
    uniform_return_platform,
)
from repro.extensions.return_sim import simulate_with_returns
from repro.platform.examples import section9_platform
from repro.platform.generators import fork
from repro.platform.tree import Tree

F = Fraction


class TestCounterexample:
    def test_headline_numbers(self):
        """The paper's claim: separate ports give 2, the merged model gives 1."""
        report = section9_counterexample()
        assert report.separate_ports == 2
        assert report.merged_model == 1
        assert report.understatement == 2

    def test_execution_confirms_rate_two(self):
        platform = uniform_return_platform(section9_platform())
        result = simulate_with_returns(platform, horizon=60)
        assert measured_rate(result.trace, 30, 60) == 2


class TestReturnPlatform:
    def test_uniform_costs(self, sec9_tree):
        platform = uniform_return_platform(sec9_tree, ratio=2)
        assert platform.d("A") == 1  # c = 1/2, ratio 2

    def test_missing_cost_rejected(self, sec9_tree):
        platform = ReturnPlatform(tree=sec9_tree, return_cost={})
        with pytest.raises(PlatformError):
            platform.d("A")

    def test_merged_tree(self, sec9_tree):
        platform = uniform_return_platform(sec9_tree)
        merged = platform.merged_tree()
        assert merged.c("A") == 1  # 1/2 + 1/2


class TestReturnLP:
    def test_zero_ish_return_cost_approaches_plain_model(self, paper_tree):
        from repro.core.lp import lp_throughput_exact

        platform = uniform_return_platform(paper_tree, ratio=F(1, 10**6))
        with_returns = return_lp_throughput(platform)
        plain = lp_throughput_exact(paper_tree)
        assert plain >= with_returns >= plain * F(9, 10)

    def test_returns_reduce_throughput(self, paper_tree):
        from repro.core.lp import lp_throughput_exact

        platform = uniform_return_platform(paper_tree, ratio=1)
        assert return_lp_throughput(platform) < lp_throughput_exact(paper_tree)

    def test_monotone_in_return_cost(self, sec9_tree):
        cheap = return_lp_throughput(uniform_return_platform(sec9_tree, ratio=F(1, 2)))
        dear = return_lp_throughput(uniform_return_platform(sec9_tree, ratio=2))
        assert cheap >= dear

    def test_separate_never_worse_than_merged(self):
        # merging can only over-constrain: it serialises what the two ports
        # could do in parallel
        for seed, weights, costs in [
            (0, [1, 2], [1, 1]),
            (1, [1, 1, 1], ["1/2", 1, 2]),
            (2, [3, "1/2"], ["1/3", "1/4"]),
        ]:
            t = fork(weights=weights, costs=costs, root_w="inf")
            platform = uniform_return_platform(t, ratio=1)
            assert return_lp_throughput(platform) >= merged_model_throughput(platform)


class TestForkSimulator:
    """The general two-port executor on forks: the evidence the deleted
    fork-only simulator used to carry."""

    def test_compute_limited_platform(self):
        # slow children: the ports are not the bottleneck
        t = Tree("m")
        t.add_node("a", w=4, parent="m", c=F(1, 4))
        t.add_node("b", w=4, parent="m", c=F(1, 4))
        platform = uniform_return_platform(t, ratio=1)
        result = simulate_with_returns(platform, horizon=100)
        assert measured_rate(result.trace, 60, 100) == F(1, 2)

    def test_rate_never_exceeds_lp(self):
        t = Tree("m")
        t.add_node("a", w=1, parent="m", c=F(1, 3))
        t.add_node("b", w=2, parent="m", c=F(1, 2))
        platform = uniform_return_platform(t, ratio=1)
        lp = return_lp_throughput(platform)
        result = simulate_with_returns(platform, horizon=120)
        assert measured_rate(result.trace, 60, 120) <= lp

    def test_reaches_the_lp_on_a_three_child_fork(self):
        # the fork-only simulator reached 17/20 here
        t = fork(weights=[1, 1, 1], costs=["1/2", 1, 2], root_w="inf")
        platform = uniform_return_platform(t, ratio=1)
        assert return_lp_throughput(platform) == F(3, 2)
        for patient in (True, False):
            result = simulate_with_returns(platform, horizon=120,
                                           patient=patient)
            assert measured_rate(result.trace, 60, 120) == F(3, 2)

"""Tests for the general-tree result-return simulator."""

from fractions import Fraction

import pytest

from repro.analysis import measured_rate
from repro.exceptions import SimulationError
from repro.extensions.result_return import (
    return_lp_throughput,
    uniform_return_platform,
)
from repro.extensions.return_sim import simulate_with_returns
from repro.platform.examples import paper_figure4_tree, section9_platform
from repro.platform.generators import chain, fork
from repro.platform.tree import Tree
from repro.sim.tracing import RECV, SEND

F = Fraction


class TestSection9:
    def test_achieves_lp_optimum(self):
        platform = uniform_return_platform(section9_platform())
        result = simulate_with_returns(platform, horizon=60)
        assert measured_rate(result.trace, 30, 60) == 2


class TestGeneralTrees:
    def test_never_exceeds_lp(self, paper_tree):
        platform = uniform_return_platform(paper_tree, ratio=1)
        lp = return_lp_throughput(platform)
        for patient in (True, False):
            result = simulate_with_returns(platform, horizon=400,
                                           patient=patient)
            assert measured_rate(result.trace, 200, 400) <= lp

    def test_best_policy_reaches_most_of_lp(self, paper_tree):
        """Neither policy dominates, but the better one gets ≥ 80% of LP."""
        platform = uniform_return_platform(paper_tree, ratio=1)
        lp = return_lp_throughput(platform)
        best = max(
            measured_rate(
                simulate_with_returns(platform, horizon=400,
                                      patient=patient).trace, 200, 400)
            for patient in (True, False)
        )
        assert best >= lp * F(8, 10)

    def test_patient_wins_with_tiny_results(self, paper_tree):
        """With near-zero return costs, diverting the port to slow links on
        every receive-port collision is a pure loss — patience wins."""
        platform = uniform_return_platform(paper_tree, ratio=F(1, 100))
        rates = {}
        for patient in (True, False):
            result = simulate_with_returns(platform, horizon=360,
                                           patient=patient)
            rates[patient] = measured_rate(result.trace, 180, 360)
        assert rates[True] > rates[False]

    def test_deep_chain_relays_results(self):
        tree = chain(3, w=2, c=F(1, 2), root_w="inf")
        platform = uniform_return_platform(tree, ratio=1)
        result = simulate_with_returns(platform, supply=30)
        assert result.completed == 30

    def test_conservation_on_supply(self, paper_tree):
        platform = uniform_return_platform(paper_tree, ratio=1)
        result = simulate_with_returns(platform, supply=50)
        assert result.completed == result.released == 50

    def test_wind_down_finite(self, paper_tree):
        platform = uniform_return_platform(paper_tree, ratio=1)
        result = simulate_with_returns(platform, horizon=100)
        assert result.wind_down is not None
        assert result.completed == result.released


class TestPortDiscipline:
    def test_no_overlapping_port_usage(self):
        tree = fork(weights=[1, 2, 3], costs=[F(1, 2), 1, 2], root_w=2)
        platform = uniform_return_platform(tree, ratio=1)
        result = simulate_with_returns(platform, horizon=80)
        for kind in (SEND, RECV):
            by_node = {}
            for seg in result.trace.segments:
                if seg.kind == kind:
                    by_node.setdefault(seg.node, []).append(seg)
            for node, segments in by_node.items():
                segments.sort(key=lambda s: s.start)
                for a, b in zip(segments, segments[1:]):
                    assert a.end <= b.start, (node, kind, a, b)

    def test_validation(self):
        platform = uniform_return_platform(section9_platform())
        with pytest.raises(SimulationError):
            simulate_with_returns(platform)  # neither horizon nor supply
        for bad in ({"slack": 0}, {"slack": 1.5}, {"slack": True},
                    {"horizon": -5}, {"supply": -3}, {"supply": 2.5}):
            name = next(iter(bad))
            with pytest.raises(SimulationError, match=name):
                simulate_with_returns(platform, **{"horizon": 10, **bad})

    def test_switch_root_only_relays(self):
        # master is a switch: all completions come from the children
        platform = uniform_return_platform(section9_platform())
        result = simulate_with_returns(platform, supply=20)
        by_node = result.trace.completions_by_node()
        assert "M" not in by_node
        assert sum(by_node.values()) == 20

"""Tests for the baseline strategies (demand-driven, synchronized, greedy)."""

from fractions import Fraction

import pytest

from repro.analysis import measured_rate, steady_state_buffer_stats
from repro.baselines import (
    simulate_demand_driven,
    simulate_greedy,
    simulate_synchronized,
    traditional_startup_bound,
)
from repro.core.bwfirst import bw_first
from repro.exceptions import SimulationError
from repro.extensions.result_return import uniform_return_platform
from repro.extensions.return_sim import simulate_with_returns
from repro.platform.generators import fork
from repro.platform.tree import Tree
from repro.sim import simulate

F = Fraction


class TestDemandDriven:
    def test_never_exceeds_optimal(self, paper_tree):
        result = simulate_demand_driven(paper_tree, horizon=360)
        late = measured_rate(result.trace, 180, 360)
        assert late <= F(10, 9)

    def test_reaches_reasonable_rate(self, paper_tree):
        result = simulate_demand_driven(paper_tree, horizon=360)
        late = measured_rate(result.trace, 180, 360)
        assert late >= F(10, 9) * F(8, 10)  # at least 80% of optimal

    def test_request_messages_counted(self, paper_tree):
        result = simulate_demand_driven(paper_tree, horizon=100)
        assert result.request_messages > 0

    def test_tasks_conserved(self, paper_tree):
        result = simulate_demand_driven(paper_tree, horizon=180)
        assert result.completed <= result.released
        # after wind-down every released task was computed somewhere
        assert result.completed == result.released

    def test_supply_mode(self, paper_tree):
        result = simulate_demand_driven(paper_tree, supply=30)
        assert result.released == 30
        assert result.completed == 30

    def test_bandwidth_centric_service_order(self):
        # two children, both hungry: the fast link must be served first
        t = Tree("m")
        t.add_node("fast", w=2, parent="m", c=1)
        t.add_node("slow", w=2, parent="m", c=4)
        result = simulate_demand_driven(t, horizon=20)
        sends = [s for s in result.trace.segments
                 if s.node == "m" and s.kind == "send"]
        assert sends[0].peer == "fast"

    def test_requires_horizon_or_supply(self, paper_tree):
        with pytest.raises(SimulationError):
            simulate_demand_driven(paper_tree)

    def test_slack_validated(self, paper_tree):
        for bad in ({"slack": 0}, {"slack": 1.5}, {"slack": True},
                    {"request_latency_factor": -1}, {"horizon": -5},
                    {"supply": -3}):
            name = next(iter(bad))
            with pytest.raises(SimulationError, match=name):
                simulate_demand_driven(paper_tree, **{"horizon": 10, **bad})

    def test_more_buffering_than_event_driven(self, paper_tree):
        horizon = 10 * 36
        ours = simulate(paper_tree, horizon=horizon)
        theirs = simulate_demand_driven(paper_tree, slack=2, horizon=horizon)
        ours_avg = steady_state_buffer_stats(ours.trace, 180, horizon)["avg_total"]
        theirs_avg = steady_state_buffer_stats(theirs.trace, 180, horizon)["avg_total"]
        assert theirs_avg > ours_avg


class TestSynchronized:
    def test_steady_rate_is_optimal(self, paper_tree):
        result = simulate_synchronized(paper_tree, horizon=12 * 36)
        late = measured_rate(result.trace, 8 * 36, 12 * 36)
        assert late == F(10, 9)

    def test_dead_startup_computes_less(self, paper_tree):
        horizon = 4 * 36
        ours = simulate(paper_tree, horizon=horizon)
        sync = simulate_synchronized(paper_tree, horizon=horizon)
        assert (ours.trace.completions_in(F(0), F(36))
                > sync.trace.completions_in(F(0), F(36)))

    def test_traditional_bound(self, paper_tree):
        bound = traditional_startup_bound(paper_tree)
        # period 36, deepest active node P8 at depth 3
        assert bound == 36 * 3


class TestGreedy:
    def test_suboptimal_on_heterogeneous_platform(self, paper_tree):
        result = simulate_greedy(paper_tree, horizon=360)
        late = measured_rate(result.trace, 180, 360)
        assert late < F(10, 9)

    def test_optimal_on_trivial_platform(self):
        # a single fast worker: even greedy gets it right
        t = Tree("m")
        t.add_node("w", w=2, parent="m", c=1)
        result = simulate_greedy(t, horizon=100)
        assert measured_rate(result.trace, 50, 100) == F(1, 2)

    def test_tasks_conserved(self, paper_tree):
        result = simulate_greedy(paper_tree, horizon=100)
        assert result.completed == result.released

    def test_supply_mode(self, paper_tree):
        result = simulate_greedy(paper_tree, supply=25)
        assert result.completed == 25

    def test_window_validated(self, paper_tree):
        for bad in ({"window": 0}, {"window": 1.5}, {"window": False},
                    {"horizon": -5}, {"supply": -3}):
            name = next(iter(bad))
            with pytest.raises(SimulationError, match=name):
                simulate_greedy(paper_tree, **{"horizon": 10, **bad})

    def test_requires_horizon_or_supply(self, paper_tree):
        with pytest.raises(SimulationError):
            simulate_greedy(paper_tree)

    def test_wastes_port_on_slow_links(self):
        # greedy round-robins onto a uselessly slow link; the optimal ignores it
        t = fork(weights=[1, 1], costs=[1, 20], root_w="inf")
        optimal = bw_first(t).throughput
        result = simulate_greedy(t, horizon=400)
        late = measured_rate(result.trace, 200, 400)
        assert late < optimal


FARMS = {
    "greedy": simulate_greedy,
    "demand-driven": simulate_demand_driven,
    "returns": lambda tree, **kw: simulate_with_returns(
        uniform_return_platform(tree), **kw),
}


class TestSupplyCut:
    """One rule for every farm: ``stop_time`` is the first moment the root
    wanted a task and the supply refused it."""

    @pytest.mark.parametrize("farm", sorted(FARMS))
    def test_stop_time_is_the_first_refusal(self, paper_tree, farm):
        result = FARMS[farm](paper_tree, supply=25)
        assert result.stop_time >= max(t for t, _ in result.trace.releases)
        assert result.wind_down == result.end_time - result.stop_time
        if farm == "greedy":
            # greedy used to stamp the exhaustion instead: the last
            # release at 22, a wind-down of 59
            assert (result.stop_time, result.wind_down) == (24, 57)


class TestBaselineTelemetry:
    """The tallies are ``baseline.*`` telemetry counters; the result's
    attributes are thin views over them (satellite of the runtime PR)."""

    def test_attributes_are_counter_views(self, paper_tree):
        result = simulate_demand_driven(paper_tree, horizon=100)
        assert result.request_messages == result.telemetry.value(
            "baseline.request_messages") > 0
        assert result.interruptions == result.telemetry.value(
            "baseline.interruptions") == 0

    def test_interruptions_counted(self, paper_tree):
        result = simulate_demand_driven(
            paper_tree, horizon=100, interruptible=True)
        assert result.interruptions == result.telemetry.value(
            "baseline.interruptions") > 0

    def test_external_registry_mirrors(self, paper_tree):
        from repro.telemetry import Registry

        external = Registry()
        result = simulate_demand_driven(
            paper_tree, horizon=100, telemetry=external)
        assert external.value("baseline.request_messages") == \
            result.request_messages

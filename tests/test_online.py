"""Tests for online re-negotiation (the synchronization-overhead study)."""

from fractions import Fraction

import pytest

from repro.core.bwfirst import bw_first
from repro.exceptions import SimulationError
from repro.extensions.dynamic import perturb
from repro.extensions.online import online_renegotiation
from repro.platform.examples import paper_figure4_tree
from repro.platform.tree import Tree
from repro.sim.tracing import CTRL

F = Fraction


@pytest.fixture(scope="module")
def scenario():
    believed = paper_figure4_tree()
    actual = perturb(believed, edge_factors={"P1": 3}, node_factors={"P8": 2})
    report = online_renegotiation(believed, actual)
    return believed, actual, report


class TestOnlineScenario:
    def test_phases_ordered(self, scenario):
        _, _, report = scenario
        assert 0 < report.t_drift < report.t_renegotiate < report.t_switched

    def test_degradation_observed(self, scenario):
        _, _, report = scenario
        assert report.rate_degraded < report.old_optimum
        assert report.rate_degraded <= report.rate_before_drift

    def test_recovery_is_exact(self, scenario):
        """After the switch, the run settles at the NEW platform's optimum."""
        _, actual, report = scenario
        assert report.new_optimum == bw_first(actual).throughput
        assert report.rate_recovered == report.new_optimum
        assert report.recovery == 1

    def test_negotiation_overhead_negligible(self, scenario):
        """The paper's conjecture: the synchronization phase is negligible
        against task communication — here under 1/10 of a believed period."""
        _, _, report = scenario
        assert report.negotiation_wallclock < F(36, 10)
        assert report.negotiation_messages > 0

    def test_timeline_tells_the_story(self, scenario):
        _, _, report = scenario
        rates = dict(report.timeline)
        # steady at the old optimum sometime before the drift…
        assert any(
            t < report.t_drift and r == report.old_optimum
            for t, r in report.timeline
        )
        # …and the timeline never exceeds the old optimum
        assert all(r <= report.old_optimum for r in rates.values())

    def test_topology_mismatch_rejected(self):
        believed = paper_figure4_tree()
        other = Tree("X", w=1)
        with pytest.raises(SimulationError):
            online_renegotiation(believed, other)

    def test_same_nodes_under_another_parent_rejected(self):
        """The node sets match, the parents do not: P5 moved under P2."""
        believed = paper_figure4_tree()
        moved = believed.copy()
        moved.remove_subtree("P5")
        moved.add_node("P5", believed.w("P5"), parent="P2",
                       c=believed.c("P5"))
        assert set(moved.nodes()) == set(believed.nodes())
        with pytest.raises(SimulationError, match="share topology"):
            online_renegotiation(believed, moved)


class TestControlPlaneTraffic:
    def test_control_segments_recorded(self, scenario):
        """Negotiation messages physically occupied send ports (CTRL)."""
        _, _, report = scenario
        ctrl = [s for s in report.result.trace.segments if s.kind == CTRL]
        assert ctrl
        # control traffic starts at the negotiation (it may briefly queue
        # behind whatever non-interruptible transfer holds the port)
        max_c = max(c for _, _, c in report.result.tree.edges())
        for seg in ctrl:
            assert report.t_renegotiate <= seg.start
            assert seg.start <= report.t_switched + max_c

    def test_ports_never_double_booked(self, scenario):
        """CTRL and SEND jobs share one physical port: no overlap."""
        _, _, report = scenario
        from repro.sim.tracing import SEND

        by_node = {}
        for seg in report.result.trace.segments:
            if seg.kind in (SEND, CTRL):
                by_node.setdefault(seg.node, []).append(seg)
        for node, segments in by_node.items():
            segments.sort(key=lambda s: s.start)
            for a, b in zip(segments, segments[1:]):
                assert a.end <= b.start, (node, a, b)

    def test_improvement_scenario(self):
        believed = paper_figure4_tree()
        faster = perturb(believed, edge_factors={"P2": F(1, 4)})
        report = online_renegotiation(believed, faster)
        assert report.new_optimum >= report.old_optimum
        assert report.recovery == 1


class TestOnlineTelemetry:
    """``negotiation_messages`` is a thin view over the report's
    ``online.*`` counters (satellite of the runtime PR)."""

    def test_attribute_is_a_counter_view(self, scenario):
        _, _, report = scenario
        assert report.negotiation_messages == report.telemetry.value(
            "online.negotiation_messages") > 0
        assert report.telemetry.value("online.transactions") > 0

    def test_external_registry_mirrors(self):
        from repro.telemetry import Registry

        believed = paper_figure4_tree()
        actual = perturb(believed, edge_factors={"P1": 3})
        external = Registry()
        report = online_renegotiation(believed, actual, telemetry=external)
        assert external.value("online.negotiation_messages") == \
            report.negotiation_messages

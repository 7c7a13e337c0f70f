"""Unit tests for the BW-First procedure (Algorithm 1, Proposition 2)."""

from fractions import Fraction

import pytest

from repro.core.bwfirst import bw_first, root_proposal
from repro.core.incremental import IncrementalSolver
from repro.exceptions import PlatformError, ScheduleError
from repro.platform.examples import (
    PAPER_FIGURE4_THROUGHPUT,
    PAPER_FIGURE4_UNVISITED,
)
from repro.platform.generators import chain, fork, smooth_tree
from repro.platform.tree import Tree
from repro.runtime import negotiate

F = Fraction


class TestPaperExample:
    """The Section 8 facts: throughput 10/9, four nodes never visited."""

    def test_throughput_is_ten_ninths(self, paper_tree):
        assert bw_first(paper_tree).throughput == PAPER_FIGURE4_THROUGHPUT

    def test_unvisited_set(self, paper_tree):
        assert bw_first(paper_tree).unvisited == PAPER_FIGURE4_UNVISITED

    def test_transaction_log(self, paper_tree):
        result = bw_first(paper_tree)
        log = [(t.parent, t.child, t.proposal, t.ack) for t in result.transactions]
        assert log == [
            ("P0", "P1", F(1), F(7, 18)),
            ("P1", "P4", F(5, 18), F(0)),
            ("P4", "P8", F(1, 6), F(0)),
            ("P0", "P2", F(7, 36), F(1, 12)),
            ("P2", "P6", F(1, 12), F(1, 18)),
            ("P2", "P7", F(1, 36), F(0)),
            ("P0", "P3", F(1, 18), F(0)),
        ]

    def test_transaction_indices_are_sequential(self, paper_tree):
        result = bw_first(paper_tree)
        assert [t.index for t in result.transactions] == list(range(7))

    def test_alphas(self, paper_tree):
        result = bw_first(paper_tree)
        expected = {
            "P0": F(1, 3), "P1": F(1, 3), "P4": F(1, 9), "P8": F(1, 6),
            "P2": F(1, 18), "P6": F(1, 36), "P7": F(1, 36), "P3": F(1, 18),
        }
        for node, alpha in expected.items():
            assert result.eta_compute(node) == alpha
        assert sum(expected.values()) == F(10, 9)

    def test_message_count(self, paper_tree):
        result = bw_first(paper_tree)
        assert result.message_count == 2 * 7 + 2

    def test_t_max(self, paper_tree):
        assert bw_first(paper_tree).t_max == F(1, 3) + 1

    def test_sends(self, paper_tree):
        result = bw_first(paper_tree)
        assert result.sends("P0") == {
            "P1": F(11, 18), "P2": F(1, 9), "P3": F(1, 18)
        }
        assert result.sends("P8") == {}
        assert result.sends("P5") == {}

    def test_eta_in(self, paper_tree):
        result = bw_first(paper_tree)
        assert result.eta_in("P0") == 0  # the root generates
        assert result.eta_in("P1") == F(11, 18)
        assert result.eta_in("P5") == 0  # unvisited


class TestEdgeCases:
    def test_single_node(self):
        t = Tree("solo", w=4)
        result = bw_first(t)
        assert result.throughput == F(1, 4)
        assert result.visited == frozenset({"solo"})
        assert result.transactions == ()

    def test_single_switch(self):
        t = Tree("sw")
        assert bw_first(t).throughput == 0

    def test_switch_root_forwards_everything(self):
        t = Tree("sw")
        t.add_node("w", w=1, parent="sw", c=1)
        result = bw_first(t)
        assert result.throughput == 1
        assert result.eta_compute("sw") == 0

    def test_root_proposal_default(self, paper_tree):
        assert root_proposal(paper_tree) == F(4, 3)

    def test_explicit_small_proposal_limits_throughput(self, paper_tree):
        result = bw_first(paper_tree, proposal=F(1, 2))
        assert result.throughput == F(1, 2)  # fully absorbed
        # the root alone computes 1/3; P1 takes the remaining 1/6
        assert result.eta_compute("P0") == F(1, 3)
        assert result.eta_compute("P1") == F(1, 6)

    def test_zero_proposal(self, paper_tree):
        result = bw_first(paper_tree, proposal=F(0))
        assert result.throughput == 0
        assert result.visited == frozenset({"P0"})

    def test_negative_proposal_rejected(self, paper_tree):
        with pytest.raises(ScheduleError):
            bw_first(paper_tree, proposal=F(-1))

    @pytest.mark.parametrize("proposal, expected", [
        (0.001, F(1, 1000)), ("1/1000", F(1, 1000)), (True, PlatformError),
        (float("nan"), PlatformError), (-1, ScheduleError)])
    def test_a_proposal_is_read_alike_on_every_route(self, proposal, expected):
        """The oracle, both incremental entry points and the negotiation
        read a root proposal through ``as_fraction``: the same exact
        ``(t_max, throughput)`` everywhere, or a typed error everywhere."""
        tree = smooth_tree(20, seed=1)
        routes = {
            "bw_first": lambda: bw_first(tree, proposal=proposal),
            "solve": lambda: IncrementalSolver(tree).solve(proposal),
            "rate": lambda: IncrementalSolver(tree).rate(proposal),
            "negotiate": lambda: negotiate(tree, proposal=proposal),
        }
        for route, run in routes.items():
            if isinstance(expected, Fraction):
                got = run()
                if not isinstance(got, tuple):
                    got = (got.t_max, got.throughput)
                assert got == (expected, expected), route
                assert all(type(value) is Fraction for value in got), route
            else:
                with pytest.raises(expected):
                    run()

    def test_deep_chain_no_recursion_error(self):
        t = chain(3000, w=1, c=1, root_w=1)
        assert bw_first(t).throughput == 2

    def test_bandwidth_centric_priority(self):
        # a fast-link slow node beats a slow-link fast node
        t = Tree("m")
        t.add_node("slowlink", w="1/10", parent="m", c=10)  # rate 10!
        t.add_node("fastlink", w=10, parent="m", c="1/10")  # rate 1/10
        result = bw_first(t)
        first_txn = result.transactions[0]
        assert first_txn.child == "fastlink"

    def test_tie_broken_by_insertion_order(self):
        t = Tree("m")
        t.add_node("a", w=2, parent="m", c=1)
        t.add_node("b", w=2, parent="m", c=1)
        result = bw_first(t)
        assert result.transactions[0].child == "a"


class TestInvariants:
    def test_conservation_at_every_visited_node(self, paper_tree):
        result = bw_first(paper_tree)
        for node, outcome in result.outcomes.items():
            assert outcome.accepted == outcome.alpha + outcome.delegated

    def test_taus_nonnegative(self, paper_tree):
        result = bw_first(paper_tree)
        for outcome in result.outcomes.values():
            assert 0 <= outcome.tau <= 1

    def test_acks_bounded_by_proposals(self, paper_tree):
        for t in bw_first(paper_tree).transactions:
            assert 0 <= t.ack <= t.proposal

    def test_throughput_bounded_by_capacity(self, paper_tree):
        result = bw_first(paper_tree)
        assert result.throughput <= paper_tree.root_capacity()
        assert result.throughput <= paper_tree.total_compute_rate()

    def test_fork_matches_proposition1(self):
        from repro.core.fork import reduce_fork_tree

        t = fork(weights=[2, 3, 1, 4], costs=[1, 2, 3, 4], root_w=2)
        assert bw_first(t).throughput == min(
            t.root_capacity(), reduce_fork_tree(t).equivalent_rate
        )

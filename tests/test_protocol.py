"""Tests for the distributed BW-First protocol (actors, network, runner)."""

import heapq
from fractions import Fraction

import pytest

from repro.core.bwfirst import bw_first
from repro.exceptions import ProtocolError
from repro.platform.generators import chain, random_tree
from repro.platform.tree import Tree
from repro.protocol import (
    Acknowledgment,
    Negotiation,
    NodeActor,
    Network,
    Proposal,
    RetryPolicy,
    run_protocol,
    wire_size,
)
from repro.protocol.runner import VIRTUAL_PARENT
from repro.telemetry import NULL, Registry

F = Fraction


class TestMessages:
    def test_wire_size_small(self):
        msg = Proposal(sender="a", receiver="b", beta=F(1, 2))
        assert wire_size(msg) == 8 + 1 + 1

    def test_wire_size_grows_with_magnitude(self):
        small = Proposal(sender="a", receiver="b", beta=F(1))
        big = Proposal(sender="a", receiver="b", beta=F(2**40, 3))
        assert wire_size(big) > wire_size(small)

    def test_ack_size(self):
        msg = Acknowledgment(sender="a", receiver="b", theta=F(0))
        assert wire_size(msg) == 10


class TestActor:
    def make_actor(self, sent, rate=F(1, 2), children=()):
        return NodeActor(
            name="n", rate=rate, parent="p", children=list(children),
            send=sent.append,
        )

    def test_leaf_acks_surplus(self):
        sent = []
        actor = self.make_actor(sent, rate=F(1, 2))
        actor.handle(Proposal(sender="p", receiver="n", beta=F(2)))
        assert len(sent) == 1
        ack = sent[0]
        assert isinstance(ack, Acknowledgment)
        assert ack.theta == F(3, 2)
        assert actor.alpha == F(1, 2)

    def test_leaf_consumes_everything(self):
        sent = []
        actor = self.make_actor(sent, rate=F(2))
        actor.handle(Proposal(sender="p", receiver="n", beta=F(1)))
        assert sent[0].theta == 0

    def test_parent_child_handshake(self):
        sent = []
        actor = self.make_actor(sent, rate=F(1), children=[("c", F(2))])
        actor.handle(Proposal(sender="p", receiver="n", beta=F(2)))
        # keeps 1, proposes min(1, 1/2) = 1/2 to the child
        assert isinstance(sent[0], Proposal)
        assert sent[0].receiver == "c"
        assert sent[0].beta == F(1, 2)
        # child acks 1/4 → node acks parent 1−1/4 = 3/4... δ = 1 − 1/4 = 3/4
        actor.handle(Acknowledgment(sender="c", receiver="n", theta=F(1, 4)))
        assert isinstance(sent[1], Acknowledgment)
        assert sent[1].theta == F(3, 4)

    def test_rejects_proposal_from_stranger(self):
        actor = self.make_actor([])
        with pytest.raises(ProtocolError):
            actor.handle(Proposal(sender="stranger", receiver="n", beta=F(1)))

    def test_rejects_unexpected_ack(self):
        actor = self.make_actor([])
        with pytest.raises(ProtocolError):
            actor.handle(Acknowledgment(sender="c", receiver="n", theta=F(0)))

    def test_rejects_overlarge_ack(self):
        sent = []
        actor = self.make_actor(sent, rate=F(0), children=[("c", F(1))])
        actor.handle(Proposal(sender="p", receiver="n", beta=F(1, 2)))
        with pytest.raises(ProtocolError):
            actor.handle(Acknowledgment(sender="c", receiver="n", theta=F(1)))

    def test_rejects_negative_proposal(self):
        actor = self.make_actor([])
        with pytest.raises(ProtocolError):
            actor.handle(Proposal(sender="p", receiver="n", beta=F(-1)))

    def test_theta_before_done_rejected(self):
        actor = self.make_actor([])
        with pytest.raises(ProtocolError):
            _ = actor.theta


class TestNetwork:
    def test_latency_scales_with_link_cost(self, paper_tree):
        net = Network(paper_tree, latency_factor=F(1, 10))
        assert net.link_latency("P0", "P1") == F(1, 10)
        assert net.link_latency("P2", "P0") == F(2, 10)

    def test_fixed_latency_added(self, paper_tree):
        net = Network(paper_tree, latency_factor=0, fixed_latency=F(3))
        assert net.link_latency("P0", "P3") == 3

    def test_non_adjacent_rejected(self, paper_tree):
        net = Network(paper_tree)
        with pytest.raises(ProtocolError):
            net.link_latency("P0", "P8")

    def test_virtual_endpoint_is_local(self, paper_tree):
        net = Network(paper_tree)
        assert net.link_latency(VIRTUAL_PARENT, "P0") == 0

    def test_unregistered_receiver_rejected(self, paper_tree):
        net = Network(paper_tree)
        with pytest.raises(ProtocolError):
            net.send(Proposal(sender="P0", receiver="P1", beta=F(1)))


class TestRunner:
    def test_paper_tree(self, paper_tree):
        result = run_protocol(paper_tree)
        assert result.throughput == F(10, 9)
        assert result.visited == bw_first(paper_tree).visited

    def test_message_count_matches_transactions(self, paper_tree):
        result = run_protocol(paper_tree)
        txns = len(bw_first(paper_tree).transactions)
        assert result.messages == 2 * txns + 2

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees_verified(self, seed):
        # run_protocol(verify=True) raises on any divergence from Algorithm 1
        t = random_tree(25, seed=seed)
        result = run_protocol(t)
        assert result.throughput == bw_first(t).throughput

    def test_completion_time_grows_with_depth(self):
        # slow workers (w=4) make the proposal descend several levels before
        # the leftover tasks run out, so the deep chain needs more hops
        shallow = run_protocol(chain(2, w=4, c=1, root_w=4))
        deep = run_protocol(chain(20, w=4, c=1, root_w=4))
        assert deep.completion_time > shallow.completion_time

    def test_custom_proposal(self, paper_tree):
        result = run_protocol(paper_tree, proposal=F(1, 2))
        assert result.throughput == F(1, 2)

    def test_reserved_name_rejected(self):
        t = Tree(VIRTUAL_PARENT, w=1)
        with pytest.raises(ProtocolError):
            run_protocol(t)

    def test_bytes_counted(self, paper_tree):
        result = run_protocol(paper_tree)
        assert result.bytes >= result.messages * 10


class HandCrank:
    """A :class:`Negotiation` without a driver: a list as the wire, an
    integer as the clock.  Every crossing takes one tick, so an edge's own
    allowance is 3 (there, back, one of slack); when the wire falls idle
    the clock jumps to the earliest armed timer, and a timer that is due
    fires before the next message moves."""

    def __init__(self, tree, **config):
        config = {"failed": frozenset(), "retry": None, "telemetry": None,
                  **config}
        self.clock = 0
        self.wire = []
        self.timers = []    # heap of (due, arming order, (sender, child, xid))
        self.armed = []     # (proposal, patience) per timed transmission
        self.core = Negotiation(
            tree, None, config["failed"], config["retry"],
            config["telemetry"], None, None,
            now=lambda: self.clock, allowance=lambda node: 3)
        self.wire.append(self.core.boot(self.wire.append))

    def run(self):
        core, wire, timers = self.core, self.wire, self.timers
        while core.theta is None:
            if timers and (not wire or timers[0][0] <= self.clock):
                due, _, key = heapq.heappop(timers)
                self.clock = max(self.clock, due)
                core.expire(*key)
                continue
            message = wire.pop(0)
            patience = core.sent(message)
            if patience is not None:
                self.armed.append((message, patience))
                heapq.heappush(timers, (
                    self.clock + patience, len(self.armed),
                    (message.sender, message.receiver, message.xid)))
            self.clock += 1
            core.deliver(message)
        return core

    def state(self):
        core = self.core
        actors = {name: (actor.state, actor.lam, actor.delta,
                         list(actor.transactions))
                  for name, actor in core.actors.items()}
        return (core.theta, core.retransmissions, core.timeouts,
                list(self.wire), actors)


class TestNegotiation:
    """The core both drivers share, cranked by hand — no Network, no loop."""

    @pytest.mark.parametrize("seed", range(25))
    def test_budgets_are_hierarchical(self, seed):
        tree = random_tree(4 + seed, seed=seed)
        allowance = {node: F(1 + i, 3) for i, node in enumerate(tree.nodes())}
        core = Negotiation(tree, None, frozenset(), RetryPolicy(), None, None,
                           None, now=lambda: 0, allowance=allowance.__getitem__)
        core.boot(lambda message: None)
        assert set(core.budgets) == set(tree.nodes()) - {tree.root}
        for node, budget in core.budgets.items():
            assert budget == allowance[node] + sum(
                core.budgets[child] for child in tree.children(node))

    def test_no_budgets_without_a_timer_to_arm(self, paper_tree):
        crank = HandCrank(paper_tree)
        assert crank.core.budgets == {}
        assert crank.run().throughput == F(10, 9)
        assert crank.armed == []

    @pytest.mark.parametrize("seed", range(8))
    def test_silent_child_costs_its_retries_then_one_timeout(self, seed):
        tree = random_tree(6 + 2 * seed, seed=seed)
        child = tree.children_by_bandwidth(tree.root)[0]
        policy = RetryPolicy(max_retries=3, backoff=2)
        registry = Registry()
        crank = HandCrank(tree, failed=frozenset({child}), retry=policy,
                          telemetry=registry)
        core = crank.run()
        budget = core.budgets[child]
        assert budget == 3 * len(tree.descendants(child))
        waited = [patience for message, patience in crank.armed
                  if message.receiver == child]
        assert waited == [budget * 2 ** k for k in range(4)]
        assert (core.retransmissions, core.timeouts) == (3, 1)
        survivors = tree.without_subtrees([child])
        assert core.throughput == bw_first(survivors).throughput
        core.check(frozenset({child}), None)
        assert core.actors[child].lam is None   # swallowed, never reacted
        (span,) = [s for s in registry.spans if s.node == child]
        assert span.tags["outcome"] == "timeout" and span.tags["retries"] == 3
        assert span.end - span.start == sum(waited)
        result = core.result(crank.clock, {"protocol.messages": 0,
                                           "protocol.bytes": 0}, {})
        assert (result.retransmissions, result.timeouts) == (3, 1)
        assert result.visited == bw_first(survivors).visited

    def test_expiry_after_its_ack_changes_nothing(self, paper_tree):
        crank = HandCrank(paper_tree, retry=RetryPolicy(max_retries=2))
        core = crank.run()
        assert len(crank.armed) == len(bw_first(paper_tree).transactions)
        assert (core.retransmissions, core.timeouts) == (0, 0)
        settled = crank.state()
        for message, _ in crank.armed:       # every timer, long after its ack
            core.expire(message.sender, message.receiver, message.xid)
        assert crank.state() == settled
        core.check(frozenset(), None)

    def test_duplicated_root_ack_keeps_the_first_theta(self, paper_tree):
        crank = HandCrank(paper_tree)
        core = crank.run()
        first = core.theta
        core.deliver(Acknowledgment(sender=paper_tree.root,
                                    receiver=VIRTUAL_PARENT,
                                    theta=first + 1, xid=0))
        assert core.theta == first and core.throughput == F(10, 9)
        with pytest.raises(ProtocolError, match="expected an ack"):
            core.deliver(Proposal(sender=paper_tree.root,
                                  receiver=VIRTUAL_PARENT, beta=F(1)))

    @pytest.mark.parametrize("telemetry", [None, NULL, Registry()],
                             ids=["no-registry", "disabled", "enabled"])
    @pytest.mark.parametrize("retry", [None, RetryPolicy()],
                             ids=["no-retry", "retry"])
    @pytest.mark.parametrize("failed", [frozenset(), frozenset({"P2"})],
                             ids=["all-alive", "one-failed"])
    def test_passive_means_nothing_to_keep(self, paper_tree, telemetry,
                                           retry, failed):
        core = HandCrank(paper_tree, failed=failed, retry=retry,
                         telemetry=telemetry).core
        assert core.passive == (
            (telemetry is None or not telemetry.enabled)
            and retry is None and not failed)

    def test_passive_run_protocol_bypasses_the_core(self, paper_tree,
                                                    monkeypatch):
        """The seed's exact code path: no per-message call into the core
        for a tree node — only the virtual parent's ack lands there."""
        deliver = Negotiation.deliver

        def sent(self, message):
            raise AssertionError(f"sent({message!r}) on the passive path")

        def only_the_virtual_parent(self, message):
            assert message.receiver == VIRTUAL_PARENT, message
            deliver(self, message)

        monkeypatch.setattr(Negotiation, "sent", sent)
        monkeypatch.setattr(Negotiation, "deliver", only_the_virtual_parent)
        for tree in (paper_tree, random_tree(30, seed=3)):
            assert run_protocol(tree).throughput == bw_first(tree).throughput
        with pytest.raises(AssertionError, match="passive path"):
            run_protocol(paper_tree, retry=RetryPolicy())

"""Tests for the distributed BW-First protocol (actors, network, runner)."""

import heapq
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bwfirst import bw_first
from repro.core.step import Step
from repro.exceptions import PlatformError, ProtocolError, ScheduleError
from repro.faults import FaultPlan
from repro.platform.generators import chain, random_tree, smooth_tree
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
from repro.runtime import InProcTransport, Session, TcpTransport, negotiate
from repro.telemetry import NULL, Registry

from .conftest import RATIONAL_COSTS, RATIONAL_WEIGHTS, rational_trees

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


# ----------------------------------------------------------------------
# the proposal a caller hands in
# ----------------------------------------------------------------------
DRIVERS = {
    "simulated": run_protocol,
    "inproc": lambda tree, **kwargs: negotiate(tree, "inproc", **kwargs),
    "tcp": lambda tree, transport="tcp", **kwargs: negotiate(tree, transport,
                                                             **kwargs),
}


class TestProposalBoundary:
    """A proposal is converted once, where a negotiation is set up: what
    ``as_fraction`` accepts negotiates as that exact rational, what it
    refuses is refused before any actor is built or socket dialled."""

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("proposal", [0.001, "1/1000"])
    def test_converted_to_the_exact_rational(self, paper_tree, driver,
                                             proposal):
        result = DRIVERS[driver](paper_tree, proposal=proposal, verify=True)
        assert type(result.t_max) is Fraction
        assert result.t_max == result.throughput == F(1, 1000)

    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("proposal", [True, float("nan")],
                             ids=["bool", "nan"])
    def test_refused_before_anything_moves(self, paper_tree, driver,
                                           proposal):
        transport = TcpTransport()
        kwargs = {"transport": transport} if driver == "tcp" else {}
        with pytest.raises(PlatformError):
            DRIVERS[driver](paper_tree, proposal=proposal, **kwargs)
        assert transport.dials == 0

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_negative_is_a_schedule_error(self, paper_tree, driver):
        """Refused as ``bw_first`` and the solver refuse it, before any
        actor boots or any socket is dialled."""
        transport = TcpTransport()
        kwargs = {"transport": transport} if driver == "tcp" else {}
        with pytest.raises(ScheduleError,
                           match=r"root proposal must be non-negative \(got -1\)"):
            DRIVERS[driver](paper_tree, proposal=-1, **kwargs)
        assert transport.dials == 0


# ----------------------------------------------------------------------
# the int-pair actors against the rational oracle
# ----------------------------------------------------------------------
def assert_algorithm_1(result, reference, failed=frozenset()):
    """Every actor holds ``bw_first``'s λ, α, θ, τ and transactions, in
    order (a transaction given up on a *failed* child aside); a node the
    oracle does not visit was never proposed to."""
    for node, actor in result.actors.items():
        outcome = reference.outcomes.get(node)
        if outcome is None:
            assert actor.lam is None, node
            continue
        assert (actor.lam, actor.alpha, actor.theta, actor.tau) \
            == (outcome.lam, outcome.alpha, outcome.theta, outcome.tau), node
        assert [t for t in actor.transactions if t[0] not in failed] \
            == [(t.child, t.proposal, t.ack) for t in outcome.transactions], \
            node


#: t_max, 0, the root's own rate, or on / ±1/7 around the cap ``r + b``
#: at which the i-th root child (bandwidth order) gets exactly ``τ/c``
_ROOT_PROPOSALS = st.one_of(
    st.sampled_from([("t_max",), ("zero",), ("rate",)]),
    st.tuples(st.just("cap"), st.integers(0, 6),
              st.sampled_from([F(-1, 7), F(0), F(1, 7)])),
)


def _root_proposal(tree, kind):
    if kind[0] == "t_max":
        return None
    if kind[0] == "zero":
        return F(0)
    rate = tree.rate(tree.root)
    kids = tree.children_by_bandwidth(tree.root)
    if kind[0] == "rate" or not kids:
        return rate
    child = kids[kind[1] % len(kids)]
    return max(rate + 1 / tree.c(child) + kind[2], F(0))


#: (kind, node index, value) changes for the session driver
_CHANGES = st.lists(st.one_of(
    st.tuples(st.just("set_w"), st.integers(0, 99),
              st.sampled_from(RATIONAL_WEIGHTS)),
    st.tuples(st.just("set_c"), st.integers(0, 99),
              st.sampled_from(RATIONAL_COSTS)),
    st.tuples(st.just("prune"), st.integers(0, 99), st.none()),
    st.tuples(st.just("graft"), st.integers(0, 99),
              st.sampled_from(RATIONAL_COSTS)),
), max_size=3)


def _change(tree, change, step):
    kind, index, value = change
    nodes = list(tree.nodes())
    nonroot = nodes[1:]
    if kind == "set_w":
        tree.set_w(nodes[index % len(nodes)], value)
    elif kind == "set_c" and nonroot:
        tree.set_c(nonroot[index % len(nonroot)], value)
    elif kind == "prune" and nonroot:
        tree.remove_subtree(nonroot[index % len(nonroot)])
    elif kind == "graft":
        branch = Tree(f"g{step}", F(7, 4))
        branch.add_node(f"g{step}x", F(2, 7), parent=f"g{step}", c=F(5, 3))
        tree.add_subtree(nodes[index % len(nodes)], value, branch)


class TestIntPairDifferential:
    """The actors run Algorithm 1 on int pairs; ``bw_first`` stays on
    ``Fraction`` and is the oracle — through every driver, under loss and
    duplication, around dead nodes and from a session's memory."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tree=rational_trees(max_nodes=7), kind=_ROOT_PROPOSALS,
           dead=st.integers(0, 6), seed=st.integers(0, 2**16),
           changes=_CHANGES)
    def test_every_actor_is_algorithm_1(self, tree, kind, dead, seed,
                                        changes):
        proposal = _root_proposal(tree, kind)
        reference = bw_first(tree, proposal=proposal)
        assert_algorithm_1(run_protocol(tree, proposal=proposal), reference)
        assert_algorithm_1(negotiate(tree, proposal=proposal), reference)
        lossy = InProcTransport(plan=FaultPlan(
            seed=seed, drop=F(1, 10), duplicate=F(1, 5)))
        assert_algorithm_1(negotiate(
            tree, lossy, proposal=proposal, retry=RetryPolicy(max_retries=20),
            base_timeout=0.01), reference)

        nonroot = list(tree.nodes())[1:]
        if nonroot:
            failed = frozenset({nonroot[dead % len(nonroot)]})
            result = run_protocol(tree, proposal=proposal, failed=failed)
            # the survivors are offered what the whole platform was
            survivors = tree.without_subtrees(failed)
            assert_algorithm_1(
                result, bw_first(survivors, proposal=result.t_max), failed)

        with Session("inproc") as session:
            for step, change in enumerate([None, *changes]):
                if change is not None:
                    _change(tree, change, step)
                result = session.negotiate(tree.copy(), proposal=proposal)
                assert_algorithm_1(result, bw_first(tree, proposal=proposal))


#: the arithmetic slots of an actor's step: λ, α, δ and τ as int pairs
PAIR_SLOTS = [slot for slot in Step.__slots__ if slot != "saturated"]


class TestIntPairActor:
    """What keeps the negotiation on int pairs: a ``Fraction`` per message
    sent and per node's rate, none in the arithmetic."""

    def test_a_negotiation_builds_a_fraction_per_message(self, monkeypatch):
        """Every ``Fraction`` built during a warmed in-proc negotiation is
        counted — by the actors, the runtime, or by ``fractions`` itself
        on behalf of an operator — through a patched constructor."""
        tree = smooth_tree(500, 1)
        negotiate(tree, verify=False)
        built = []
        construct = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return construct(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        result = negotiate(tree, verify=False)
        monkeypatch.undo()
        assert result.throughput == bw_first(tree).throughput
        assert (result.messages, result.bytes) == (1000, 12938)
        assert len(built) <= result.messages + len(tree) + 32, len(built)

    def test_no_arithmetic_slot_holds_a_fraction(self):
        tree = random_tree(40, seed=5, switch_probability=0.2)
        sent = []
        core = Negotiation(tree, None, frozenset(), None, None, None, None,
                           now=lambda: 0, allowance=lambda node: 1)
        sent.append(core.boot(sent.append))
        while sent:
            core.deliver(sent.pop(0))
            for actor in core.actors.values():
                held = [getattr(actor.step, slot) for slot in PAIR_SLOTS]
                if actor._pending is not None:
                    held += actor._pending[3:]
                assert all(type(value) is int for value in held)
        assert core.throughput == bw_first(tree).throughput
        core.check(frozenset(), None)

    def test_messages_carry_the_values_the_actors_hold(self):
        """A proposal's β is the object the child's λ and the parent's
        transaction hold; the ack's θ is the child's ``theta``."""
        result = run_protocol(random_tree(30, seed=2))
        actors = result.actors
        for node, actor in actors.items():
            for child, beta, theta in actor.transactions:
                assert actors[child].lam is beta
                assert actors[child].theta is theta

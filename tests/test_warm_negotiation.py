"""Warm re-negotiation: inside a ``Session`` a node whose subtree did not
change and which is offered the β it was offered last time answers the θ it
answered last time, without forwarding.

The cold negotiation is the oracle throughout: whatever a session
exchanged, its result must be the one-shot ``negotiate()``'s and
``bw_first``'s, node by node — λ, θ, transactions, who was visited — and the
standing state must go when anything happened that the fence of PR 19
closes the sockets for.
"""

from __future__ import annotations

import asyncio
import random
from fractions import Fraction

import pytest

from repro.core import bwfirst
from repro.core.bwfirst import bw_first
from repro.exceptions import CodecError, ProtocolError
from repro.faults.plan import FaultPlan
from repro.platform.generators import random_tree, smooth_tree
from repro.platform.tree import Tree
from repro.protocol import (Acknowledgment, Negotiation, NodeActor, Proposal,
                            RetryPolicy, run_protocol, wire_size)
from repro.protocol import runner
from repro.protocol.messages import Notice
from repro.protocol.runner import Standing
from repro.runtime import (InProcTransport, Session, TcpTransport, negotiate,
                           sequential_completion_time)
from repro.runtime.codec import decode_body, encode_any, encode_message
from repro.telemetry.core import Registry

F = Fraction
TRANSPORTS = ["inproc", "tcp"]


def seeded_tree(seed: int) -> Tree:
    """Fully visited smooth trees and partly visited random ones."""
    if seed % 3 == 0:
        return smooth_tree(28, seed)
    return random_tree(30, seed=seed, w_numerator_range=(20, 60),
                       c_numerator_range=(1, 3))


def same_as_cold(result, tree, transport="inproc"):
    """*result* is what a one-shot negotiation of *tree* and ``bw_first``
    report, node by node; returns the one-shot result."""
    cold = negotiate(tree, transport)
    reference = bw_first(tree)
    assert result.throughput == cold.throughput == reference.throughput
    assert result.visited == cold.visited == reference.visited
    assert result.transactions == cold.transactions
    assert set(result.actors) == set(tree.nodes())
    for node, actor in cold.actors.items():
        mine = result.actors[node]
        assert (mine.lam, mine.transactions) \
            == (actor.lam, actor.transactions), node
        if actor.lam is None:
            continue
        outcome = reference.outcomes[node]
        assert (mine.lam, mine.theta) == (outcome.lam, outcome.theta), node
        assert (mine.state, mine.alpha, mine.delta, mine.tau) \
            == (actor.state, actor.alpha, actor.delta, actor.tau), node
    return cold


def traffic(result) -> int:
    """What a result says it exchanged is what its transport counted."""
    expected = 2 * (1 + len(result.exchanged)) + len(result.notices)
    assert result.messages == expected
    return expected


# ----------------------------------------------------------------------
# the differential suite: 25 trees × 6 mutations × 2 transports
# ----------------------------------------------------------------------
def mutations(tree: Tree, rng: random.Random):
    """Six seeded changes, applied to *tree* in place one at a time."""
    inner = [n for n in tree.nodes()
             if n != tree.root and tree.children(n)]
    node = rng.choice([n for n in tree.nodes() if n != tree.root])
    tree.set_w(node, tree.w(node) + rng.choice((1, 7, 1000)))
    yield "set_w"
    node = rng.choice([n for n in tree.nodes() if n != tree.root])
    tree.set_c(node, tree.c(node) * rng.choice((F(1, 2), 3)))
    yield "set_c"
    tree.remove_subtree(rng.choice(tree.leaves()))
    yield "leaf prune"
    inner = [n for n in inner if n in tree and tree.children(n)]
    node = rng.choice(inner)
    parent, cost, held = tree.parent(node), tree.c(node), tree.subtree(node)
    tree.remove_subtree(node)
    yield "inner prune"
    tree.add_subtree(parent, cost, held)
    yield "graft back"
    branch = Tree("new0", w=rng.choice((2048, 30)))
    branch.add_node("new1", 4096, parent="new0", c=1)
    tree.add_subtree(rng.choice(list(tree.nodes())), rng.choice((1, 2)), branch)
    yield "graft new"


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("seed", range(25))
def test_warm_is_cold_node_by_node(seed, transport):
    tree = seeded_tree(seed)
    kinds, saved = [], 0
    with Session(transport) as session:
        first = session.negotiate(tree.copy())
        assert traffic(first) == same_as_cold(first, tree, transport).messages
        for kind in mutations(tree, random.Random(seed)):
            kinds.append(kind)
            snapshot = tree.copy()
            warm = session.negotiate(snapshot, verify=True)
            cold = same_as_cold(warm, snapshot, transport)
            assert len(warm.exchanged) <= len(cold.exchanged), kind
            saved += cold.messages - traffic(warm)
    assert kinds == ["set_w", "set_c", "leaf prune", "inner prune",
                     "graft back", "graft new"]
    assert saved >= 0


def test_the_suite_saves_messages_and_remembers_below_the_root():
    """The differential suite would pass on a session that remembered
    nothing; this one says it does not."""
    saved = remembered = 0
    for seed in range(25):
        tree = seeded_tree(seed)
        with Session("inproc") as session:
            session.negotiate(tree.copy())
            for _ in mutations(tree, random.Random(seed)):
                warm = session.negotiate(tree.copy())
                saved += bw_first(tree).message_count - len(warm.exchanged) * 2
                remembered += warm.telemetry.value("protocol.remembered")
    assert saved > 2000 and remembered > 150


# ----------------------------------------------------------------------
# the traps, by construction
# ----------------------------------------------------------------------
def trap_tree() -> Tree:
    """``A`` is offered 2, keeps 1/2 and serves ``B``, then ``C`` (who
    serves ``D``).  A sibling on a faster link takes the root's δ first:
    A — its subtree untouched — is offered 1/2, keeps it all, and everybody
    below it drops out of the schedule."""
    tree = Tree("R", w=1)
    tree.add_node("A", 2, parent="R", c=F(1, 2))
    tree.add_node("B", 1, parent="A", c=F(1, 4))
    tree.add_node("C", 4, parent="A", c=F(1, 2))
    tree.add_node("D", 2, parent="C", c=F(1, 2))
    return tree


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_child_no_longer_proposed_to_comes_back_unvisited(transport):
    tree = trap_tree()
    assert bw_first(tree).visited == {"R", "A", "B", "C", "D"}
    with Session(transport) as session:
        first = session.negotiate(tree.copy())
        assert first.actors["A"].lam == 2
        tree.add_node("S", F(1, 3), parent="R", c=F(1, 4))
        assert bw_first(tree).visited == {"R", "S", "A"}
        warm = session.negotiate(tree.copy())
        same_as_cold(warm, tree, transport)
        # A's subtree is unchanged, its β is not: it runs Algorithm 1
        # again, and whom it no longer proposes to nobody has visited
        assert warm.notices == () and not warm.actors["A"].remembered
        assert warm.actors["A"].lam == F(1, 2)
        for node in "BCD":
            actor = warm.actors[node]
            assert actor.lam is None and not actor.transactions
            assert actor.memory is not None and not actor.remembered
        tree.remove_subtree("S")          # and back: B, C and D remember
        again = session.negotiate(tree.copy())
        same_as_cold(again, tree, transport)
        assert again.visited == {"R", "A", "B", "C", "D"}
        assert [again.actors[n].remembered for n in "RABCD"] \
            == [False, False, True, True, True]
        assert [(p, c) for p, c, _b, _t in again.exchanged] \
            == [("R", "A"), ("A", "B"), ("A", "C")]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_reverted_change_revives_the_memory_below_it(transport):
    tree = smooth_tree(40, 5)
    # an inner node that returns to its old place in the bandwidth order
    # (ties go by insertion, and a graft inserts last)
    node = max((n for n in tree.nodes() if n != tree.root
                and tree.children_by_bandwidth(tree.parent(n))[-1] == n),
               key=lambda n: len(tree.descendants(n)))
    assert len(tree.descendants(node)) > 3
    parent, cost, held = tree.parent(node), tree.c(node), tree.subtree(node)
    with Session(transport) as session:
        session.negotiate(tree.copy())
        tree.remove_subtree(node)
        same_as_cold(session.negotiate(tree.copy()), tree, transport)
        tree.add_subtree(parent, cost, held)
        back = session.negotiate(tree.copy())
        same_as_cold(back, tree, transport)
        # the pruned subtree kept what it knew while it was away
        assert back.actors[node].remembered
        assert all(back.actors[n].remembered for n in held.nodes())
        assert not any(p in held for p, _c, _b, _t in back.exchanged)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_two_change_points_whose_paths_merge_notify_each_edge_once(transport):
    tree = smooth_tree(60, 7)
    leaves = sorted(tree.leaves(), key=tree.depth)
    a, b = leaves[-1], next(
        leaf for leaf in reversed(leaves[:-1])
        if tree.parent(leaf) != tree.parent(leaves[-1])
        and set(tree.ancestors(leaf)) & set(tree.ancestors(leaves[-1]))
        - {tree.root})
    with Session(transport) as session:
        session.negotiate(tree.copy())
        tree.set_w(a, tree.w(a) * 2)
        tree.set_w(b, tree.w(b) * 2)
        warm = session.negotiate(tree.copy())
        cold = same_as_cold(warm, tree, transport)
    path = ({a, b} | set(tree.ancestors(a)) | set(tree.ancestors(b))) \
        - {tree.root}
    assert len(path) < tree.depth(a) + tree.depth(b)        # they do merge
    assert sorted(warm.notices, key=str) == sorted(path, key=str)
    assert warm.telemetry.value("protocol.notices") == len(path)
    assert traffic(warm) < cold.messages


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_twin_under_another_name_is_another_child(transport):
    """A subtree fingerprint is blind to names; a remembered transaction is
    not.  Replacing a leaf by its exact twin leaves every fingerprint where
    it was — and must still be told to the parent."""
    tree = smooth_tree(30, 2)
    leaf = tree.leaves()[0]
    parent, cost, w = tree.parent(leaf), tree.c(leaf), tree.w(leaf)
    with Session(transport) as session:
        session.negotiate(tree.copy())
        tree.remove_subtree(leaf)
        tree.add_node("twin", w, parent=parent, c=cost)
        warm = session.negotiate(tree.copy())
        same_as_cold(warm, tree, transport)
    assert "twin" in warm.visited and leaf not in warm.actors
    assert parent in warm.notices or parent == tree.root


def test_an_unchanged_platform_is_one_transaction():
    tree = smooth_tree(50, 3)
    with Session("tcp") as session:
        session.negotiate(tree)
        warm = session.negotiate(tree)
        same_as_cold(warm, tree)
        assert (warm.messages, warm.notices, warm.exchanged) == (2, (), [])
        assert warm.telemetry.value("runtime.tcp.octets") == 0
        assert warm.telemetry.value("protocol.remembered") == 1
        assert sequential_completion_time(warm) == 0
        other = session.negotiate(tree, proposal=F(1, 1000))
        assert other.throughput == bw_first(tree, F(1, 1000)).throughput
        assert not other.actors[tree.root].remembered


def test_a_session_can_learn_from_a_simulated_negotiation():
    tree = smooth_tree(40, 4)
    simulated = run_protocol(tree)
    with Session("tcp") as session:
        session.learn(simulated)
        leaf = tree.leaves()[0]
        tree.remove_subtree(leaf)
        warm = session.negotiate(tree.copy())
        cold = same_as_cold(warm, tree)
        assert traffic(warm) < cold.messages
        assert warm.telemetry.value("protocol.remembered") > 0
    gave_up = run_protocol(tree, failed=frozenset({tree.leaves()[0]}))
    assert gave_up.timeouts
    with Session("inproc") as session:
        session.learn(gave_up)               # nothing to learn from that
        assert session._standing.records == {}
        assert session.negotiate(tree).messages == bw_first(tree).message_count


# ----------------------------------------------------------------------
# the fence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_after_a_lossy_negotiation_the_next_one_is_cold(transport):
    tree = smooth_tree(30, 3)
    plan = FaultPlan(drop=F(1, 10), seed=6)
    make = InProcTransport if transport == "inproc" else TcpTransport
    cold = negotiate(tree, transport)
    with Session(make(plan=plan)) as session:
        lossy = session.negotiate(tree, retry=RetryPolicy(max_retries=5),
                                  base_timeout=0.002)
        assert lossy.dropped > 0 and lossy.retransmissions > 0
        assert lossy.throughput == cold.throughput
        assert session._standing.records == {} and session._loop is None
        session.transport.plan = None
        after = session.negotiate(tree)
        same_as_cold(after, tree, transport)
        assert (after.messages, after.notices) == (cold.messages, ())
        assert after.telemetry.value("protocol.remembered") == 0
        assert session.negotiate(tree).messages == 2        # and now warm


def test_a_failed_node_voids_what_was_remembered():
    """A parent that answered from memory would never find its child
    dead; so with a failed set nothing is remembered, before or after."""
    tree = smooth_tree(30, 3)
    victim = tree.leaves()[0]
    with Session("inproc") as session:
        session.negotiate(tree)
        pruned = session.negotiate(
            tree, failed=frozenset({victim}), base_timeout=0.002,
            retry=RetryPolicy(max_retries=1))
        assert pruned.timeouts and not pruned.telemetry.value(
            "protocol.remembered")
        assert pruned.throughput == bw_first(
            tree.without_subtrees({victim})).throughput
        assert session._standing.records == {}
        healed = session.negotiate(tree)
        assert healed.messages == negotiate(tree).messages


def test_a_new_master_voids_what_was_remembered():
    tree = smooth_tree(30, 4)
    with Session("inproc") as session:
        session.negotiate(tree.copy())
        tree.failover_root(tree.children_by_bandwidth(tree.root)[0])
        after = session.negotiate(tree.copy())
        cold = same_as_cold(after, tree)
        assert (after.messages, after.notices) == (cold.messages, ())
        assert session.negotiate(tree.copy()).messages == 2


def remembering_actor(sent: list) -> NodeActor:
    actor = NodeActor("P1", F(1, 2), "P0", [("P2", F(1))], sent.append)
    actor.memory = (F(2), F(1, 2), (("P2", F(1), F(0)),))
    return actor


def test_a_stale_acknowledgment_cannot_enter_through_a_memory():
    """Run *k*'s duplicate ack of xid 0 on edge P2→P1, met by run *k + 1*:
    a remembering P1 never opened a transaction, so there is none for the
    stale ack to settle — before its proposal or after."""
    sent = []
    actor = remembering_actor(sent)
    stale = Acknowledgment("P2", "P1", F(0), xid=0)
    with pytest.raises(ProtocolError, match="unexpected acknowledgment"):
        actor.handle(stale)
    actor.handle(Proposal("P0", "P1", F(2), xid=3))
    assert sent == [Acknowledgment("P1", "P0", F(1, 2), xid=3)]
    assert actor.remembered and actor.theta == F(1, 2)
    assert actor.transactions == [("P2", F(1), F(0))]
    with pytest.raises(ProtocolError, match="unexpected acknowledgment"):
        actor.handle(stale)
    actor.handle(Proposal("P0", "P1", F(2), xid=3))     # a retransmission
    assert sent[1:] == sent[:1]                         # is answered again
    # and a duplicate on the wire closes the session behind the run
    tree = smooth_tree(30, 3)
    plan = FaultPlan(duplicate=F(1, 10), seed=4)
    with Session(InProcTransport(plan=plan)) as session:
        dirty = session.negotiate(tree, retry=RetryPolicy(max_retries=3))
        assert dirty.duplicated and session._standing.records == {}


def test_another_beta_runs_algorithm_one_as_if_nothing_was_remembered():
    sent = []
    actor = remembering_actor(sent)
    actor.handle(Proposal("P0", "P1", F(3), xid=0))
    assert sent == [Proposal("P1", "P2", F(1), xid=0)]
    assert not actor.remembered and actor.transactions == []
    actor.handle(Acknowledgment("P2", "P1", F(1, 4), xid=0))
    assert sent[-1] == Acknowledgment("P1", "P0", F(7, 4), xid=0)


# ----------------------------------------------------------------------
# notices: hostile input
# ----------------------------------------------------------------------
class WarmCrank:
    """Two negotiations of one standing state, cranked by hand: the wire is
    a list, *meddle* may put anything on it before the second run."""

    def __init__(self, tree: Tree, changed: Tree):
        self.standing = Standing()
        self.run(tree)
        self.changed = changed

    def run(self, tree: Tree, meddle=None):
        wire = []
        core = Negotiation(tree, None, frozenset(), None, None, None, None,
                           now=lambda: 0, allowance=lambda node: 3)
        core.standing = self.standing
        seed = core.boot(wire.append)
        wire[:] = [*core.notices, seed]
        if meddle is not None:
            meddle(core, wire)
        sent = 0
        while core.theta is None:
            core.deliver(wire.pop(0))
            sent += 1
        core.check(frozenset(), None)
        result = core.result(0, {"protocol.messages": sent,
                                 "protocol.bytes": 0}, {})
        return core, result


def changed_pair():
    tree = smooth_tree(30, 3)
    changed = tree.copy()
    leaf = max(changed.leaves(), key=changed.depth)
    changed.set_w(leaf, changed.w(leaf) * 2)
    return tree, changed, leaf


def test_a_notice_is_one_more_row_of_the_kind_table():
    notice = Notice("n4", "n1")
    assert decode_body(encode_message(notice)) == notice
    assert decode_body(encode_any(notice)[8:]) == notice
    assert wire_size(notice) == 8
    assert encode_message(notice) == b'{"t":"note","s":"n4","r":"n1"}'
    for body in (b'{"t":"note","s":"n4"}', b'{"t":"note","r":"n1"}',
                 b'{"t":"note","s":["n4"],"r":"n1"}',
                 b'{"t":"note","s":"n4","r":{"n":1}}',
                 b'{"t":"notice","s":"n4","r":"n1"}', b'{"t":"note"',
                 b'["note","n4","n1"]'):
        with pytest.raises(CodecError) as caught:
            decode_body(body)
        assert caught.value.recoverable


@pytest.mark.parametrize("forged, match", [
    (lambda tree, leaf: Notice(leaf, tree.root), "non-child"),
    (lambda tree, leaf: Notice(tree.parent(leaf), leaf), "non-child"),
    (lambda tree, leaf: Notice("stranger", tree.parent(leaf)), "non-child"),
    (lambda tree, leaf: Notice(leaf, "nowhere"), "addressed to nobody"),
])
def test_a_forged_notice_raises_and_dirties_nothing(forged, match):
    tree, changed, leaf = changed_pair()
    assert tree.depth(leaf) > 1
    crank = WarmCrank(tree, changed)
    honest, result = crank.run(changed)
    memories = {n: a.memory for n, a in honest.actors.items()}
    crank = WarmCrank(tree, changed)

    def meddle(core, wire):
        assert {n: a.memory for n, a in core.actors.items()} == memories
        with pytest.raises(ProtocolError, match=match):
            core.deliver(forged(changed, leaf))
        # nobody forgot anything, nothing was queued: the run goes on
        assert {n: a.memory for n, a in core.actors.items()} == memories
        assert len(wire) == len(core.notices) + 1

    attacked, same = crank.run(changed, meddle)
    assert same.messages == result.messages
    assert {n: (a.lam, a.transactions) for n, a in attacked.actors.items()} \
        == {n: (a.lam, a.transactions) for n, a in honest.actors.items()}


def test_a_genuine_notice_changes_no_answer_either():
    """What is remembered is decided at boot, from the platform; the
    notices are what that costs on the wire.  Losing, repeating or
    reordering them cannot make an answer stale."""
    tree, changed, leaf = changed_pair()
    crank = WarmCrank(tree, changed)
    _, honest = crank.run(changed)
    assert honest.notices == tuple([leaf] + changed.ancestors(leaf)[:-1])

    def lose_and_repeat(core, wire):
        notices = [m for m in wire if isinstance(m, Notice)]
        wire[:] = [wire[-1], notices[-1], notices[-1], notices[0]]

    crank = WarmCrank(tree, changed)
    _, shuffled = crank.run(changed, lose_and_repeat)
    assert {n: (a.lam, a.transactions) for n, a in shuffled.actors.items()} \
        == {n: (a.lam, a.transactions) for n, a in honest.actors.items()}
    assert len(shuffled.exchanged) == len(honest.exchanged)


def test_a_notice_that_fails_a_session_run_leaves_it_cold_not_wedged():
    class Forging(InProcTransport):
        forge = False

        async def send(self, message):
            if self.forge and isinstance(message, Notice):
                # past the sender-side adjacency check, as a socket would
                self._deliver_local(Notice("stranger", message.receiver))
                return
            await super().send(message)

    tree, changed, _leaf = changed_pair()
    transport = Forging()
    with Session(transport) as session:
        session.negotiate(tree)
        transport.forge = True
        with pytest.raises(ProtocolError, match="non-child"):
            session.negotiate(changed)
        assert session._loop is None and session._standing.records == {}
        transport.forge = False
        after = session.negotiate(changed)
        assert after.messages == same_as_cold(after, changed).messages


def test_a_delayed_copy_does_not_outlive_its_run():
    """Nothing waits for a notice, so over a delaying transport one may
    still be in the air when its run ends; the next ``start`` takes it
    down instead of letting it land in another negotiation."""
    async def scenario():
        transport = InProcTransport(max_delay=0.01, seed=3)
        tree = Tree("P0", w=1)
        tree.add_node("P1", 1, parent="P0", c=1)
        inbox = asyncio.Queue()
        await transport.start(tree, {"P0": inbox, "P1": inbox})
        await transport.send(Notice("P1", "P0"))
        assert inbox.empty() and len(transport._late) == 1
        later = asyncio.Queue()
        await transport.start(tree, {"P0": later, "P1": later})
        await asyncio.sleep(0.03)
        assert inbox.empty() and later.empty() and not transport._late

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_counters_and_remembered_spans():
    tree, changed, leaf = changed_pair()
    registry = Registry()
    with Session("inproc") as session:
        first = session.negotiate(tree, telemetry=registry)
        assert {s.tags["outcome"] for s in registry.spans} == {"acked"}
        before = len(registry.spans)
        warm = session.negotiate(changed, telemetry=registry)
    spans = registry.spans[before:]
    assert len(spans) == 1 + len(warm.exchanged)            # one per exchange
    by_outcome = {}
    for span in spans:
        assert span.name == "transaction"
        by_outcome.setdefault(span.tags["outcome"], []).append(span.node)
    remembered = warm.telemetry.value("protocol.remembered")
    assert remembered == len(by_outcome["remembered"]) > 0
    assert set(by_outcome) == {"acked", "remembered"}
    assert all(warm.actors[node].remembered
               for node in by_outcome["remembered"])
    notices = warm.telemetry.value("protocol.notices")
    assert notices == len(warm.notices) == changed.depth(leaf)
    assert registry.value("protocol.notices") == notices
    assert registry.value("protocol.remembered") == remembered
    assert registry.value("protocol.messages") \
        == first.messages + warm.messages
    assert first.telemetry.value("protocol.notices") == 0


def test_a_one_shot_result_has_no_warm_counters():
    """The disabled path is the old one: a negotiation without a session
    carries no standing state, learns nothing and counts nothing new."""
    tree = smooth_tree(20, 1)
    result = negotiate(tree)
    assert result.notices == () and len(result.exchanged) == len(tree) - 1
    assert not any(actor.remembered or actor.memory
                   for actor in result.actors.values())
    for registry in (result.telemetry, run_protocol(tree).telemetry):
        names = {counter.name for counter in registry.counters()}
        assert "protocol.messages" in names
        assert not names & {"protocol.notices", "protocol.remembered"}


# ----------------------------------------------------------------------
# reference=: the executed path verifies against the solve it already has
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_no_second_solve_when_a_reference_is_supplied(transport, monkeypatch):
    tree, changed, _leaf = changed_pair()
    references = [bw_first(tree), bw_first(changed)]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return bwfirst.bw_first(*args, **kwargs)

    monkeypatch.setattr(runner, "bw_first", counting)
    with Session(transport) as session:
        for platform, reference in zip((tree, changed), references):
            result = session.negotiate(platform, reference=reference)
            assert result.throughput == reference.throughput
        assert calls == []
        session.negotiate(changed)
        assert len(calls) == 1
    assert negotiate(tree, transport, reference=references[0]).throughput \
        == references[0].throughput
    assert len(calls) == 1


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_wrong_reference_fails_closed(transport):
    tree, changed, leaf = changed_pair()
    grown = tree.copy()
    grown.add_node("extra", 2048, parent=leaf, c=1)
    # same numbers, other names: t_max and the throughput agree
    elsewhere = tree.relabel({n: f"x{n}" for n in tree.nodes()})
    with pytest.raises(ProtocolError, match="diverged|centralised"):
        negotiate(tree, transport, reference=bw_first(changed))
    with pytest.raises(ProtocolError, match="not on the negotiated platform"):
        negotiate(tree, transport, reference=bw_first(elsewhere))
    with pytest.raises(ProtocolError, match="t_max"):
        negotiate(tree, transport, reference=bw_first(tree, F(1, 7)))
    with Session(transport) as session:
        session.negotiate(tree)
        with pytest.raises(ProtocolError):
            session.negotiate(changed, reference=bw_first(grown))
        assert session._loop is None                 # fenced: all closed
        assert session.negotiate(changed).messages \
            == negotiate(changed).messages

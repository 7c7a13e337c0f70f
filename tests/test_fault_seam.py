"""One fault seam — every carrier asks one decider, and it stays that way.

Until PR 23 a :class:`~repro.faults.plan.FaultPlan`'s link rates became a
frame's fate in four places that each restated the rule, and the
restatements disagreed: over TCP a garbled frame could also be duplicated
(written twice, rejected twice), and the corruption streak lived per
receiving end rather than per link, so the same frames under the same plan
quarantined a link at a different frame than on the other two carriers.

These tests pin the agreement (frames pushed straight through ``send`` with
handlers and mailboxes stubbed, so no wall-clock retry timer can add an
address), compare every verdict with the oracle of
``tests/fault_oracles.py``, count the dice, and read ``src/`` so a second
statement of the rule cannot grow back.
"""

from __future__ import annotations

import ast
import asyncio
import random
import re
from fractions import Fraction as F

import pytest

from repro.exceptions import ProtocolError
from repro.faults import FaultPlan, FaultyNetwork, LinkFaultDecider, NodeCrash
from repro.faults.inject import GARBLED, LOST
from repro.faults.plan import Corruption, LinkFaults
from repro.platform.generators import smooth_tree
from repro.platform.tree import Tree
from repro.protocol.messages import Acknowledgment, Proposal
from repro.protocol.retry import RetryPolicy
from repro.protocol.runner import run_protocol
from repro.runtime import InProcTransport, TcpTransport

from .fault_oracles import fate_oracle
from .test_wire_structure import SRC, lines_with, sources, spans

INJECT = SRC / "faults" / "inject.py"


# ----------------------------------------------------------------------
# the same frames through each carrier's ``send``
# ----------------------------------------------------------------------
class Sink:
    """Every node's mailbox: counts what reached an actor."""

    def __init__(self):
        self.delivered = 0

    def put_nowait(self, message) -> None:
        self.delivered += 1


def through_network(tree, plan, frames, quarantine_after=None):
    """``(dropped, corrupted, duplicated)`` and, per frame, who was
    quarantined once it had been sent."""
    network = FaultyNetwork(tree, plan, quarantine_after=quarantine_after)
    for node in tree.nodes():
        network.register(node, lambda message: None)
    hostile = []
    for frame in frames:
        network.send(frame)
        hostile.append(set(network.quarantined))
    network.run()
    return (network.dropped, network.corrupted, network.duplicated), hostile


def through_transport(transport, tree, frames):
    """The same books from a wall-clock transport.  Each frame is waited
    for — delivered or rejected — before the next is sent, so the order
    frames are *received* in is the order they were sent in; sending stops
    at a quarantine (a firewalled TCP end counts nothing any more)."""

    async def scenario():
        sink = Sink()
        await transport.start(tree, {node: sink for node in tree.nodes()})
        hostile, written = [], 0
        try:
            for frame in frames:
                lost, copies = transport.dropped, transport.duplicated
                await transport.send(frame)
                written += 1 - (transport.dropped - lost) + (
                    transport.duplicated - copies)
                for _ in range(2000):
                    if (sink.delivered + transport.corrupt_frames
                            + transport.quarantine_dropped) == written:
                        break
                    await asyncio.sleep(0.001)
                else:
                    raise AssertionError(f"{frame!r} never arrived")
                hostile.append(set(transport.quarantined))
                if transport.quarantined:
                    break
        finally:
            await transport.close()
        return hostile

    hostile = asyncio.run(scenario())
    return (transport.dropped, transport.corrupt_frames,
            transport.duplicated), hostile


CARRIERS = {
    "virtual": through_network,
    "inproc": lambda tree, plan, frames, quarantine_after=None:
        through_transport(InProcTransport(
            plan=plan, quarantine_after=quarantine_after), tree, frames),
    "tcp": lambda tree, plan, frames, quarantine_after=None:
        through_transport(TcpTransport(
            plan=plan, quarantine_after=quarantine_after), tree, frames),
}


class RecordingNetwork(FaultyNetwork):
    """Keeps every frame the negotiation handed to ``send``."""

    def __init__(self, tree, plan):
        super().__init__(tree, plan)
        self.frames = []

    def send(self, message) -> None:
        self.frames.append(message)
        super().send(message)


def test_the_three_control_carriers_agree_on_every_count():
    """The frames of one real lossy negotiation — retransmissions and
    all — replayed through each carrier: one plan, one set of books."""
    tree = smooth_tree(30, 3)
    plan = FaultPlan(seed=1, drop=F(1, 10), corrupt=F(1, 5),
                     duplicate=F(1, 5))
    network = RecordingNetwork(tree, plan)
    run_protocol(tree, network=network, retry=RetryPolicy(max_retries=20))
    books = (network.dropped, network.corrupted, network.duplicated)
    assert books == (9, 29, 20) and len(network.frames) == 122
    # the other two are between the root and the application: never faulty
    frames = [frame for frame in network.frames
              if frame.sender in tree and frame.receiver in tree]
    assert len(frames) == 120

    for name, carrier in CARRIERS.items():
        assert carrier(tree, plan, frames)[0] == books, name


def test_a_garbled_frame_is_written_once_over_tcp():
    tree = smooth_tree(30, 3)
    plan = FaultPlan(seed=1, drop=F(1, 10), corrupt=F(1, 5),
                     duplicate=F(1, 5))
    frames = link_traffic(tree.parent("n7"), "n7", 80)
    transport = TcpTransport(plan=plan)
    through_transport(transport, tree, frames)
    assert transport.corrupt_frames == transport.corrupted_sent > 0
    assert transport.duplicated > 0


def link_traffic(parent, child, count):
    """*count* frames on one link, alternating direction."""
    return [
        Proposal(sender=parent, receiver=child, beta=F(1), xid=x)
        if x % 2 == 0 else
        Acknowledgment(sender=child, receiver=parent, theta=F(1), xid=x)
        for x in range(count)
    ]


def quarantining_frame(hostile):
    return next((index for index, who in enumerate(hostile) if who), None)


@pytest.mark.parametrize("seeds", [range(0, 15), range(15, 30)])
def test_the_three_control_carriers_quarantine_at_the_same_frame(seeds):
    """The streak is per link — either direction feeds it, a clean frame
    in either direction resets it, a lost frame leaves it alone.  After
    the quarantining frame the carriers differ by design (the virtual
    network keeps delivering, the wall-clock ones go dark), so only the
    frame is compared."""
    tree = Tree("root", w=2)
    tree.add_node("a", 2, parent="root", c=1)
    frames = link_traffic("root", "a", 80)
    found = 0
    for seed in seeds:
        plan = FaultPlan(seed=seed, corrupt=F(1, 2), drop=F(1, 10))
        at = {name: quarantining_frame(carrier(tree, plan, frames, 3)[1])
              for name, carrier in CARRIERS.items()}
        assert len(set(at.values())) == 1, (seed, at)
        found += at["virtual"] is not None
    assert found == len(seeds)


# ----------------------------------------------------------------------
# every verdict is the oracle's, at the same address
# ----------------------------------------------------------------------
RATES = (F(0), F(0), F(1, 10), F(1, 3), F(1, 2), F(9, 10))


def test_every_verdict_equals_the_oracles_at_the_same_address():
    rng = random.Random(23)
    seen = set()
    for _ in range(200):
        plan = FaultPlan(
            seed=rng.randrange(1000),
            drop=rng.choice(RATES), corrupt=rng.choice(RATES),
            duplicate=rng.choice(RATES),
            links=(LinkFaults("b", drop=rng.choice(RATES),
                              corrupt=rng.choice(RATES),
                              duplicate=rng.choice(RATES)),),
            corruptions=(Corruption("a", rng.choice(RATES[2:]),
                                    start=F(2), end=F(6)),),
            task_drop=rng.choice(RATES), task_corrupt=rng.choice(RATES),
        )
        decider = LinkFaultDecider(plan)
        child = rng.choice(("a", "b"))
        message = Proposal(sender="root", receiver=child, beta=F(1),
                           xid=rng.choice((None, rng.randrange(50))))
        coordinates = decider.coordinates(message)
        # the address is the parent's: xid + occurrence, or the ordinal
        assert coordinates == (
            ("root", child, 0) if message.xid is None
            else ("root", child, "xid", message.xid, 0))
        now = rng.choice((None, F(1), F(3), F(6)))
        rate = plan.link_corrupt(child) if now is None else (
            plan.corruption_rate(child, now))
        verdict = decider.judge(child, coordinates, now)
        assert verdict == fate_oracle(
            plan, ("drop", "corrupt", "duplicate"),
            (plan.link_drop(child), rate, plan.link_duplicate(child)),
            coordinates)
        seen.add(verdict)

        task, attempt = rng.randrange(10_000), rng.randrange(1, 6)
        fate = decider.judge_task(child, task, attempt)
        assert fate == fate_oracle(
            plan, ("task_drop", "task_corrupt", "task_duplicate"),
            (plan.task_drop, plan.task_corrupt, 0),
            (str(child), task, attempt))
        seen.add(("task", fate))
    assert seen == {LOST, GARBLED, 1, 2,
                    ("task", LOST), ("task", GARBLED), ("task", 1)}


def test_the_streak_is_per_link_and_a_clean_frame_resets_it():
    decider = LinkFaultDecider(FaultPlan(), quarantine_after=3)
    assert not decider.received("a", False)
    assert not decider.received("b", False)     # another link's streak
    assert not decider.received("a", False)
    assert decider.received("a", True) is False and "a" not in decider.streaks
    assert [decider.received("a", False) for _ in range(4)] == [
        False, False, True, True]
    assert decider.streaks == {"a": 4, "b": 1}
    unarmed = LinkFaultDecider(FaultPlan())
    assert not any(unarmed.received("a", False) for _ in range(10))


# ----------------------------------------------------------------------
# dice nobody can lose are not rolled
# ----------------------------------------------------------------------
def count_decisions(monkeypatch, plan, tree):
    calls = []
    decision = FaultPlan.decision
    monkeypatch.setattr(
        FaultPlan, "decision",
        lambda self, *coordinates: (calls.append(coordinates),
                                    decision(self, *coordinates))[1])
    network = FaultyNetwork(tree, plan)
    result = run_protocol(tree, network=network,
                          retry=RetryPolicy(max_retries=20))
    return calls, network, result


def test_a_plan_with_crashes_only_rolls_no_dice(monkeypatch):
    tree = smooth_tree(120, 1)
    plan = FaultPlan(seed=1, crashes=(NodeCrash("n100", F(5)),))
    calls, network, _ = count_decisions(monkeypatch, plan, tree)
    assert network.messages_sent == 240 and calls == []


def test_a_drop_only_plan_rolls_one_die_per_frame(monkeypatch):
    tree = smooth_tree(120, 1)
    plan = FaultPlan(seed=1, drop=F(1, 10))
    calls, network, result = count_decisions(monkeypatch, plan, tree)
    on_tree_links = network.messages_sent - 2     # the root's virtual parent
    assert len(calls) == on_tree_links > 238
    assert {stream for stream, *_ in calls} == {"drop"}
    assert network.dropped == result.dropped > 0


# ----------------------------------------------------------------------
# the fork cannot grow back
# ----------------------------------------------------------------------
def test_a_draw_is_taken_in_the_decider_only():
    """``FaultPlan.decision`` is referred to twice in ``src/``, both times
    inside ``LinkFaultDecider``: in ``_fate``, the one function that
    compares a draw with a rate, and in ``delay`` — the in-proc
    transport's delivery-delay stream, a draw that is scaled, not
    compared, and the one listed exception to "a draw is a verdict"."""
    (fate,) = spans(INJECT, "_fate")
    (delay,) = spans(INJECT, "delay")
    found = [(path, node.lineno) for path, text in sources()
             for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Attribute) and node.attr == "decision"]
    assert [path for path, _ in found] == [INJECT, INJECT]
    first, second = sorted(number for _, number in found)
    assert first in fate and second in delay
    compared = [node.lineno for node in ast.walk(ast.parse(INJECT.read_text()))
                if isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Call)
                and getattr(node.left.func, "id", None) == "draw"]
    assert len(compared) == 3 and all(number in fate for number in compared)


def test_link_rates_have_no_caller_outside_faults():
    for path, text in sources():
        if path.parent == SRC / "faults":
            continue
        for name in ("link_drop", "link_duplicate", "link_corrupt",
                     "corruption_rate"):
            assert not lines_with(text, name), (path, name)


def test_the_old_seams_are_spelled_nowhere():
    for path, text in sources():
        for name in ("full_verdict", "_note_corrupt", "_child_endpoint",
                     "_decision_plan", "_on_tree_link"):
            assert not lines_with(text, name), (path, name)
        assert not re.search(r"\.verdict\(", text), path


def test_the_quarantine_threshold_is_checked_once():
    needle = "quarantine_after must be"
    (decider,) = spans(INJECT, "LinkFaultDecider")
    for path, text in sources():
        hits = lines_with(text, needle)
        if path == INJECT:
            assert len(hits) == 1 and hits[0] in decider
        elif path == SRC / "faults" / "recovery.py":
            assert len(hits) == 1    # resilient_run's own argument, a
            #                          FaultError before any network exists
        else:
            assert not hits, path
    for make in (InProcTransport, TcpTransport):
        with pytest.raises(ProtocolError, match=needle):
            make(quarantine_after=0)

"""Tests for repro.taskplane: frames, buffers, ledger, worker, cluster specs.

The live data plane's correctness rests on small synchronous pieces —
checksummed payload frames, credit-bounded buffers, retention/dedup
accounting, the paced worker pool — each directly testable without a
single socket.  The property tests hold the credit protocol and the
analytic buffer bound of :func:`~repro.analysis.buffers
.taskplane_buffer_bounds` against each other: a buffer fed through a
correctly-used :class:`CreditAccount` can *never* overflow, which is what
lets E30 treat an overflow as a plane bug rather than congestion.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.buffers import taskplane_buffer_bounds
from repro.cli import main
from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.exceptions import CodecError, ProtocolError, TaskPlaneError
from repro.faults.plan import FaultPlan
from repro.platform.examples import paper_figure4_tree
from repro.platform.generators import random_tree, smooth_tree
from repro.protocol.messages import Acknowledgment, Notice, Proposal
from repro.protocol.runner import run_protocol
from repro.runtime.codec import (FRAME_HEADER, _dump, decode_body, encode_any,
                                 encode_blob, encode_message, parse_body,
                                 register_frame_kind)
from repro.runtime.transport import InProcTransport, TcpTransport
from repro.schedule.eventdriven import build_schedules
from repro.schedule.periods import tree_periods
from repro.taskplane import (BoundedBuffer, ClusterPlane, CreditAccount,
                             CreditGrant, DeliveryAck, DeliveryLog, NodeSpec,
                             ResendRequest, ResultReport, RetentionBuffer,
                             Stop, Stopped, TaskFrame, TaskLedger, TaskPlane,
                             TaskPlaneNode, WorkerPool, make_task, payload_crc,
                             run_plane)
from repro.taskplane.cluster import local_schedule
from repro.taskplane.frames import EXEC_KINDS, FRAME_KINDS
from repro.taskplane.plane import ChildLink
from repro.telemetry.core import NullRegistry, Registry

from .taskplane_oracles import (WIRE_FORMAT, DispatchSpy, oracle_payload,
                               replayed_dispatches)


def round_trip(frame):
    """Encode through the shared wire framing, decode the body back."""
    return decode_body(encode_any(frame)[FRAME_HEADER.size:])


# ----------------------------------------------------------------------
# payload frames on the shared codec
# ----------------------------------------------------------------------
class TestFrames:
    def test_task_frame_round_trip(self):
        frame = make_task("P0", "P1", 7, b"\x00\xff binary \n payload")
        decoded = round_trip(frame)
        assert decoded == frame
        assert decoded.intact

    @pytest.mark.parametrize("frame", [
        DeliveryAck(sender="P1", receiver="P0", task_id=3),
        ResendRequest(sender="P2", receiver="P0", task_id=9),
        CreditGrant(sender="P1", receiver="P0", amount=2),
        ResultReport(sender="P1", receiver="P0", task_id=5, origin="P7"),
        Stop(sender="P0", receiver="P1"),
        Stopped(sender="P1", receiver="P0", completed=42),
    ])
    def test_control_frames_round_trip(self, frame):
        assert round_trip(frame) == frame

    def test_end_to_end_checksum_survives_reframing(self):
        """A payload garbled *before* encoding re-frames cleanly — the
        transport CRC passes — but the origin checksum still catches it."""
        frame = make_task("P0", "P1", 1, b"eight by" * 8)
        garbled = TaskFrame(sender=frame.sender, receiver=frame.receiver,
                            task_id=frame.task_id,
                            payload=b"X" + frame.payload[1:],
                            crc=frame.crc, kind=frame.kind)
        decoded = round_trip(garbled)   # wire framing is perfectly happy
        assert not decoded.intact       # delivery rejects it end-to-end
        assert decoded.crc == payload_crc(frame.payload)

    def test_interleaves_with_negotiation_frames(self):
        control = Proposal(sender="P0", receiver="P1",
                           beta=Fraction(10, 9), xid=2)
        assert round_trip(control) == control

    @pytest.mark.parametrize("payload", [
        {"t": "task", "s": "P0", "r": "P1", "id": 1, "p": "!!!", "c": 0,
         "k": "bytes"},
        {"t": "task", "s": "P0", "r": "P1", "id": 1, "p": "AAAA", "c": 0,
         "k": "weird"},
        {"t": "task", "s": "P0", "r": "P1", "id": "x", "p": "AAAA", "c": 0,
         "k": "bytes"},
        {"t": "task", "s": "P0", "r": "P1", "id": 1, "p": "AAAA", "c": -1,
         "k": "bytes"},
        {"t": "task", "s": "P0", "r": "P1", "id": 1, "p": "AAAA",
         "c": 1 << 32, "k": "bytes"},
        {"t": "tcr", "s": "P1", "r": "P0", "n": 0},
        {"t": "tcr", "s": "P1", "r": "P0", "n": -3},
        {"t": "tdone", "s": "P1", "r": "P0", "n": "many"},
        {"t": "tdone", "s": "P1", "r": "P0", "n": -1},
    ])
    def test_malformed_fields_raise_codec_error(self, payload):
        with pytest.raises(CodecError) as excinfo:
            decode_body(json.dumps(payload).encode("utf-8"))
        assert excinfo.value.recoverable

    #: one valid frame per kind: the matrix below breaks one field at a time
    SPECIMENS = [
        make_task("P0", "P1", 7, b"payload"),
        DeliveryAck(sender="P1", receiver="P0", task_id=3),
        ResendRequest(sender="P2", receiver="P0", task_id=9),
        CreditGrant(sender="P1", receiver="P0", amount=2),
        ResultReport(sender="P1", receiver="P0", task_id=5, origin="P7"),
        Stop(sender="P0", receiver="P1"),
        Stopped(sender="P1", receiver="P0", completed=42),
    ]
    NAME_KEYS = {"s", "r", "o"}

    def test_the_specimens_cover_the_frame_table(self):
        assert ({type(frame) for frame in self.SPECIMENS}
                == set(FRAME_KINDS.values()))

    @pytest.mark.parametrize("frame", SPECIMENS,
                             ids=lambda frame: type(frame).__name__)
    def test_every_hostile_field_is_a_recoverable_codec_error(self, frame):
        """Every kind × every field × {missing, wrong type, unhashable,
        JSON ``true`` where a number or string belongs}: a recoverable
        ``CodecError``, never another exception and never a frame."""
        good = oracle_payload(frame)
        assert decode_body(json.dumps(good).encode()) == frame
        fields = [key for key in good if key != "t"]
        assert fields
        for key in fields:
            hostile = [("missing", None), ("wrong type", [1]),
                       ("unhashable", {"a": 1}), ("float", 1.5)]
            if key not in self.NAME_KEYS:   # true is a (strange) node name
                hostile.append(("true", True))
            for what, value in hostile:
                payload = dict(good)
                if what == "missing":
                    del payload[key]
                else:
                    payload[key] = value
                with pytest.raises(CodecError) as excinfo:
                    decode_body(json.dumps(payload).encode())
                assert excinfo.value.recoverable, (key, what)

    def test_control_kinds_are_reserved(self):
        with pytest.raises(ProtocolError):
            register_frame_kind("prop", lambda payload: payload)

    CONTROL = [
        Proposal(sender="P0", receiver="P1", beta=Fraction(10, 9), xid=2),
        Proposal(sender="P0", receiver=3, beta=Fraction(5), xid=None,
                 trace="t-1"),
        Acknowledgment(sender="P1", receiver="P0", theta=Fraction(1, 3),
                       xid=2, trace="t-é"),
        Notice(sender="P1", receiver="P0"),
    ]

    def test_the_prebuilt_encoder_writes_json_dumps_bytes(self):
        """Every frame body goes through one compact encoder built once;
        it writes what ``json.dumps(..., separators=(",", ":"))`` wrote."""
        payloads = [oracle_payload(frame) for frame in self.SPECIMENS]
        payloads += [parse_body(encode_message(m)) for m in self.CONTROL]
        payloads += [{"hello": "P\u00e9"}, {"hello": None}, {"hello": 7}]
        for payload in payloads:
            assert _dump(payload) == json.dumps(
                payload, separators=(",", ":")).encode("utf-8")
        for message in self.CONTROL:
            assert _dump(parse_body(encode_message(message))) \
                == encode_message(message)

    def test_the_oracle_covers_the_frame_table(self):
        assert set(WIRE_FORMAT) == set(FRAME_KINDS.values())
        for cls, (kind, keys) in WIRE_FORMAT.items():
            assert FRAME_KINDS[kind] is cls
            assert [name for _, name in keys] == [
                f.name for f in dataclasses.fields(cls)]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_body_is_the_dump_of_the_oracle_dict(self, data):
        """``to_body()`` — one ``bytes`` template ``%`` the fields — writes
        exactly what the JSON encoder writes for the frame's dict, for every
        kind and every name JSON can carry: ``str`` (non-ASCII, quotes,
        control characters), ``int``, ``None`` and ``bool``, whose ``True``
        shares ``1``'s hash but not its JSON."""
        names = st.one_of(st.text(max_size=8), st.integers(), st.none(),
                          st.booleans(),
                          st.sampled_from(["P0", "Pé", "日本", 'q"\\']))
        count = st.integers(min_value=0, max_value=1 << 40)
        cls = data.draw(st.sampled_from(sorted(WIRE_FORMAT,
                                               key=lambda c: c.__name__)))
        values = {f.name: data.draw(names) for f in dataclasses.fields(cls)
                  if f.name in ("sender", "receiver", "origin")}
        if cls is TaskFrame:
            frame = make_task(**values, task_id=data.draw(count),
                              payload=data.draw(st.binary(max_size=80)),
                              kind=data.draw(st.sampled_from(EXEC_KINDS)))
        else:
            for f in dataclasses.fields(cls):
                if f.name not in values:
                    values[f.name] = data.draw(
                        count if f.name != "amount" else count.map(
                            lambda n: n + 1))
            frame = cls(**values)
        body = frame.to_body()
        assert body == _dump(oracle_payload(frame))
        assert encode_any(frame) == encode_blob(body)
        assert round_trip(frame) == frame

    @pytest.mark.parametrize("value", [True, 1.0, "7", None])
    def test_an_integer_field_holds_an_int_or_is_refused(self, value):
        """``%d`` would write ``True`` as 1 and 1.5 as 1 — a frame its
        reader would refuse (or misread) is refused where it is written."""
        with pytest.raises(ProtocolError, match="integer field"):
            DeliveryAck(sender="P1", receiver="P0", task_id=value).to_body()


# ----------------------------------------------------------------------
# credit-bounded buffers
# ----------------------------------------------------------------------
class TestBoundedBuffer:
    def test_fifo_and_peak(self):
        buffer = BoundedBuffer(3)
        for item in "abc":
            buffer.put(item)
        assert buffer.peak == 3
        assert [buffer.get() for _ in range(3)] == list("abc")
        assert buffer.depth == 0
        assert buffer.peak == 3   # high-water mark is sticky

    def test_overflow_is_a_bug(self):
        buffer = BoundedBuffer(1)
        buffer.put("a")
        with pytest.raises(TaskPlaneError):
            buffer.put("b")

    def test_empty_get_raises(self):
        with pytest.raises(TaskPlaneError):
            BoundedBuffer(1).get()

    def test_capacity_must_be_positive(self):
        with pytest.raises(TaskPlaneError):
            BoundedBuffer(0)


class TestCreditAccount:
    def test_spend_and_grant_conserve(self):
        account = CreditAccount({"A": 2})
        account.spend("A")
        account.spend("A")
        assert account.available("A") == 0
        account.grant("A", 2, capacity=2)
        assert account.available("A") == 2

    def test_spend_without_credit_raises(self):
        with pytest.raises(TaskPlaneError):
            CreditAccount({"A": 0}).spend("A")

    def test_grant_beyond_capacity_raises(self):
        account = CreditAccount({"A": 2})
        with pytest.raises(TaskPlaneError):
            account.grant("A", 1, capacity=2)

    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=8),
           ops=st.lists(st.booleans(), max_size=200))
    def test_credit_protocol_makes_overflow_impossible(self, capacity, ops):
        """Any interleaving of credited sends and draining gets keeps the
        buffer within its bound: backpressure is structural, not measured."""
        account = CreditAccount({"child": capacity})
        buffer = BoundedBuffer(capacity)
        for send in ops:
            if send:
                if account.available("child") > 0:
                    account.spend("child")
                    buffer.put(object())   # must never raise
            elif buffer.depth:
                buffer.get()
                account.grant("child", 1, capacity)
        assert buffer.peak <= capacity


class TestAnalyticBounds:
    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_are_chi_in_plus_in_flight_slack(self, seed):
        tree = random_tree(n=7, seed=seed)
        allocation = from_bw_first(bw_first(tree))
        periods = tree_periods(allocation)
        bounds = taskplane_buffer_bounds(periods, tree.root)
        assert tree.root not in bounds   # the root generates, never buffers
        for node, bound in bounds.items():
            assert bound == periods[node].chi_in + 2
            assert bound >= 3


# ----------------------------------------------------------------------
# accounting: retention, dedup, the root ledger
# ----------------------------------------------------------------------
class TestRetention:
    def test_hold_touch_release(self):
        retention = RetentionBuffer()
        frame = make_task("P0", "P1", 4, b"x")
        assert retention.hold(frame, "P1", now=1.0) == 1
        held, child, attempt = retention.touch(4, now=2.0)
        assert (held, child, attempt) == (frame, "P1", 2)
        assert retention.release(4)
        assert not retention.release(4)          # second ack: no-op
        assert retention.touch(4, now=3.0) is None   # stale nak

    def test_due_respects_timeout(self):
        retention = RetentionBuffer()
        retention.hold(make_task("P0", "P1", 1, b"x"), "P1", now=0.0)
        retention.hold(make_task("P0", "P1", 2, b"x"), "P1", now=0.9)
        assert retention.due(now=1.0, timeout=0.5) == [1]


class TestLedger:
    def test_delivery_dedup(self):
        log = DeliveryLog()
        assert log.first_delivery(7)
        assert not log.first_delivery(7)
        assert log.duplicates == 1

    def test_duplicate_results_suppressed(self):
        ledger = TaskLedger()
        assert [ledger.record_generated() for _ in range(3)] == [0, 1, 2]
        assert ledger.record_completed(0, now=1.0)
        assert not ledger.record_completed(0, now=1.5)
        assert ledger.duplicates == 1
        assert ledger.completed == 1
        assert ledger.outstanding == 2

    def test_a_result_for_a_task_never_minted_is_refused(self):
        ledger = TaskLedger()
        for _ in range(3):
            ledger.record_generated()
        for task_id in (-1, 3, 10**9):
            assert not ledger.record_completed(task_id, now=1.0)
        assert ledger.strays == 3 and ledger.completed == 0
        assert ledger.record_completed(2, now=1.0) and ledger.strays == 3
        assert ledger.outstanding == 2 and ledger.duplicates == 0

    def test_steady_rate_window(self):
        ledger = TaskLedger()
        for i in range(10):
            ledger.record_generated()
            ledger.record_completed(i, now=0.1 * (i + 1))
        # warmup trims the first quarter; the drain tail past `until` is
        # excluded: 8 completions inside [0.25, 1.0]
        rate = ledger.steady_rate(until=1.0, warmup=0.25)
        assert rate == pytest.approx(8 / 0.75)

    def test_steady_rate_needs_samples(self):
        ledger = TaskLedger()
        assert ledger.steady_rate() is None
        ledger.record_generated()
        ledger.record_completed(0, now=1.0)
        assert ledger.steady_rate(until=1.0) is None


# ----------------------------------------------------------------------
# the paced worker pool
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _boom():
    raise RuntimeError("payload bug")


class TestWorkerPool:
    def test_slots_anchor_at_the_previous_horizon(self):
        pool = WorkerPool(Fraction(2), time_scale=0.1)
        assert pool.task_seconds == pytest.approx(0.05)
        assert pool.slot(arrival=0.0) == pytest.approx(0.05)
        # a task queued at 0.0 but dispatched late still starts where the
        # previous slot ended — overshoot cannot accumulate into rate loss
        assert pool.slot(arrival=0.0) == pytest.approx(0.10)
        # after an idle gap the slot anchors at the arrival instead
        assert pool.slot(arrival=1.0) == pytest.approx(1.05)

    def test_call_payloads_execute(self):
        pool = WorkerPool(Fraction(1), time_scale=0.01, keep_results=True)
        frame = make_task("P0", "P0", 3, pickle.dumps((_square, (9,))),
                          kind="call")
        pool.execute(frame)
        assert pool.completed == 1
        assert pool.results == {3: 81}

    def test_failing_payload_is_a_caller_bug(self):
        pool = WorkerPool(Fraction(1), time_scale=0.01)
        frame = make_task("P0", "P0", 0, pickle.dumps((_boom, ())),
                          kind="call")
        with pytest.raises(TaskPlaneError):
            pool.execute(frame)

    def test_rate_must_be_positive(self):
        with pytest.raises(TaskPlaneError):
            WorkerPool(Fraction(0), time_scale=0.01)


def test_plane_is_a_real_execution_substrate(two_level_tree):
    """``call`` payloads run actual Python callables across the plane and
    their results land back at the root, exactly once each."""
    plane = TaskPlane(
        two_level_tree, "inproc", time_scale=0.01, max_tasks=16,
        payload_factory=lambda i: pickle.dumps((_square, (i,))),
        exec_kind="call", keep_results=True,
    )
    report = plane.run()
    assert report.lost == 0 and report.duplicates == 0
    assert plane.results == {i: i * i for i in range(16)}


# ----------------------------------------------------------------------
# one dispatcher per engine: what a running plane owns, in what order it
# dispatches, how it ends
# ----------------------------------------------------------------------
def bare_engine(**overrides) -> TaskPlaneNode:
    """A root engine nobody runs: its books, no loop."""
    config = dict(clock=lambda: 0.0, send=None, parent=None, links=[],
                  all_children=[], schedule=None, rate=Fraction(1),
                  capacity=1, time_scale=0.01, ledger=TaskLedger(),
                  max_tasks=None)
    config.update(overrides)
    return TaskPlaneNode("P0", **config)


def test_a_frame_cannot_swallow_the_dispatchers_cancellation():
    """A frame and the plane's shutdown in the same loop pass: the
    dispatcher must end cancelled, not serve the frame and wait again.  (Its
    predecessor, a router loop on ``asyncio.wait_for`` (3.11), returned from
    the wait normally and ran on, so a plane failing mid-traffic — an
    oversized payload at ``send()`` — never finished closing.)"""
    async def scenario():
        engine = bare_engine(clock=asyncio.get_running_loop().time,
                             all_children=["P1"])
        (coroutine,) = engine.loops()
        dispatcher = asyncio.ensure_future(coroutine)
        await asyncio.sleep(0.01)           # parked on its waiter
        assert engine._waiter is not None
        engine.put_nowait(Stopped(sender="P9", receiver="P0"))
        dispatcher.cancel()
        await asyncio.wait({dispatcher}, timeout=2)
        ended = dispatcher.done() and dispatcher.cancelled()
        dispatcher.cancel()
        return ended, engine

    ended, engine = asyncio.run(scenario())
    assert ended
    assert len(engine._queue) == 1 and not engine._timers   # never served


def test_an_engine_refuses_a_schedule_its_links_do_not_match(paper_tree):
    schedule = build_schedules(from_bw_first(bw_first(paper_tree)))["P0"]
    links = [ChildLink(child, paper_tree.c(child), 3)
             for child in schedule.quantities if child != "P0"]
    assert bare_engine(schedule=schedule, links=links).worker is not None
    for wrong in (links[1:], links + [ChildLink("P9", Fraction(1), 3)]):
        with pytest.raises(TaskPlaneError):
            bare_engine(schedule=schedule, links=wrong)


class TestOwnedTasks:
    @staticmethod
    async def census(nodes: int, base):
        """Run a small plane on ``smooth_tree(nodes)``; at every task the
        root mints, count the asyncio tasks the plane owns and the engines
        that have a timer armed though no task ever reached them."""
        tree = smooth_tree(nodes, 2)
        before, owned, idle_armed = asyncio.all_tasks(), [], []
        plane = None

        def probe(task_id: int) -> bytes:
            owned.append(len(asyncio.all_tasks() - before))
            idle_armed.append([
                name for name, engine in plane.nodes.items()
                if engine._timers and engine.parent is not None
                and not engine.delivery._seen])
            return b"payload!"

        plane = TaskPlane(tree, base(), time_scale=0.002, max_tasks=24,
                          payload_factory=probe)
        report = await plane.arun()
        assert report.lost == 0 and len(owned) == 24
        return plane, set(owned), idle_armed

    @pytest.mark.parametrize("base", [InProcTransport, TcpTransport],
                             ids=["inproc", "tcp"])
    def test_one_task_per_engine_at_any_tree_size(self, base):
        """No task per loop, per queue or per armed timer: mid-run, the
        plane owns one task per engine at 12 nodes and at 400."""
        for nodes in (12, 400):
            _, owned, _ = asyncio.run(self.census(nodes, base))
            assert owned == {nodes}

    def test_an_engine_nothing_reaches_arms_no_timer(self):
        """Most of a 400-node platform is never visited by the schedule:
        those engines park on their waiter with no timer armed until their
        Stop arrives, and nobody leaves a timer behind."""
        plane, _, idle_armed = asyncio.run(self.census(400, InProcTransport))
        assert not any(idle_armed)
        unvisited = {name for name, engine in plane.nodes.items()
                     if not engine.delivery._seen and not engine.is_root}
        # the tasks' destinations are fixed by the schedule, not by timing
        tree = plane.tree
        reached = replayed_dispatches(
            tree, build_schedules(from_bw_first(bw_first(tree))), 24)
        assert unvisited == set(tree.nodes()) - {tree.root} - {
            dest for sequence in reached.values() for dest in sequence}
        assert len(unvisited) == 293
        assert all(engine.done and not engine._timers
                   for engine in plane.nodes.values())


class TestDispatchSequence:
    """Section 6.2, live: on a fault-free run every engine routes the j-th
    task it takes to ``schedule.destination(j)`` — the sequences a replay
    of the schedules on task counts alone predicts, node for node."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_every_engine_dispatches_in_destination_order(self, transport,
                                                          seed):
        tree = (paper_figure4_tree() if seed is None
                else random_tree(10, seed=seed))
        with DispatchSpy() as spy:
            report = run_plane(tree, transport, max_tasks=60,
                               time_scale=0.002)
        assert (report.completed, report.lost) == (60, 0)
        schedules = build_schedules(from_bw_first(bw_first(tree)))
        assert spy.routed == replayed_dispatches(tree, schedules, 60)
        assert spy.routed[tree.root] == [
            schedules[tree.root].destination(j) for j in range(60)]

    @pytest.mark.parametrize("seed", range(8))
    def test_routing_stops_exactly_at_a_head_that_cannot_take(self, seed):
        """Every node's schedule as an endless supply, driven by a random
        script of returned credits and ended executions: the tasks go out
        in ``destination(j)`` order and a pass stops only at a head that
        cannot take — no later task overtakes a credit-less child."""
        tree = paper_figure4_tree() if seed == 0 else random_tree(9, seed)
        rng = random.Random(seed)
        for node, schedule in build_schedules(
                from_bw_first(bw_first(tree))).items():
            links = [ChildLink(child, tree.c(child), 1 + index % 3)
                     for index, child in enumerate(schedule.quantities)
                     if child != node]
            with DispatchSpy() as spy:
                engine = TaskPlaneNode(
                    node, clock=lambda: 0.0, send=None, parent=None,
                    links=links, all_children=[l.name for l in links],
                    schedule=schedule, rate=tree.rate(node), capacity=1,
                    time_scale=0.003, ledger=TaskLedger())
            now = 0.0
            for _ in range(200):
                now += rng.random() * 0.006
                for link in links:
                    spent = link.capacity - engine.credits.available(link.name)
                    if spent:
                        engine.credits.grant(link.name, rng.randint(0, spent),
                                             link.capacity)
                for _ in range(rng.randint(0, len(engine._cpu))):
                    engine._cpu.popleft()
                engine._route(now)
                sent = spy.dispatches[node]
                assert sent == [schedule.destination(j)
                                for j in range(len(sent))], (node, now)
                head = schedule.destination(len(sent))
                assert (len(engine._cpu) >= 2 if head == node
                        else not engine.credits.available(head)), (node, now)
            assert len(spy.dispatches[node]) > 100

    def test_a_cluster_node_orders_its_bunch_as_the_simulator_does(self):
        """What a cluster process builds from its own actor's α and
        transactions is ``build_schedules``' order, and its active links
        are the children that order names — no process needed: the
        actors of an in-memory negotiation hold the same state."""
        for seed in range(50):
            tree = random_tree(12, seed=seed)
            schedules = build_schedules(from_bw_first(bw_first(tree)))
            actors = run_protocol(tree).actors
            specs, _, _ = ClusterPlane(tree, max_tasks=1)._specs()
            for node, spec in specs.items():
                actor = actors[node]
                schedule, links = local_schedule(spec, actor.alpha,
                                                 actor.transactions)
                expected = schedules.get(node)
                if expected is None:
                    assert schedule is None and not links, (seed, node)
                    continue
                assert schedule.order == expected.order, (seed, node)
                assert {link.name for link in links} \
                    == set(expected.quantities) - {node}


class TestLaunchArguments:
    """A run no launcher can honour is refused before anything starts."""

    BAD = [dict(max_tasks=-3), dict(max_tasks=None, duration=-1),
           dict(max_tasks=None, duration=0.0),
           dict(max_tasks=None, duration=float("nan")),
           dict(max_tasks=None), dict(time_scale=0),
           dict(time_scale=-0.5), dict(time_scale=float("nan"))]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_the_in_process_plane_refuses(self, paper_tree, bad):
        with pytest.raises(TaskPlaneError):
            TaskPlane(paper_tree, "inproc", **bad)
        with pytest.raises(TaskPlaneError):
            run_plane(paper_tree, **bad)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_the_cluster_refuses_before_it_spawns(self, paper_tree, bad,
                                                  monkeypatch):
        def spawn(*args, **kwargs):
            raise AssertionError("a process was about to be spawned")

        monkeypatch.setattr("multiprocessing.get_context", spawn)
        with pytest.raises(TaskPlaneError):
            ClusterPlane(paper_tree, **bad).run()

    def test_the_cli_exits_non_zero_with_the_message(self, capsys):
        assert main(["exec", "--tasks", "-3"]) != 0
        assert "max_tasks must be >= 0, got -3" in capsys.readouterr().err


class TestStrayAcks:
    def test_retention_refuses_another_childs_word(self):
        retention = RetentionBuffer()
        frame = make_task("P0", "P1", 4, b"x")
        retention.hold(frame, "P1", now=1.0)
        assert not retention.release(4, "P2")            # forged ack
        assert retention.touch(4, 2.0, "P2") is None     # forged nak
        assert retention.touch(4, 2.0, None) is None     # a child named null
        assert retention.strays == 3 and len(retention) == 1
        assert retention.touch(4, 2.0, "P1") == (frame, "P1", 2)
        assert retention.release(4, "P1") and retention.strays == 3
        assert not retention.release(4, "P2")            # stale, no stray
        assert retention.strays == 3

    def test_a_forged_ack_cannot_delete_the_only_copy(self, paper_tree):
        """Between a staged ``task_drop`` and the sweep that recovers it,
        every sibling 'acknowledges' every copy the root holds for somebody
        else.  Before PR 24 the first such ack released the copy: the
        dropped task was never resent and the run hung to its deadline."""
        root = paper_tree.root
        forged = []

        class Forging(InProcTransport):
            async def send(self, *messages):
                await super().send(*messages)
                engine = plane.nodes.get(root)     # None: still negotiating
                for message in messages:
                    if (message.receiver != root or engine is None
                            or engine.done):
                        continue
                    for task_id, (_, child, _) in list(
                            engine.retention._held.items()):
                        if child != message.sender:
                            forged.append(task_id)
                            await super().send(DeliveryAck(
                                sender=message.sender, receiver=root,
                                task_id=task_id))

        plan = FaultPlan(seed=3, task_drop=Fraction(1, 5))
        plane = TaskPlane(paper_tree, Forging(), max_tasks=60, plan=plan,
                          time_scale=0.004, resend_timeout=0.1, deadline=30)
        report = plane.run()
        assert report.injected_drops > 0 and forged
        assert 0 < report.stray_acks <= len(forged)   # the rest were stale
        assert report.lost == 0 and report.duplicates == 0
        assert report.completed == 60 and report.resends > 0


class TestStrayResults:
    def test_a_forged_result_changes_neither_completed_nor_lost(
            self, paper_tree):
        """A child reports two results the root never minted — one far out
        of range, one the root is still to mint.  A ledger that took them
        recorded both as completions: the first closed the books a task
        early (``lost`` read -1), the second made the real result a
        duplicate."""
        root, forged = paper_tree.root, []

        class Forging(InProcTransport):
            async def send(self, *messages):
                await super().send(*messages)
                engine = plane.nodes.get(root)     # None: still negotiating
                if forged or engine is None or not engine.ledger.generated:
                    return
                child = paper_tree.children(root)[0]
                forged.extend([10**9, engine.ledger.generated + 5])
                await super().send(*(ResultReport(child, root, task_id, child)
                                     for task_id in forged))

        plane = TaskPlane(paper_tree, Forging(), max_tasks=40,
                          time_scale=0.002)
        report = plane.run()
        assert forged and report.stray_results == 2
        assert (report.completed, report.lost, report.duplicates) \
            == (40, 0, 0)
        assert report.to_json()["stray_results"] == 2


class TestTelemetryPath:
    def test_the_disabled_path_looks_nothing_up_per_task(self, paper_tree):
        class Counting(NullRegistry):
            lookups = 0

            def gauge(self, name, **labels):
                Counting.lookups += 1
                return super().gauge(name, **labels)

            counter = gauge

        built = []

        def payload(task_id: int) -> bytes:
            built.append(Counting.lookups)     # engines exist by now
            return b"12345678"

        report = run_plane(paper_tree, "inproc", max_tasks=200,
                           time_scale=0.0005, registry=Counting(),
                           payload_factory=payload)
        assert report.completed == 200
        assert Counting.lookups == built[0] > 0    # the bounds, at the build

    def test_an_enabled_registry_reports_what_it_did(self, paper_tree):
        registry = Registry()
        plan = FaultPlan(seed=7, task_drop=Fraction(1, 10))
        report = run_plane(paper_tree, "inproc", max_tasks=80, plan=plan,
                           time_scale=0.002, registry=registry,
                           resend_timeout=0.1)
        assert registry.value("taskplane.completions") == 80
        assert registry.value("taskplane.resends") == report.resends > 0
        depth = {dict(g.labels)["node"]: g.value for g in registry.gauges()
                 if g.name == "taskplane.buffer_depth"}
        # a series per node a task reached, none for the root or the idle
        assert set(depth) == {node for node, peak
                              in report.peak_occupancy.items() if peak}
        assert set(depth.values()) == {0}          # drained
        assert {c.name for c in registry.counters()} == {
            "taskplane.completions", "taskplane.resends"}


# ----------------------------------------------------------------------
# data-plane fault plans
# ----------------------------------------------------------------------
class TestFaultPlanDataPlane:
    def test_json_round_trip(self):
        plan = FaultPlan(seed=5, task_drop=Fraction(1, 8),
                         task_corrupt=Fraction(1, 12))
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan(seed=5).task_drop == FaultPlan().task_corrupt == 0

    def test_rates_are_validated(self):
        from repro.exceptions import FaultError
        with pytest.raises(FaultError):
            FaultPlan(task_drop=Fraction(3, 2))


# ----------------------------------------------------------------------
# cluster node specs
# ----------------------------------------------------------------------
class TestNodeSpec:
    def test_specs_are_picklable_and_withhold_the_allocation(self):
        plane = ClusterPlane(paper_figure4_tree(), max_tasks=50)
        specs, allocation, bounds = plane._specs()
        field_names = {f.name for f in dataclasses.fields(NodeSpec)}
        # the launcher ships expectations, never the answer: each process
        # negotiates its own α/η through its actor (Proposition 2, live)
        assert "alpha" not in field_names and "eta" not in field_names
        for name, spec in specs.items():
            assert pickle.loads(pickle.dumps(spec)) == spec
            if spec.parent is None:
                assert spec.seed_beta is not None
                assert spec.expected_throughput == allocation.throughput
                assert spec.max_tasks == 50
            else:
                assert spec.seed_beta is None
                assert spec.capacity == bounds.get(name, 1)

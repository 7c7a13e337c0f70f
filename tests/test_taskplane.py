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
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.buffers import taskplane_buffer_bounds
from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.exceptions import CodecError, ProtocolError, TaskPlaneError
from repro.faults.plan import FaultPlan
from repro.platform.examples import paper_figure4_tree
from repro.platform.generators import random_tree
from repro.protocol.messages import Proposal
from repro.runtime.codec import FRAME_HEADER, decode_body, encode_any, \
    register_frame_kind
from repro.schedule.periods import tree_periods
from repro.taskplane import (BoundedBuffer, ClusterPlane, CreditAccount,
                             CreditGrant, DeliveryAck, DeliveryLog, NodeSpec,
                             ResendRequest, ResultReport, RetentionBuffer,
                             Stop, Stopped, TaskFrame, TaskLedger, TaskPlane,
                             TaskPlaneNode, WorkerPool, make_task, payload_crc)
from repro.taskplane.frames import FRAME_KINDS


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
        good = frame.to_payload()
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


def test_a_kick_cannot_swallow_the_router_loops_cancellation():
    """A kick and the plane's shutdown in the same loop pass: the router
    must end cancelled.  On ``asyncio.wait_for`` (3.11) it returned from
    the wait normally and ran on, so a plane failing mid-traffic — an
    oversized payload at ``send()`` — never finished closing."""
    async def scenario():
        loop = asyncio.get_running_loop()
        engine = TaskPlaneNode(
            "P0", clock=loop.time, send=None, inbox=asyncio.Queue(),
            parent=None, links=[], all_children=[], alpha=Fraction(0),
            rate=Fraction(1), capacity=1, time_scale=0.01,
            ledger=TaskLedger(), max_tasks=0)
        router = asyncio.ensure_future(engine._router_loop())
        await asyncio.sleep(0.01)           # parked on its kick
        engine._maybe_kick()
        router.cancel()
        await asyncio.wait({router}, timeout=2)
        ended = router.done()
        router.cancel()
        return ended

    assert asyncio.run(scenario())


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

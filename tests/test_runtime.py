"""Tests for repro.runtime: the asyncio distributed runtime.

The headline property (claims experiment E6 extended): on the Figure 4
tree and on a population of random trees, the *executed* negotiation —
over in-process queues or real loopback TCP sockets — returns exactly the
throughput of the centralised ``bw_first()`` and of the *simulated*
``run_protocol()``, with the same visited set, the same tally counters,
and (on the reference tree) a structurally identical transaction span
tree.  Proposition 2 does not care whether the messages are virtual.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bwfirst import bw_first
from repro.exceptions import ProtocolError
from repro.faults.plan import FaultPlan
from repro.platform.examples import paper_figure4_tree
from repro.platform.generators import random_tree, smooth_tree
from repro.platform.tree import Tree
from repro.protocol.messages import Acknowledgment, Notice, Proposal
from repro.protocol.network import Network
from repro.protocol.retry import RetryPolicy
from repro.protocol.runner import VIRTUAL_PARENT, Negotiation, run_protocol
from repro.runtime import (
    FrameSplitter,
    InProcTransport,
    Runtime,
    TcpTransport,
    decode_body,
    encode_any,
    encode_message,
    negotiate,
    sequential_completion_time,
)
from repro.runtime.codec import parse_rational
from repro.telemetry import Registry


def span_fingerprint(registry: Registry):
    """The transaction span tree minus timestamps: for every span, the
    chain of (node, proposer, beta, xid, outcome, theta) tuples up to the
    root.  Equal fingerprints mean structurally identical negotiations."""
    spans = {s.id: s for s in registry.spans_named("transaction")}

    def describe(span):
        return (
            str(span.node),
            str(span.tags.get("proposer")),
            span.tags.get("beta"),
            span.tags.get("xid"),
            span.tags.get("outcome"),
            span.tags.get("theta"),
        )

    def chain(span):
        out = [describe(span)]
        while span.parent_id is not None:
            span = spans[span.parent_id]
            out.append(describe(span))
        return tuple(out)

    return frozenset(chain(s) for s in spans.values())


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_proposal_round_trip(self):
        message = Proposal(sender="P0", receiver="P1",
                           beta=Fraction(10, 9), xid=3)
        assert decode_body(encode_message(message)) == message

    def test_ack_round_trip(self):
        message = Acknowledgment(sender="P1", receiver="P0",
                                 theta=Fraction(0), xid=7)
        assert decode_body(encode_message(message)) == message

    def test_fractions_stay_exact(self):
        beta = Fraction(123456789, 987654321)
        message = Proposal(sender="a", receiver="b", beta=beta, xid=0)
        assert decode_body(encode_message(message)).beta == beta

    def test_frame_is_length_prefixed_and_checksummed(self):
        import zlib

        message = Proposal(sender="a", receiver="b", beta=Fraction(1), xid=0)
        frame = encode_any(message)
        payload = encode_message(message)
        assert frame[8:] == payload
        assert int.from_bytes(frame[:4], "big") == len(payload)
        assert int.from_bytes(frame[4:8], "big") == zlib.crc32(payload)

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body(b'{"t":"nope"}')

    def test_read_frame_handles_clean_eof(self):
        message = Proposal(sender="a", receiver="b",
                           beta=Fraction(5, 3), xid=1)
        splitter = FrameSplitter()
        splitter.feed(encode_any(message))
        assert decode_body(splitter.next_body()) == message
        # end of stream between frames: nothing more, nothing left over
        assert splitter.next_body() is None and splitter.pending == 0

    def test_read_frame_rejects_truncation(self):
        message = Proposal(sender="a", receiver="b",
                           beta=Fraction(1), xid=0)
        splitter = FrameSplitter()
        splitter.feed(encode_any(message)[:-2])
        # end of stream inside a frame: no body, octets left over — what
        # every reader loop reports as a connection closed mid-frame
        assert splitter.next_body() is None and splitter.pending > 0


class TestHostileBytes:
    """The codec against an adversarial wire (never trust the peer)."""

    def _read(self, data):
        splitter = FrameSplitter()
        splitter.feed(data)
        return decode_body(splitter.next_body())

    def test_flipped_bit_fails_the_checksum_recoverably(self):
        from repro.runtime import CodecError

        message = Proposal(sender="a", receiver="b", beta=Fraction(1), xid=0)
        frame = bytearray(encode_any(message))
        frame[-1] ^= 0x01
        with pytest.raises(CodecError, match="checksum") as excinfo:
            self._read(bytes(frame))
        # a garbled frame is survivable: skip it and keep reading
        assert excinfo.value.recoverable

    def test_oversized_length_is_not_recoverable(self):
        import struct

        from repro.runtime import CodecError

        header = struct.pack(">II", 1 << 30, 0)
        with pytest.raises(CodecError) as excinfo:
            self._read(header + b"x" * 64)
        # an insane length desynchronizes the stream: hang up
        assert not excinfo.value.recoverable

    @pytest.mark.parametrize("payload", [
        b"\xff\xfe garbage",  # not UTF-8
        b"[1, 2, 3]",  # JSON but not an object
        b'{"t": "proposal"}',  # missing fields
        b'{"t": "proposal", "s": "a", "r": "b", "v": "1/0", "x": 0}',
        b'{"t": "proposal", "s": "a", "r": "b", "v": "abc", "x": 0}',
        b'{"t": "proposal", "s": "a", "r": "b", "v": "1", "x": "one"}',
        b'{"t": "teleport", "s": "a", "r": "b", "v": "1", "x": 0}',
    ])
    def test_malformed_payloads_raise_codec_error(self, payload):
        from repro.runtime import CodecError

        with pytest.raises(CodecError):
            decode_body(payload)

    @pytest.mark.parametrize("kind", ["prop", "ack"])
    def test_every_hostile_control_field_is_recoverable(self, kind):
        """Both control kinds × every field × what a hostile peer may put
        there.  ``"x": true`` used to decode as transaction ``True``, which
        ``==`` a pending xid 1."""
        from repro.runtime import CodecError

        good = {"t": kind, "s": "a", "r": "b", "v": "5/3", "x": 1, "i": "t1"}
        assert decode_body(json.dumps(good).encode()).xid == 1
        nothing = object()
        hostile = {
            "s": [nothing, [1], {"a": 1}, 1.5],
            "r": [nothing, [1], {"a": 1}, 1.5],
            "v": [nothing, None, 1, True, [1], "1/0", "abc", "1e3", "0.5"],
            "x": [True, False, "one", 1.5, [1], {"a": 1}],
            "i": [True, 7, [1], {"a": 1}],
        }
        for key, values in hostile.items():
            for value in values:
                payload = dict(good)
                if value is nothing:
                    del payload[key]
                else:
                    payload[key] = value
                with pytest.raises(CodecError) as excinfo:
                    decode_body(json.dumps(payload).encode())
                assert excinfo.value.recoverable, (key, value)
        # the two optional fields may be absent or null
        for key in ("x", "i"):
            for payload in ({k: v for k, v in good.items() if k != key},
                            dict(good, **{key: None})):
                decoded = decode_body(json.dumps(payload).encode())
                assert (decoded.xid if key == "x" else decoded.trace) is None

    @pytest.mark.parametrize("body", [
        b' {"t":"note","s":"a","r":"b"}',
        b'{"t":"note","s":"a","r":"b"}\n',
        b'{"t":"note","s":"a","r":"b"}{}',
        b'{"t":"note","s":"a","r":"b"} ',
        b"",
    ], ids=["leading", "newline", "second-object", "trailing", "empty"])
    def test_nothing_may_surround_the_one_object(self, body):
        """The encoder writes one compact object and nothing else; a body
        with any byte before or after it is malformed."""
        from repro.runtime import CodecError

        assert decode_body(b'{"t":"note","s":"a","r":"b"}') == Notice("a", "b")
        with pytest.raises(CodecError) as excinfo:
            decode_body(body)
        assert excinfo.value.recoverable

    @settings(max_examples=300, deadline=None)
    @given(st.fractions())
    def test_every_rational_the_encoder_writes_parses_back(self, value):
        assert parse_rational(str(value)) == value
        message = Proposal(sender="a", receiver="b", beta=value, xid=1)
        assert decode_body(encode_message(message)).beta == value

    @pytest.mark.parametrize("text", [
        "5\n", "\u0665/\u0663", "\uff15", "2/4", "007", "-0", "3/1", "0/5",
        "+5", "5/", "/5", "1/0", "-1/-2", "1/-2", " 5", "5 ", "1_000", "",
        5, None,
    ])
    def test_a_non_canonical_rational_is_refused(self, text):
        """Exactly what ``str(Fraction)`` writes: ASCII digits, lowest
        terms, no ``/1``, no ``-0``, no leading zero, matched in full (``$``
        used to match before a trailing newline, ``\\d`` any Unicode digit)."""
        from repro.runtime import CodecError

        with pytest.raises(CodecError) as excinfo:
            parse_rational(text)
        assert excinfo.value.recoverable

    def test_codec_error_is_a_protocol_error(self):
        from repro.runtime import CodecError

        assert issubclass(CodecError, ProtocolError)

    def test_tcp_survives_corrupted_frames(self, paper_tree):
        """Garbled frames fail the CRC at the receiver, are discarded
        before any actor state machine sees them, and the wall-clock
        retry repairs the loss — the result is still exact."""
        plan = FaultPlan(seed=3, corrupt=Fraction(1, 5))
        transport = TcpTransport(plan=plan)
        result = negotiate(
            paper_tree,
            transport=transport,
            retry=RetryPolicy(max_retries=10),
            base_timeout=0.05,
        )
        assert transport.corrupted_sent > 0
        assert transport.corrupt_frames > 0
        assert transport.quarantined == set()  # no threshold configured
        assert result.throughput == bw_first(paper_tree).throughput

    def test_inproc_survives_corrupted_frames(self, paper_tree):
        plan = FaultPlan(seed=5, corrupt=Fraction(1, 5))
        transport = InProcTransport(plan=plan)
        result = negotiate(
            paper_tree,
            transport=transport,
            retry=RetryPolicy(max_retries=10),
            base_timeout=0.05,
        )
        assert transport.corrupt_frames > 0
        assert result.throughput == bw_first(paper_tree).throughput

    def test_quarantined_link_is_treated_as_crashed(self):
        """A link corrupting every frame trips the quarantine threshold;
        the runtime then negotiates the remaining tree, exactly as if the
        child had crashed (verified against the pruned reference)."""
        from repro.faults.plan import LinkFaults

        # a hungry root: both children are visited, so link B carries
        # control traffic for the corruption to garble
        tree = Tree("R", w=8)
        tree.add_node("A", w=2, parent="R", c=1)
        tree.add_node("B", w=2, parent="R", c=2)
        plan = FaultPlan(
            seed=1,
            links=(LinkFaults("B", corrupt=Fraction(999, 1000)),),
        )
        pruned = tree.without_subtrees({"B"})
        # a reference for the platform as given cannot know of a link
        # quarantined mid-run: the check then solves what is left itself
        for reference in (None, bw_first(tree)):
            transport = InProcTransport(plan=plan, quarantine_after=3)
            result = negotiate(
                tree,
                transport=transport,
                retry=RetryPolicy(max_retries=4),
                base_timeout=0.02,
                reference=reference,
            )
            assert transport.corrupt_frames >= 3
            assert "B" in transport.quarantined
            assert result.throughput == bw_first(pruned).throughput


# ----------------------------------------------------------------------
# cross-path equivalence (E6 extended)
# ----------------------------------------------------------------------
class TestEquivalenceFigure4:
    @pytest.fixture(params=["inproc", "tcp"])
    def transport(self, request):
        return request.param

    def test_throughput_is_exact(self, paper_tree, transport):
        result = negotiate(paper_tree, transport=transport)
        assert result.throughput == bw_first(paper_tree).throughput
        assert result.throughput == Fraction(10, 9)

    def test_matches_simulated_runner(self, paper_tree, transport):
        simulated = run_protocol(paper_tree)
        executed = negotiate(paper_tree, transport=transport)
        assert executed.throughput == simulated.throughput
        assert executed.visited == simulated.visited
        assert executed.transactions == simulated.transactions
        assert executed.messages == simulated.messages
        assert executed.bytes == simulated.bytes

    def test_span_tree_is_structurally_identical(self, paper_tree, transport):
        sim_registry = Registry()
        run_protocol(paper_tree, telemetry=sim_registry)
        rt_registry = Registry()
        negotiate(paper_tree, transport=transport, telemetry=rt_registry)
        assert span_fingerprint(rt_registry) == span_fingerprint(sim_registry)


class TestEquivalenceRandomTrees:
    """Both transports against the simulator on ≥25 seeded random trees."""

    SEEDS = list(range(26))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_inproc_equals_simulated(self, seed):
        tree = random_tree(n=2 + seed % 13, seed=seed)
        simulated = run_protocol(tree)
        executed = negotiate(tree, transport="inproc")
        assert executed.throughput == simulated.throughput
        assert executed.throughput == bw_first(tree).throughput
        assert executed.visited == simulated.visited

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tcp_equals_simulated(self, seed):
        tree = random_tree(n=2 + seed % 13, seed=seed)
        simulated = run_protocol(tree)
        executed = negotiate(tree, transport="tcp")
        assert executed.throughput == simulated.throughput
        assert executed.visited == simulated.visited


# ----------------------------------------------------------------------
# wall-clock retry over lossy transports
# ----------------------------------------------------------------------
class TestLossyTransports:
    def test_tcp_survives_dropped_proposals(self, paper_tree):
        """A dropped frame stalls the negotiation until the wall-clock
        retry timer fires and retransmits — and the result is still
        exact (acceptance criterion: injected drop + wall-clock retry)."""
        plan = FaultPlan(seed=1, drop=Fraction(1, 4))
        result = negotiate(
            paper_tree,
            transport=TcpTransport(plan=plan),
            retry=RetryPolicy(max_retries=6),
            base_timeout=0.05,
        )
        assert result.dropped > 0
        assert result.retransmissions > 0
        assert result.throughput == bw_first(paper_tree).throughput

    def test_inproc_survives_dropped_proposals(self, paper_tree):
        plan = FaultPlan(seed=2, drop=Fraction(1, 4))
        result = negotiate(
            paper_tree,
            transport=InProcTransport(plan=plan),
            retry=RetryPolicy(max_retries=6),
            base_timeout=0.05,
        )
        assert result.dropped > 0
        assert result.throughput == bw_first(paper_tree).throughput

    def test_inproc_reordering_delays_are_harmless(self, paper_tree):
        """Seeded delivery delays reorder nothing the state machine cannot
        absorb: the result stays exact."""
        result = negotiate(
            paper_tree,
            transport=InProcTransport(max_delay=0.01, seed=5),
        )
        assert result.throughput == bw_first(paper_tree).throughput

    def test_lossy_without_retry_hits_the_deadline(self, two_level_tree):
        plan = FaultPlan(seed=0, drop=Fraction(99, 100))  # ~every frame dies
        with pytest.raises(ProtocolError, match="did not converge"):
            negotiate(
                two_level_tree,
                transport=InProcTransport(plan=plan),
                deadline=0.3,
            )


# ----------------------------------------------------------------------
# fail-stop nodes pruned by wall-clock timeout
# ----------------------------------------------------------------------
class TestFailedNodes:
    def test_silent_child_is_pruned(self, paper_tree):
        failed = frozenset({"P2"})
        result = negotiate(
            paper_tree,
            failed=failed,
            retry=RetryPolicy(max_retries=1),
            base_timeout=0.02,
        )
        pruned = paper_tree.without_subtrees(failed)
        assert result.throughput == bw_first(pruned).throughput
        assert result.timeouts > 0
        assert "P2" not in result.visited

    def test_failed_root_rejected(self, paper_tree):
        with pytest.raises(ProtocolError, match="root"):
            Runtime(paper_tree, failed=frozenset({"P0"}))


# ----------------------------------------------------------------------
# runtime → virtual timeline mapping
# ----------------------------------------------------------------------
class TestSequentialCompletionTime:
    def test_equals_simulated_completion(self, paper_tree):
        """Loss-free, the depth-first protocol keeps one message in
        flight, so the virtual completion time is the plain sum of the
        message latencies — which is what the simulated runner measures."""
        simulated = run_protocol(paper_tree)
        executed = negotiate(paper_tree)
        assert (
            sequential_completion_time(executed)
            == simulated.completion_time
        )

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_equals_simulated_on_random_trees(self, seed):
        tree = random_tree(n=2 + seed % 11, seed=seed)
        simulated = run_protocol(tree)
        executed = negotiate(tree)
        assert (
            sequential_completion_time(executed)
            == simulated.completion_time
        )

    def test_fixed_latency_term(self, two_level_tree):
        executed = negotiate(two_level_tree)
        base = sequential_completion_time(executed)
        padded = sequential_completion_time(
            executed, fixed_latency=Fraction(1, 10)
        )
        per_transaction = 2 * Fraction(1, 10)
        settled = sum(
            len(a.transactions) for a in executed.actors.values()
        )
        assert padded - base == settled * per_transaction


# ----------------------------------------------------------------------
# telemetry parity + construction errors
# ----------------------------------------------------------------------
class TestRuntimeTelemetry:
    def test_result_counters_match_attributes(self, paper_tree):
        result = negotiate(paper_tree)
        registry = result.telemetry
        assert registry.value("protocol.messages") == result.messages
        assert registry.value("protocol.transactions") == result.transactions
        assert registry.value("protocol.throughput") == result.throughput

    def test_external_registry_mirrors_tallies(self, paper_tree):
        external = Registry()
        result = negotiate(paper_tree, telemetry=external)
        for name in ("protocol.messages", "protocol.bytes",
                     "protocol.transactions"):
            assert external.value(name) == result.telemetry.value(name)

    def test_tcp_counts_real_octets(self, paper_tree):
        external = Registry()
        result = negotiate(paper_tree, transport="tcp", telemetry=external)
        octets = external.value("runtime.tcp.octets")
        assert octets > 0
        # framed JSON is bulkier than the 11-byte model messages
        assert octets > result.bytes


class TestConstruction:
    def test_unknown_transport_rejected(self, paper_tree):
        with pytest.raises(ProtocolError, match="unknown transport"):
            Runtime(paper_tree, transport="carrier-pigeon")

    def test_reserved_name_rejected(self):
        tree = Tree(VIRTUAL_PARENT, w=1)
        with pytest.raises(ProtocolError, match="reserved"):
            Runtime(tree)

    def test_nonpositive_timeout_rejected(self, paper_tree):
        with pytest.raises(ProtocolError, match="base_timeout"):
            Runtime(paper_tree, base_timeout=0)

    def test_verify_catches_wrong_proposal_claim(self, paper_tree):
        # negotiating from a non-default proposal still verifies against
        # bw_first at that proposal — the check must pass, not misfire
        from repro.core.bwfirst import root_proposal

        lam = root_proposal(paper_tree) + 5
        result = negotiate(paper_tree, proposal=lam)
        assert result.throughput == bw_first(
            paper_tree, proposal=lam
        ).throughput


# ----------------------------------------------------------------------
# recovery integration: re-negotiation over the real runtime
# ----------------------------------------------------------------------
class TestRecoveryOverRuntime:
    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_resilient_run_routes_through_runtime(self, paper_tree,
                                                  transport):
        from repro.faults.plan import NodeCrash
        from repro.faults.recovery import resilient_run

        plan = FaultPlan(crashes=(NodeCrash("P4", Fraction(9)),))
        report = resilient_run(paper_tree, plan, runtime=transport)
        assert report.rate_after == report.new_optimum
        assert "P4" not in report.survivors

    def test_runtime_and_simulated_paths_agree_on_rates(self, paper_tree):
        from repro.faults.plan import NodeCrash
        from repro.faults.recovery import resilient_run

        plan = FaultPlan(crashes=(NodeCrash("P4", Fraction(9)),))
        over_runtime = resilient_run(paper_tree, plan, runtime="inproc")
        simulated = resilient_run(paper_tree, plan)
        assert over_runtime.new_optimum == simulated.new_optimum
        assert over_runtime.rate_after == simulated.rate_after


# ----------------------------------------------------------------------
# one dispatcher: what a running negotiation owns, and what reaches it
# ----------------------------------------------------------------------
def hooked(base, hook):
    """*base* (a Transport class) handing every message to *hook* first
    and putting on the wire whatever messages it returns."""

    class Hooked(base):
        async def send(self, message):
            for out in hook(message):
                await super().send(out)

    return Hooked


class TestOwnedTasks:
    @pytest.mark.parametrize("base", [InProcTransport, TcpTransport],
                             ids=["inproc", "tcp"])
    @pytest.mark.parametrize("retry", [None, RetryPolicy(max_retries=2)],
                             ids=["no-retry", "retry"])
    def test_constant_at_any_tree_size(self, base, retry):
        """No task per node, per edge or per armed timer: mid-run, the
        negotiation owns the same few tasks at 20 nodes and at 400."""

        async def scenario(nodes):
            before, owned = asyncio.all_tasks(), []

            def probe(message):
                owned.append(len(asyncio.all_tasks() - before))
                return [message]

            result = await Runtime(smooth_tree(nodes, 2),
                                   hooked(base, probe)(), retry=retry).arun()
            assert result.messages == 2 * nodes == len(owned)
            return set(owned)

        small = asyncio.run(scenario(20))
        large = asyncio.run(scenario(400))
        assert small == large
        assert max(large) <= 2


class TestDispatcher:
    @pytest.fixture(params=[InProcTransport, TcpTransport],
                    ids=["inproc", "tcp"])
    def base(self, request):
        return request.param

    def test_failed_node_is_swallowed_and_pruned(self, paper_tree, base):
        failed = frozenset({"P2"})
        result = Runtime(paper_tree, base(), failed=failed,
                         retry=RetryPolicy(max_retries=1),
                         base_timeout=0.02).run()
        assert result.throughput == bw_first(
            paper_tree.without_subtrees(failed)).throughput
        assert result.timeouts == 1 and result.retransmissions == 1
        assert result.actors["P2"].lam is None   # never saw a proposal

    def test_duplicated_root_ack_is_swallowed(self, paper_tree, base):
        """The second copy arrives after the completion future resolved."""
        def twice_to_the_virtual_parent(message):
            return [message] * (2 if message.receiver == VIRTUAL_PARENT else 1)

        simulated, executed = Registry(), Registry()
        run_protocol(paper_tree, telemetry=simulated)
        result = Runtime(paper_tree,
                         hooked(base, twice_to_the_virtual_parent)(),
                         telemetry=executed).run()
        assert result.throughput == Fraction(10, 9)
        assert result.messages == 16 + 1
        assert span_fingerprint(executed) == span_fingerprint(simulated)

    def test_expiry_after_its_ack_is_ignored(self, paper_tree, monkeypatch):
        """Timers are never disarmed by an ack: the expiry is served by the
        dispatcher like any arrival and finds nothing pending."""
        served = []
        expire = Negotiation.expire

        def spy(self, sender, child, xid):
            served.append(self.actors[sender].is_pending(child, xid))
            expire(self, sender, child, xid)

        monkeypatch.setattr(Negotiation, "expire", spy)
        result = negotiate(
            paper_tree,
            transport=InProcTransport(max_delay=0.02, seed=5),
            retry=RetryPolicy(max_retries=5),
            base_timeout=0.045,
        )
        assert False in served
        assert result.throughput == Fraction(10, 9)
        assert result.timeouts == 0

    def test_actor_exception_fails_the_run(self, paper_tree, base):
        """An actor that raises inside the dispatcher fails the run with
        its own error, at once — not with the deadline's."""
        def inflate_acks(message):
            if (isinstance(message, Acknowledgment)
                    and message.receiver != VIRTUAL_PARENT):
                message = Acknowledgment(
                    sender=message.sender, receiver=message.receiver,
                    theta=message.theta + 100, xid=message.xid)
            return [message]

        with pytest.raises(ProtocolError, match="acked"):
            Runtime(paper_tree, hooked(base, inflate_acks)(),
                    deadline=30.0).run()


class TestRerun:
    """One Runtime, run again: fresh patience, its own traffic only."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_every_run_reports_its_own_traffic(self, transport):
        tree = smooth_tree(30, 3)
        external = Registry()
        runtime = Runtime(tree, transport, telemetry=external,
                          retry=RetryPolicy(max_retries=2))
        results = [runtime.run() for _ in range(4)]
        self.check_four_runs(tree, transport, results, external)

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_and_so_it_does_over_a_transport_kept_open(self, transport):
        """``close_transport=False``: the four runs share one loop and,
        over TCP, one set of sockets — every edge dialled by the first
        run, none after."""
        tree = smooth_tree(30, 3)
        external = Registry()
        runtime = Runtime(tree, transport, telemetry=external,
                          retry=RetryPolicy(max_retries=2),
                          close_transport=False)

        async def four_runs():
            try:
                return [await runtime.arun() for _ in range(4)]
            finally:
                await runtime.transport.close()

        results = asyncio.run(four_runs())
        self.check_four_runs(tree, transport, results, external)
        if transport == "tcp":
            assert [r.telemetry.value("runtime.tcp.dials")
                    for r in results] == [29, 0, 0, 0]

    @staticmethod
    def check_four_runs(tree, transport, results, external):
        first = results[0]
        assert first.messages == 60
        for result in results:
            assert result.throughput == first.throughput
            for name in ("protocol.messages", "protocol.bytes",
                         "protocol.transactions", "runtime.tcp.octets"):
                assert (result.telemetry.value(name)
                        == first.telemetry.value(name)), name
        assert external.value("protocol.messages") == 4 * first.messages
        spans = external.spans_named("transaction")
        assert len(spans) == 4 * 30
        # and their shape: four separate trees, each one fresh run's — no
        # open span or inbound link of run k parents a span of run k + 1
        by_id = {span.id: span for span in spans}
        runs = {}
        for span in spans:
            root = span
            while root.parent_id is not None:
                root = by_id[root.parent_id]
            runs.setdefault(root.id, Registry()).spans.append(span)
        fresh = Registry()
        Runtime(tree, transport, telemetry=fresh).run()
        assert len(runs) == 4
        for run in runs.values():
            assert span_fingerprint(run) == span_fingerprint(fresh)

    def test_a_lost_proposal_is_retried_on_every_run(self):
        """Attempt counts start over, so the back-off does too: a single
        lost Proposal is retransmitted, never counted against a budget
        that earlier runs used up."""

        class LosesTheFirstProposal(InProcTransport):
            async def start(self, tree, mailboxes):
                await super().start(tree, mailboxes)
                self.lose_next = True

            async def send(self, message):
                if (self.lose_next and isinstance(message, Proposal)
                        and message.sender != VIRTUAL_PARENT):
                    self.lose_next = False
                    self.dropped += 1
                    return
                await super().send(message)

        tree = smooth_tree(30, 3)
        policy = RetryPolicy(max_retries=2)
        runtime = Runtime(tree, LosesTheFirstProposal(), retry=policy,
                          base_timeout=0.002)
        for _ in range(policy.max_retries + 2):
            result = runtime.run()   # verified against bw_first(tree)
            assert result.dropped == 1
            assert result.retransmissions >= 1
            assert result.timeouts == 0
            assert result.messages == 60 + result.retransmissions - 1


class TestSyncEntryPointsInsideALoop:
    def test_typed_error_and_no_orphan_coroutine(self, paper_tree):
        from repro.exceptions import TaskPlaneError
        from repro.taskplane import TaskPlane

        async def scenario():
            with pytest.raises(ProtocolError, match=r"await Runtime\(.*arun"):
                negotiate(paper_tree)
            with pytest.raises(ProtocolError, match="arun"):
                Runtime(paper_tree).run()
            with pytest.raises(TaskPlaneError, match="arun"):
                TaskPlane(paper_tree, max_tasks=1).run()
            return (await Runtime(paper_tree).arun()).throughput

        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a never-awaited coroutine
            assert asyncio.run(scenario()) == Fraction(10, 9)


# ----------------------------------------------------------------------
# the task plane takes the transport over from the dispatcher
# ----------------------------------------------------------------------
class TestHandOver:
    @pytest.fixture(params=[InProcTransport, TcpTransport],
                    ids=["inproc", "tcp"])
    def base(self, request):
        return request.param

    def test_clean_books_on_both_transports(self, paper_tree, base):
        from repro.taskplane import run_plane

        report = run_plane(paper_tree, base(), max_tasks=30, time_scale=0.005)
        assert report.completed == 30
        assert (report.stray_control, report.lost, report.duplicates) \
            == (0, 0, 0)

    def test_late_control_frame_is_counted_not_raised(self, paper_tree, base):
        """A duplicate of the negotiation arriving once the engines own
        the mailboxes lands in an inbox, where it is a stray."""
        from repro.taskplane import run_plane

        class LateDuplicate(base):
            late = Acknowledgment(sender="P1", receiver="P0",
                                  theta=Fraction(0), xid=0)

            async def send(self, *messages):
                # ahead of the first burst of payload frames, in it
                stale, self.late = self.late, None
                if stale is not None and not isinstance(
                        messages[0], (Proposal, Acknowledgment)):
                    messages = (stale, *messages)
                else:
                    self.late = stale
                await super().send(*messages)

        report = run_plane(paper_tree, LateDuplicate(), max_tasks=30,
                           time_scale=0.005)
        assert report.stray_control == 1
        assert (report.completed, report.lost, report.duplicates) \
            == (30, 0, 0)


# ----------------------------------------------------------------------
# the ordered transcript handed to transport.send
# ----------------------------------------------------------------------
TRANSCRIPT_FILE = Path(__file__).parent / "data" / "runtime_transcripts.json"


def transcript_trees():
    """25 seeded platforms: Fig. 4, smooth trees, random trees."""
    yield "fig4", paper_figure4_tree()
    for seed in range(12):
        yield f"smooth-{seed}", smooth_tree(8 + 5 * seed, seed)
        yield f"random-{seed}", random_tree(n=3 + 2 * seed, seed=seed)


def transcript_entry(message):
    return [str(message.sender), str(message.receiver),
            type(message).__name__, message.xid]


class RecordingNetwork(Network):
    """The simulated runner's wire, logging what is handed to ``send``."""

    def __init__(self, tree):
        super().__init__(tree)
        self.transcript = []

    def send(self, message):
        self.transcript.append(transcript_entry(message))
        super().send(message)


def executed_transcript(tree, base):
    transcript = []

    def log(message):
        transcript.append(transcript_entry(message))
        return [message]

    Runtime(tree, hooked(base, log)()).run()
    return transcript


def transcript_digest(transcript):
    body = json.dumps(transcript, separators=(",", ":")).encode("utf-8")
    return {"messages": len(transcript),
            "sha256": hashlib.sha256(body).hexdigest()}


def record_transcripts():
    """Re-record the pinned transcripts.  Run from the *parent* checkout's
    sources, so the file says what the runtime did before a change:
    ``PYTHONPATH=<parent>/src python -m tests.test_runtime``."""
    digests = {}
    for label, tree in transcript_trees():
        inproc = executed_transcript(tree, InProcTransport)
        assert inproc == executed_transcript(tree, TcpTransport), label
        digests[label] = transcript_digest(inproc)
    TRANSCRIPT_FILE.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")


class TestSendTranscript:
    """What the dispatcher hands to ``transport.send``, in order, is what
    the runtime handed over before it had a dispatcher (the pinned file)
    and what the simulated runner hands to its network."""

    PINNED = json.loads(TRANSCRIPT_FILE.read_text()) \
        if TRANSCRIPT_FILE.exists() else {}

    @pytest.mark.parametrize("label,tree", list(transcript_trees()),
                             ids=[label for label, _ in transcript_trees()])
    @pytest.mark.parametrize("base", [InProcTransport, TcpTransport],
                             ids=["inproc", "tcp"])
    def test_unchanged_and_equal_to_simulated(self, label, tree, base):
        executed = executed_transcript(tree, base)
        assert transcript_digest(executed) == self.PINNED[label]
        network = RecordingNetwork(tree)
        run_protocol(tree, network=network)
        assert executed == network.transcript


if __name__ == "__main__":
    record_transcripts()

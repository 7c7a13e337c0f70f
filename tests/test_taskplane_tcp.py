"""TcpTransport under mixed negotiation + payload traffic.

The task plane reuses the very sockets the negotiation opened, so the
transport must (a) interleave control and payload frames on one connection
without confusing them, (b) keep the fault plan's control-plane loss model
away from payload frames — the plane owns their faults and retransmission
— and (c) drain-and-close without orphaning listeners or losing frames
already written.  The cluster's per-process listener is held to the
handshake rule the transport's own listeners follow: only a not yet
connected child may introduce itself.
"""

from __future__ import annotations

import asyncio
import time
from fractions import Fraction

import pytest

from repro.exceptions import CodecError, ProtocolError, TaskPlaneError
from repro.faults.plan import FaultPlan
from repro.platform.examples import paper_figure4_tree
from repro.platform.tree import Tree
from repro.protocol.messages import Acknowledgment, Proposal
from repro.runtime import codec
from repro.runtime.codec import (FRAME_HEADER, MAX_FRAME, encode_any,
                                 encode_blob, encode_hello)
from repro.runtime.transport import InProcTransport, TcpTransport
from repro.taskplane import (CreditGrant, DeliveryAck, NodeSpec, Stop, Stopped,
                             TaskPlane, make_task, run_plane)
from repro.taskplane.cluster import _NodeProcess
from repro.taskplane.frames import FRAME_KINDS


def small_tree() -> Tree:
    tree = Tree("P0", w=2)
    tree.add_node("P1", w=2, parent="P0", c=1)
    tree.add_node("P2", w=4, parent="P0", c=2)
    return tree


async def drain(mailbox: asyncio.Queue, count: int, timeout: float = 5.0):
    return [await asyncio.wait_for(mailbox.get(), timeout)
            for _ in range(count)]


async def started(tree: Tree, **kwargs):
    mailboxes = {node: asyncio.Queue() for node in tree.nodes()}
    transport = TcpTransport(**kwargs)
    await transport.start(tree, mailboxes)
    return transport, mailboxes


class TestInterleaving:
    def test_control_and_payload_share_one_socket(self):
        async def scenario():
            tree = small_tree()
            transport, mailboxes = await started(tree)
            task = make_task("P0", "P1", 0, b"payload bytes")
            # downstream: negotiation, then a task, then the drain cascade
            await transport.send(Proposal(sender="P0", receiver="P1",
                                          beta=Fraction(10, 9), xid=1))
            await transport.send(task)
            await transport.send(Stop(sender="P0", receiver="P1"))
            # upstream on the same edge: ack, delivery ack, credit, stopped
            await transport.send(Acknowledgment(sender="P1", receiver="P0",
                                                theta=Fraction(0), xid=1))
            await transport.send(DeliveryAck(sender="P1", receiver="P0",
                                             task_id=0))
            await transport.send(CreditGrant(sender="P1", receiver="P0"))
            await transport.send(Stopped(sender="P1", receiver="P0",
                                         completed=7))

            down = await drain(mailboxes["P1"], 3)
            up = await drain(mailboxes["P0"], 4)
            await transport.close()
            return transport, task, down, up

        transport, task, down, up = asyncio.run(scenario())
        # per-socket FIFO: frames arrive decoded, typed, and in send order
        assert [type(f) for f in down] == [Proposal, type(task), Stop]
        assert down[1] == task and down[1].intact
        assert [type(f) for f in up] == [Acknowledgment, DeliveryAck,
                                         CreditGrant, Stopped]
        assert up[3].completed == 7
        assert transport.payload_frames == 5   # everything but prop/ack
        assert transport.corrupt_frames == 0

    def test_burst_survives_drain_and_close(self):
        """Every frame written before close() reaches its mailbox — the
        drain flushes, close never races bytes still in the send buffer."""
        async def scenario():
            tree = small_tree()
            transport, mailboxes = await started(tree)
            for task_id in range(40):
                await transport.send(
                    make_task("P0", "P2", task_id, b"x" * 64)
                )
            frames = await drain(mailboxes["P2"], 40)
            await transport.close()
            return frames

        frames = asyncio.run(scenario())
        assert [f.task_id for f in frames] == list(range(40))
        assert all(f.intact for f in frames)


class TestShutdown:
    def test_close_orphans_nothing(self):
        async def scenario():
            tree = small_tree()
            transport, _ = await started(tree)
            port = transport.bound_ports["P0"]
            await transport.close()
            # listeners down: a late dialer is refused, not accepted
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)
            return transport

        transport = asyncio.run(scenario())
        assert transport._writers == {}
        assert transport._servers == {}
        assert not transport._ends  # no connection left open

    def test_close_is_reentrant_safe(self):
        async def scenario():
            transport, _ = await started(small_tree())
            await transport.close()
            await transport.close()   # idempotent: nothing left to tear down

        asyncio.run(scenario())


class TestFaultSeparation:
    def test_control_loss_never_touches_payload_frames(self):
        """The fault plan's loss model is control-plane only: task frames
        pass verbatim even under near-certain control drop, because the
        task plane stages its own faults where retransmission lives."""
        async def scenario():
            tree = small_tree()
            plan = FaultPlan(seed=1, drop=Fraction(99, 100))
            transport, mailboxes = await started(tree, plan=plan)
            for xid in range(10):
                await transport.send(Proposal(sender="P0", receiver="P1",
                                              beta=Fraction(1), xid=xid))
            for task_id in range(10):
                await transport.send(make_task("P0", "P1", task_id, b"x"))
            tasks = []
            while len(tasks) < 10:
                frame = await asyncio.wait_for(mailboxes["P1"].get(), 5.0)
                if not isinstance(frame, Proposal):
                    tasks.append(frame)
            await transport.close()
            return transport, tasks

        transport, tasks = asyncio.run(scenario())
        assert transport.dropped > 0          # control frames did die
        assert transport.payload_frames == 10
        assert sorted(f.task_id for f in tasks) == list(range(10))

    def test_corrupt_control_frames_die_in_the_reader(self):
        """Wire corruption (flipped octets, CRC32 mismatch) is contained
        by the reader loop; interleaved payload frames pass intact."""
        async def scenario():
            tree = small_tree()
            plan = FaultPlan(seed=2, corrupt=Fraction(99, 100))
            transport, mailboxes = await started(tree, plan=plan)
            for xid in range(10):
                await transport.send(Proposal(sender="P0", receiver="P1",
                                              beta=Fraction(1), xid=xid))
            await transport.send(make_task("P0", "P1", 0, b"survives"))
            frame = await asyncio.wait_for(mailboxes["P1"].get(), 5.0)
            while isinstance(frame, Proposal):
                frame = await asyncio.wait_for(mailboxes["P1"].get(), 5.0)
            # the reader loop has consumed (and rejected) every corrupt
            # frame that preceded the task frame on this socket
            await transport.close()
            return transport, frame

        transport, frame = asyncio.run(scenario())
        assert transport.corrupted_sent > 0
        assert transport.corrupt_frames == transport.corrupted_sent
        assert frame.intact and frame.payload == b"survives"


def test_small_plane_over_tcp():
    """End to end on real sockets: negotiate, execute, drain — exact
    accounting and no negotiation frame leaking into the plane."""
    report = run_plane(small_tree(), "tcp", max_tasks=20, time_scale=0.01)
    assert report.generated == 20
    assert report.lost == 0 and report.duplicates == 0
    assert report.stray_control == 0
    assert report.occupancy_ok()


def test_a_child_cannot_speak_for_its_sibling():
    """Between a staged ``task_drop`` and the sweep that recovers it, every
    child that writes to the root also writes, on its own socket, a
    ``tack`` for every copy the root holds for a sibling — claiming to *be*
    that sibling.  A root that took the claimed sender on trust released
    the sibling's only copy of a dropped task, which was never resent, and
    the run hung to its deadline.  The frame names another edge than the
    one it arrived on, so it dies in the reader as a corrupt frame."""
    tree = paper_figure4_tree()
    root, forged = tree.root, []

    class Forging(TcpTransport):
        async def send(self, *messages):
            await super().send(*messages)
            engine = plane.nodes.get(root)     # None: still negotiating
            if engine is None or engine.done:
                return
            for child in {m.sender for m in messages if m.receiver == root}:
                for task_id, (_, holder, _) in list(
                        engine.retention._held.items()):
                    if holder != child:
                        forged.append(task_id)
                        self._writers[(child, root)].write(
                            encode_any(DeliveryAck(holder, root, task_id)))

    plan = FaultPlan(seed=3, task_drop=Fraction(1, 5))
    transport = Forging()
    plane = TaskPlane(tree, transport, max_tasks=60, plan=plan,
                      time_scale=0.004, resend_timeout=0.1, deadline=30)
    report = plane.run()
    assert report.injected_drops > 0 and report.resends > 0 and forged
    assert transport.corrupt_frames == len(forged)
    assert report.stray_acks == 0         # none reached an engine
    assert (report.completed, report.lost, report.duplicates) == (60, 0, 0)


# ----------------------------------------------------------------------
# the size bound holds on both sides; a frame is serialised once
# ----------------------------------------------------------------------
class TestSenderSideBound:
    """The receiving ``FrameSplitter`` firewalls an edge that announces a
    body above ``MAX_FRAME``; ``encode_blob`` refuses to write one.  Before,
    a 900 kB payload (1.2 MB of base64) hung the TCP plane to its deadline
    (120 s by default) while the in-proc plane, which never serialises,
    completed."""

    @staticmethod
    def plane(transport, size):
        return run_plane(paper_figure4_tree(), transport, max_tasks=3,
                         time_scale=0.001, deadline=6,
                         payload_factory=lambda task_id: bytes(size))

    def test_an_oversized_payload_fails_at_the_sender_with_the_cause(self):
        started_at = time.monotonic()
        with pytest.raises(ProtocolError, match="exceeds") as excinfo:
            self.plane("tcp", 900_000)
        assert time.monotonic() - started_at < 1.0
        assert not isinstance(excinfo.value, CodecError)
        assert str(MAX_FRAME) in str(excinfo.value)    # the bound ...
        assert "12000" in str(excinfo.value)           # ... and the size

    def test_inproc_never_serialises_so_it_still_completes(self):
        report = self.plane("inproc", 900_000)
        assert report.completed == 3 and report.lost == 0

    def test_a_payload_under_the_bound_still_crosses_tcp(self):
        report = self.plane("tcp", 700_000)
        assert report.completed == 3 and report.lost == 0

    def test_the_bound_is_the_framers_argument(self):
        assert len(encode_blob(b"x" * 100, 100)) == FRAME_HEADER.size + 100
        with pytest.raises(ProtocolError, match="101 bytes exceeds the 100"):
            encode_blob(b"x" * 101, 100)


@pytest.mark.parametrize("name", ["tcp", "inproc"])
def test_a_payload_frame_is_serialised_once_per_tcp_send(name, monkeypatch):
    """A payload frame's one serialisation is its ``to_body()``: once per
    frame TCP sends, and never on the in-proc transport (``_Frame.wire_size``
    used to serialise every frame once more on every ``send()``, on both,
    for a counter nobody read)."""
    bodies = []

    def counting(real):
        def to_body(frame):
            bodies.append(type(frame))
            return real(frame)
        return to_body

    for cls in FRAME_KINDS.values():
        monkeypatch.setattr(cls, "to_body", counting(cls.to_body))
    transport = TcpTransport() if name == "tcp" else InProcTransport()
    report = TaskPlane(small_tree(), transport, max_tasks=40,
                       time_scale=0.001).run()
    assert report.completed == 40 and transport.payload_frames > 4 * 40 // 2
    assert len(bodies) == (transport.payload_frames if name == "tcp" else 0)


def test_no_payload_frame_reaches_the_json_encoder(monkeypatch):
    """The codec's one ``JSONEncoder`` still writes hellos, control frames
    and, on first use, a name; a payload frame's body is its kind's
    template."""
    encoded = []
    real = codec._ENCODE

    def spy(value):
        encoded.append(value)
        return real(value)

    monkeypatch.setattr(codec, "_ENCODE", spy)
    transport = TcpTransport()
    report = run_plane(small_tree(), transport, max_tasks=30,
                       time_scale=0.001)
    assert report.completed == 30 and transport.payload_frames > 30
    assert {value.get("t", "hello") for value in encoded
            if isinstance(value, dict)} == {"hello", "prop", "ack"}
    assert all(isinstance(value, (dict, str, int, type(None)))
               for value in encoded)


# ----------------------------------------------------------------------
# the cluster handshake fails closed
# ----------------------------------------------------------------------
def garbled(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 0xFF])   # body no longer matches CRC


class TestClusterHello:
    """One node's listener, in-process: ``P1`` (parent ``P0``, child ``P2``)
    with its upstream writer in place, as after dialling its parent."""

    SPEC = NodeSpec(name="P1", parent="P0",
                    children=(("P2", Fraction(1)),), all_children=("P2",))

    def dial(self, *blobs):
        """Dial the listener once per blob; returns the node, its upstream
        writer, the writer the legitimate child got (None before its
        hello) and, per dial, whether the listener hung up on it."""
        async def scenario():
            node = _NodeProcess(self.SPEC, conn=None)
            node.writers["P0"] = upstream = object()
            server = await asyncio.start_server(node._accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            clients, hung_up, legit = [], [], None

            async def verdict(failures_before):
                while (len(node.failures) == failures_before
                       and node.writers.get("P2") is legit):
                    await asyncio.sleep(0.002)
                return len(node.failures) > failures_before

            for blob in blobs:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                clients.append(writer)
                writer.write(blob)
                refused = await asyncio.wait_for(
                    verdict(len(node.failures)), timeout=5)
                if refused:
                    assert await asyncio.wait_for(reader.read(), 5) == b""
                else:
                    legit = legit or node.writers["P2"]
                hung_up.append(refused)
            for writer in clients:
                writer.close()
            server.close()
            await server.wait_closed()
            await asyncio.wait_for(asyncio.gather(*node._tasks), timeout=5)
            return node, upstream, legit, hung_up

        return asyncio.run(scenario())

    def test_the_legitimate_child_is_accepted(self):
        node, upstream, legit, hung_up = self.dial(encode_hello("P2"))
        assert hung_up == [False] and node.failures == []
        assert node.hellos.is_set()
        assert node.writers == {"P0": upstream, "P2": legit}

    @pytest.mark.parametrize("bad", [
        encode_hello("P9"),                                # a stranger
        encode_hello("P2"),                                # a second P2
        encode_hello("P0"),                                # its own parent
        encode_hello("P1"),                                # its own name
        encode_blob(b'{"hello":["P2"]}'),                  # unhashable
        encode_blob(b'{"hi":"P2"}'),                       # no hello at all
        encode_blob(b"[1,2,3]"),                           # not an object
        garbled(encode_hello("P2")),
        encode_blob(b"\xff\xfe"),
        FRAME_HEADER.pack(MAX_FRAME + 1, 0),
    ], ids=["stranger", "duplicate", "parent", "self", "unhashable",
            "missing-key", "non-object", "bad-crc", "not-json", "oversized"])
    def test_anything_else_is_hung_up_on(self, bad):
        good = encode_hello("P2")
        node, upstream, legit, hung_up = self.dial(good, bad)
        assert hung_up == [False, True]
        # the impostor replaced nobody: both writers are who they were
        assert node.writers == {"P0": upstream, "P2": legit}
        assert node.writers["P0"] is upstream and legit is not None
        (failure,) = node.failures
        assert isinstance(failure, TaskPlaneError)
        assert "'P1'" in str(failure)

    def test_the_failure_names_listener_and_claimed_peer(self):
        """The reproducer — P2, a stranger P9, a second P2 — with one more
        stranger first: a refusal does not keep the real child out."""
        good, stranger = encode_hello("P2"), encode_hello("P9")
        node, upstream, legit, hung_up = self.dial(
            stranger, good, stranger, good)
        assert hung_up == [True, False, True, True]
        assert node.hellos.is_set()
        assert node.writers == {"P0": upstream, "P2": legit}
        *strangers, duplicate = map(str, node.failures)
        assert len(strangers) == 2
        assert all("'P1'" in text and "'P9'" in text for text in strangers)
        assert "'P1'" in duplicate and "'P2'" in duplicate


class TestClusterSocket:
    """The same listener after a good hello: one loop reads the socket to
    its end through the codec's ``FrameSplitter``."""

    class Actor:
        """Records what the socket loop routes to the actor."""
        state = None

        def __init__(self):
            self.handled = []

        def handle(self, message):
            self.handled.append(message)

    def serve(self, *writes):
        """Dial, send *writes* one ``write()`` each, close; returns the
        node once its socket loop has ended."""
        async def scenario():
            node = _NodeProcess(TestClusterHello.SPEC, conn=None)
            node.actor = self.Actor()
            server = await asyncio.start_server(node._accept, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            for data in writes:
                writer.write(data)
                await writer.drain()
                await asyncio.sleep(0.01)
            writer.close()
            server.close()
            await server.wait_closed()
            await asyncio.wait_for(asyncio.gather(*node._tasks), timeout=5)
            for accepted in node.writers.values():
                accepted.close()
            return node

        return asyncio.run(scenario())

    PROPOSAL = Proposal(sender="P2", receiver="P1", beta=Fraction(5, 3), xid=1)

    def test_frames_behind_the_hello_are_routed_however_they_are_cut(self):
        stream = encode_hello("P2") + encode_any(self.PROPOSAL) * 3
        for cut in (len(stream), 5, len(encode_hello("P2")) + 3):
            node = self.serve(stream[:cut], stream[cut:])
            assert node.failures == []          # clean EOF between frames
            assert node.actor.handled == [self.PROPOSAL] * 3

    def test_a_corrupt_frame_fails_the_node_with_a_typed_error(self):
        node = self.serve(encode_hello("P2"),
                          garbled(encode_any(self.PROPOSAL)))
        (failure,) = node.failures
        assert isinstance(failure, CodecError) and failure.recoverable
        assert node.actor.handled == [] and node.engine_done.is_set()

    @pytest.mark.parametrize("forged", [
        Proposal(sender="P9", receiver="P1", beta=Fraction(5, 3), xid=1),
        DeliveryAck(sender="P0", receiver="P1", task_id=0),
        DeliveryAck(sender="P2", receiver="P0", task_id=0),
    ], ids=["stranger", "its-parent", "to-its-parent"])
    def test_a_frame_naming_another_edge_fails_the_node(self, forged):
        """The socket P2 dialled carries frames from P2 to P1, nothing
        else: a frame that names another edge fails the node like a
        corrupt one."""
        node = self.serve(encode_hello("P2") + encode_any(self.PROPOSAL)
                          + encode_any(forged))
        (failure,) = node.failures
        assert isinstance(failure, CodecError) and failure.recoverable
        assert "arrived on the edge" in str(failure)
        assert node.actor.handled == [self.PROPOSAL] and node.engine is None

    def test_an_oversized_prefix_fails_the_node(self):
        node = self.serve(encode_hello("P2"),
                          FRAME_HEADER.pack(MAX_FRAME + 1, 0) + b"junk")
        (failure,) = node.failures
        assert isinstance(failure, CodecError) and not failure.recoverable

    def test_eof_inside_a_frame_fails_the_node(self):
        node = self.serve(encode_hello("P2"),
                          encode_any(self.PROPOSAL)[:-3])
        (failure,) = node.failures
        assert type(failure) is ProtocolError and "mid-frame" in str(failure)

    def test_eof_before_the_hello_is_a_refused_hello(self):
        for prefix in (b"", encode_hello("P2")[:-3]):
            node = self.serve(prefix)
            (failure,) = node.failures
            assert isinstance(failure, TaskPlaneError)
            assert "refused a hello" in str(failure)
            assert node.writers == {}

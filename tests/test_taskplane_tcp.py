"""TcpTransport under mixed negotiation + payload traffic.

The task plane reuses the very sockets the negotiation opened, so the
transport must (a) interleave control and payload frames on one connection
without confusing them, (b) keep the fault plan's control-plane loss model
away from payload frames — the plane owns their faults and retransmission
— and (c) drain-and-close without orphaning listeners or losing frames
already written.  A cluster process's edges are the transport's own,
assembled from its listen and dial halves, so they follow its rules: only
a not yet connected child may introduce itself, a stranger after that is
hung up on, and hostile octets are counted, never routed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import socket
import time
from fractions import Fraction

import pytest

from repro.exceptions import (CodecError, ProtocolError, ReproError,
                              TaskPlaneError)
from repro.faults.plan import FaultPlan
from repro.platform.examples import paper_figure4_tree
from repro.platform.tree import Tree
from repro.protocol.actor import AWAITING_CHILD, NodeActor
from repro.protocol.messages import Acknowledgment, Proposal
from repro.runtime import codec
from repro.runtime import transport as transport_module
from repro.runtime.codec import (FRAME_HEADER, MAX_FRAME, encode_any,
                                 encode_blob, encode_hello)
from repro.runtime.transport import InProcTransport, TcpTransport
from repro.taskplane import (ClusterPlane, CreditGrant, DeliveryAck, NodeSpec,
                             Stop, Stopped, TaskPlane, make_task, run_plane)
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
# a cluster node's edges are TcpTransport's: its listen and dial halves
# ----------------------------------------------------------------------
def garbled(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 0xFF])   # body no longer matches CRC


def chain() -> Tree:
    tree = Tree("P0", w=2)
    tree.add_node("P1", w=2, parent="P0", c=1)
    tree.add_node("P2", w=4, parent="P1", c=1)
    return tree


async def hung_up_or_admitted(node, reader, legit) -> bool:
    """Whether the listener hung up on the client behind *reader* (True)
    or admitted it as ``P2`` (False)."""
    while (not reader.at_eof()
           and node.transport._writers.get(("P1", "P2")) is legit):
        await asyncio.sleep(0.002)
    if reader.at_eof():
        assert await asyncio.wait_for(reader.read(), 5) == b""
        return True
    return False


class TestClusterHello:
    """One node's edges, in-process, assembled as its process assembles
    them: ``P1`` (parent ``P0``, child ``P2``) listens with the transport's
    listen half, dials its parent with the dial half and waits for its
    child's hello."""

    SPEC = NodeSpec(name="P1", parent="P0",
                    children=(("P2", Fraction(1)),), all_children=("P2",))

    def dial(self, *blobs):
        """Dial the listener once per blob; returns the node, its upstream
        end, the end the legitimate child got (None before its hello), per
        dial whether the listener hung up on it, and what the wait for the
        child's hello raised (None once it completed)."""
        async def scenario():
            node = _NodeProcess(self.SPEC, conn=None, tree=chain())
            port = node.listen()
            with socket.create_server(("127.0.0.1", 0)) as parent:
                connecting = asyncio.ensure_future(
                    node.connect(parent.getsockname()))
                await asyncio.sleep(0)
                upstream = node.transport._writers[("P1", "P0")]
                clients, hung_up, legit = [], [], None
                for blob in blobs:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                    clients.append(writer)
                    writer.write(blob)
                    refused = await asyncio.wait_for(
                        hung_up_or_admitted(node, reader, legit), timeout=5)
                    if not refused:
                        legit = legit or node.transport._writers[("P1", "P2")]
                    hung_up.append(refused)
                failure = None
                try:
                    await asyncio.wait_for(connecting, timeout=5)
                except ProtocolError as exc:
                    failure = exc
                writers = dict(node.transport._writers)
                for writer in clients:
                    writer.close()
                await asyncio.wait_for(node.transport.close(), timeout=5)
            return node, upstream, legit, hung_up, failure, writers

        return asyncio.run(scenario())

    def test_the_legitimate_child_is_accepted(self):
        node, upstream, legit, hung_up, failure, writers = self.dial(
            encode_hello("P2"))
        assert hung_up == [False] and failure is None
        assert node.failures == []
        assert writers == {("P1", "P0"): upstream, ("P1", "P2"): legit}

    BAD = [
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
    ]
    IDS = ["stranger", "duplicate", "parent", "self", "unhashable",
           "missing-key", "non-object", "bad-crc", "not-json", "oversized"]

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_anything_else_is_hung_up_on(self, bad):
        """After the child greeted, anybody else dialling the listener is
        a stranger: hung up on, and nothing else happens."""
        node, upstream, legit, hung_up, failure, writers = self.dial(
            encode_hello("P2"), bad)
        assert hung_up == [False, True] and failure is None
        # the impostor replaced nobody: both ends are who they were
        assert writers == {("P1", "P0"): upstream, ("P1", "P2"): legit}
        assert legit is not None and node.failures == []
        assert node.transport.corrupt_frames == 0
        assert not node.transport.quarantined

    @pytest.mark.parametrize("bad", BAD[:1] + BAD[2:],
                             ids=IDS[:1] + IDS[2:])
    def test_before_the_child_greeted_it_fails_the_wait(self, bad):
        """The same octets ahead of the child's hello fail the node's wait
        with the transport's typed error; the child is still admitted."""
        node, upstream, legit, hung_up, failure, writers = self.dial(
            bad, encode_hello("P2"))
        assert hung_up == [True, False]
        assert isinstance(failure, ProtocolError)
        assert str(failure) == "bad handshake on 'P1''s listener"
        assert writers == {("P1", "P0"): upstream, ("P1", "P2"): legit}

    def test_the_failure_names_listener_and_claimed_peer(self):
        """The reproducer — P2, a stranger P9, a second P2 — with one more
        stranger first: a refusal does not keep the real child out, and
        only the refusal the wait saw fails the node."""
        good, stranger = encode_hello("P2"), encode_hello("P9")
        node, upstream, legit, hung_up, failure, writers = self.dial(
            stranger, good, stranger, good)
        assert hung_up == [True, False, True, True]
        assert writers == {("P1", "P0"): upstream, ("P1", "P2"): legit}
        assert "'P1'" in str(failure) and "'P9'" in str(failure.__cause__)


class TestClusterSocket:
    """The same node after its child's hello: the transport's end reads
    the socket and hands the node, its only mailbox, what it decoded."""

    class Actor:
        """Records what the transport routes to the actor."""
        state = None

        def __init__(self):
            self.handled = []

        def handle(self, message):
            self.handled.append(message)

    SPEC = dataclasses.replace(TestClusterHello.SPEC, deadline=1.0)

    def serve(self, *writes):
        """Dial, send *writes* one ``write()`` each, close; once the end
        is gone, wait for the node's engine until its deadline.  Returns
        the node and what its waits raised."""
        async def scenario():
            node = _NodeProcess(self.SPEC, conn=None, tree=chain())
            node.actor = self.Actor()
            port = node.listen()
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            for data in writes:
                writer.write(data)
                await writer.drain()
                await asyncio.sleep(0.01)
            writer.close()

            async def hung_up():
                while node.transport._ends:
                    await asyncio.sleep(0.002)

            await asyncio.wait_for(hung_up(), timeout=5)
            try:
                await node.connect(None)
                await node._within(node.engine_done.wait(), "drained engine")
            except ReproError as exc:
                return node, exc
            finally:
                await node.transport.close()

        return asyncio.run(scenario())

    PROPOSAL = Proposal(sender="P2", receiver="P1", beta=Fraction(5, 3), xid=1)

    def test_frames_behind_the_hello_are_routed_however_they_are_cut(self):
        stream = encode_hello("P2") + encode_any(self.PROPOSAL) * 3
        for cut in (len(stream), 5, len(encode_hello("P2")) + 3):
            node, _ = self.serve(stream[:cut], stream[cut:])
            assert node.failures == []          # clean EOF between frames
            assert node.actor.handled == [self.PROPOSAL] * 3

    def test_a_corrupt_frame_fails_the_node_with_a_typed_error(self):
        """Counted, never routed; nothing retries in the cluster, so the
        node fails at its deadline, naming the count."""
        node, failure = self.serve(encode_hello("P2"),
                                   garbled(encode_any(self.PROPOSAL)))
        assert isinstance(failure, TaskPlaneError)
        assert "'P1' saw no drained engine within the 1.0s deadline" \
            in str(failure)
        assert "corrupt_frames=1, dead_streams=0, quarantined=[]" \
            in str(failure)
        assert node.actor.handled == [] and node.failures == []

    @pytest.mark.parametrize("forged", [
        Proposal(sender="P9", receiver="P1", beta=Fraction(5, 3), xid=1),
        DeliveryAck(sender="P0", receiver="P1", task_id=0),
        DeliveryAck(sender="P2", receiver="P0", task_id=0),
    ], ids=["stranger", "its-parent", "to-its-parent"])
    def test_a_frame_naming_another_edge_fails_the_node(self, forged):
        """The socket P2 dialled carries frames from P2 to P1, nothing
        else: a frame that names another edge is one more corrupt frame."""
        node, failure = self.serve(encode_hello("P2")
                                   + encode_any(self.PROPOSAL)
                                   + encode_any(forged))
        assert isinstance(failure, TaskPlaneError)
        assert "corrupt_frames=1, dead_streams=0" in str(failure)
        assert node.actor.handled == [self.PROPOSAL] and node.engine is None

    def test_an_oversized_prefix_fails_the_node(self):
        """Framing lost: the edge is firewalled."""
        node, failure = self.serve(encode_hello("P2"),
                                   FRAME_HEADER.pack(MAX_FRAME + 1, 0)
                                   + b"junk")
        assert isinstance(failure, TaskPlaneError)
        assert "corrupt_frames=1, dead_streams=0, quarantined=['P2']" \
            in str(failure)

    def test_eof_inside_a_frame_fails_the_node(self):
        node, failure = self.serve(encode_hello("P2"),
                                   encode_any(self.PROPOSAL)[:-3])
        assert isinstance(failure, TaskPlaneError)
        assert "corrupt_frames=0, dead_streams=1" in str(failure)
        assert node.actor.handled == []

    def test_eof_before_the_hello_is_a_refused_hello(self):
        for prefix in (b"", encode_hello("P2")[:-3]):
            node, failure = self.serve(prefix)
            assert type(failure) is ProtocolError
            assert str(failure) == "bad handshake on 'P1''s listener"
            assert "before hello" in str(failure.__cause__)
            assert node.transport._writers == {}


class TestClusterNode:
    def test_a_node_left_awaiting_its_child_reports_the_divergence(self):
        """``P1`` was proposed λ and proposed on to ``P2``, whose ack never
        came: the check names what it negotiated, not a raw actor error."""
        spec = dataclasses.replace(TestClusterHello.SPEC,
                                   expected_lam=Fraction(5, 3),
                                   expected_theta=Fraction(0))
        node = _NodeProcess(spec, conn=None, tree=chain())
        sent = []
        node.actor = NodeActor(name="P1", rate=Fraction(1, 2), parent="P0",
                               children=[("P2", Fraction(1))],
                               send=sent.append)
        node.actor.handle(Proposal(sender="P0", receiver="P1",
                                   beta=Fraction(5, 3), xid=1))
        assert node.actor.state == AWAITING_CHILD and len(sent) == 1
        with pytest.raises(TaskPlaneError,
                           match=r"'P1' diverged from Algorithm 1: "
                                 r"negotiated λ=5/3, θ=\?, expected "
                                 r"λ=5/3, θ=0"):
            node._verify()

    def test_a_stranger_dialling_a_running_node_aborts_nothing(self,
                                                               monkeypatch):
        """Any process on the host may dial a cluster node's listener
        while the run is on; once the node's children have greeted, the
        stranger — a name from nowhere, or the node's own — is hung up on
        and the launch completes."""
        collect, ports, answers = ClusterPlane._collect, {}, []

        def dialling(plane, pipes, expected, t_deadline):
            got = collect(plane, pipes, expected, t_deadline)
            if expected == "port":
                ports.update(got)
            elif expected == "ready":           # every child has greeted
                for node, port in ports.items():
                    for name in ("stranger", node):
                        with socket.create_connection(("127.0.0.1", port),
                                                      timeout=5) as dialler:
                            dialler.sendall(encode_hello(name))
                            answers.append(dialler.recv(16))
            return got

        monkeypatch.setattr(ClusterPlane, "_collect", dialling)
        report = ClusterPlane(paper_figure4_tree(), max_tasks=40,
                              deadline=60).run()
        assert answers == [b""] * 2 * len(paper_figure4_tree())
        assert report.completed == 40
        assert report.lost == 0 and report.duplicates == 0

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the garbling encoder reaches the nodes by fork")
    def test_a_refused_frame_fails_the_launch_naming_the_counts(
            self, monkeypatch):
        """Nothing in the cluster retries a control frame: a garbled ack is
        counted by the parent's transport and the launch fails at the
        deadline with the parent's error, which names the count."""
        encode = transport_module.encode_any

        def garbling(message):
            frame = encode(message)
            if isinstance(message, Acknowledgment) and message.sender == "P2":
                frame = garbled(frame)
            return frame

        monkeypatch.setattr(transport_module, "encode_any", garbling)
        with pytest.raises(TaskPlaneError) as excinfo:
            ClusterPlane(paper_figure4_tree(), max_tasks=20, deadline=2).run()
        assert ("'P0' saw no negotiated θ within the 2s deadline "
                "(corrupt_frames=1, dead_streams=0, quarantined=[])"
                in str(excinfo.value))

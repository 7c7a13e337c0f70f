"""TcpTransport's edges: who listens, who may say hello, what a failed
start leaves behind, hostile octets on a live socket, back-pressure, a
``start`` that reconciles, and the ``Session`` that keeps edges between
negotiations (alone and under ``resilient_run``).

Complements ``test_runtime.py`` (negotiations over the transport) and
``test_taskplane_tcp.py`` (mixed control + payload traffic): everything
here drives the transport directly.
"""

from __future__ import annotations

import asyncio
import gc
import random
import socket
import warnings
import zlib
from fractions import Fraction

import pytest

from repro.core.bwfirst import bw_first
from repro.exceptions import FaultError, ProtocolError
from repro.faults import (FaultPlan, NodeCrash, NodeRejoin, RootFailover,
                          resilient_run)
from repro.platform.generators import random_tree, smooth_tree
from repro.platform.tree import Tree
from repro.protocol.messages import Acknowledgment, Proposal
from repro.protocol.retry import RetryPolicy
from repro.runtime import Runtime, Session, TcpTransport, negotiate
from repro.runtime import transport as transport_module
from repro.runtime.codec import (FRAME_HEADER, MAX_FRAME, encode_any,
                                 encode_blob, encode_hello)
from repro.taskplane import DeliveryAck, make_task


def small_tree() -> Tree:
    tree = Tree("P0", w=2)
    tree.add_node("P1", w=2, parent="P0", c=1)
    tree.add_node("P2", w=4, parent="P0", c=2)
    tree.add_node("P3", w=4, parent="P1", c=2)
    return tree


async def started(tree: Tree, **kwargs):
    mailboxes = {node: asyncio.Queue() for node in tree.nodes()}
    transport = TcpTransport(**kwargs)
    await transport.start(tree, mailboxes)
    return transport, mailboxes


async def refuses_dial(port: int) -> bool:
    try:
        _, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        return True
    writer.close()
    return False


def proposal(xid: int = 1) -> Proposal:
    return Proposal(sender="P0", receiver="P1", beta=Fraction(5, 3), xid=xid)


def ack(xid: int = 1) -> Acknowledgment:
    return Acknowledgment(sender="P1", receiver="P0", theta=Fraction(1, 3),
                          xid=xid)


# ----------------------------------------------------------------------
# listeners, tasks, counts
# ----------------------------------------------------------------------
class TestShape:
    def test_only_dialled_nodes_listen_and_the_transport_owns_no_task(self):
        tree = smooth_tree(60, 1)

        async def scenario():
            before = asyncio.all_tasks()
            transport, _ = await started(tree)
            owned = asyncio.all_tasks() - before
            listeners = set(transport.bound_ports)
            await transport.close()
            return owned, listeners

        owned, listeners = asyncio.run(scenario())
        assert owned == set()
        assert listeners == {n for n in tree.nodes() if tree.children(n)}
        assert 0 < len(listeners) < len(tree)

    def test_an_explicit_port_makes_a_leaf_listen(self):
        async def scenario():
            transport, _ = await started(small_tree(), ports={"P2": 0})
            ports = dict(transport.bound_ports)
            await transport.close()
            return ports

        assert set(asyncio.run(scenario())) == {"P0", "P1", "P2"}

    def test_both_ends_of_every_edge_set_nodelay(self):
        """asyncio set ``TCP_NODELAY`` on every socket it opened and the
        raw ends keep it: with Nagle on, a small frame written while an
        earlier one is unacknowledged waits for the peer's ACK, which may
        be delayed.  Pairing runs no task either."""
        tree = smooth_tree(60, 1)

        async def scenario():
            before = asyncio.all_tasks()
            transport, _ = await started(tree)
            owned = asyncio.all_tasks() - before
            nodelay = [end.sock.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY)
                       for end in transport._ends]
            await transport.close()
            return owned, nodelay

        owned, nodelay = asyncio.run(scenario())
        assert owned == set()
        assert len(nodelay) == 2 * (len(tree) - 1) and all(nodelay)

    def test_counts_equal_the_stream_transports(self):
        """``messages``, octets and the per-edge octet table of one
        negotiation, as recorded with the StreamReader-based transport
        this one replaced: the wire did not change, only who reads it."""
        transport = TcpTransport()
        result = Runtime(smooth_tree(60, 1), transport).run()
        assert result.messages == 120
        assert result.telemetry.value("runtime.tcp.octets") == 7228
        table = sorted(transport.octets_by_edge.items())
        assert len(table) == 118
        assert table[:3] == [(("n0", "n1"), 52), (("n0", "n4"), 60),
                             (("n0", "n9"), 61)]
        assert zlib.crc32(repr(table).encode()) == 2476066942
        assert sum(transport.octets_by_edge.values()) == 7228


    def test_close_hangs_up_from_the_childs_end(self, monkeypatch):
        """The end that hangs up first keeps its socket in TIME_WAIT; on
        a listener's port those slow every later ``bind(0)``.  So it is
        always the parent's end that sees EOF, never the child's."""
        saw_eof = []
        eof_received = transport_module._EdgeEnd.eof_received

        def recording(end):
            saw_eof.append((end.owner, end.edge_child))
            return eof_received(end)

        monkeypatch.setattr(transport_module._EdgeEnd, "eof_received",
                            recording)

        async def scenario():
            transport, mailboxes = await started(small_tree())
            await transport.send(proposal())
            await transport.send(ack())
            await asyncio.wait_for(mailboxes["P1"].get(), 5.0)
            await asyncio.wait_for(mailboxes["P0"].get(), 5.0)
            await transport.close()
            return transport

        transport = asyncio.run(scenario())
        assert sorted(saw_eof) == [("P0", "P1"), ("P0", "P2"), ("P1", "P3")]
        assert not transport._ends and transport.dead_streams == 0


# ----------------------------------------------------------------------
# the handshake fails closed, and a failed start cleans up
# ----------------------------------------------------------------------
def garbled_crc(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 0x01])


BAD_HELLOS = {
    "stranger": encode_blob(b'{"hello":"P9"}'),
    "somebody else's child": encode_blob(b'{"hello":"P3"}'),
    "the listener itself": encode_blob(b'{"hello":"P0"}'),
    "duplicate": encode_blob(b'{"hello":"P1"}'),
    "unhashable": encode_blob(b'{"hello":{"a":1}}'),
    "no hello key": encode_blob(b'{"hi":"P2"}'),
    "not an object": encode_blob(b"[1,2]"),
    "not JSON": encode_blob(b"\xff\xfe"),
    "bad CRC": garbled_crc(encode_blob(b'{"hello":"P2"}')),
    "oversized": FRAME_HEADER.pack(MAX_FRAME + 1, 0),
}


class TestHandshake:
    @pytest.mark.parametrize("case", sorted(BAD_HELLOS))
    def test_bad_hello_fails_start_with_a_typed_error(self, case,
                                                      monkeypatch):
        """P2 dials its parent P0 but sends *case* instead of its hello:
        ``start()`` cannot complete the edge, so it must fail — typed —
        and leave no listener, socket or task behind."""
        def hello_of(name) -> bytes:
            return BAD_HELLOS[case] if name == "P2" else encode_hello(name)

        monkeypatch.setattr(transport_module, "encode_hello", hello_of)

        async def scenario():
            tree = small_tree()
            mailboxes = {node: asyncio.Queue() for node in tree.nodes()}
            transport = TcpTransport()
            before = asyncio.all_tasks()
            with pytest.raises(ProtocolError, match="bad handshake"):
                await asyncio.wait_for(transport.start(tree, mailboxes), 5.0)
            assert asyncio.all_tasks() == before
            refused = [await refuses_dial(port)
                       for port in transport.bound_ports.values()]
            return transport, refused

        transport, refused = asyncio.run(scenario())
        assert transport._servers == {}
        assert transport._writers == {}
        assert not transport._ends
        assert refused == [True, True]

    def test_a_failed_handshake_surfaces_through_the_runtime(self,
                                                             monkeypatch):
        monkeypatch.setattr(transport_module, "encode_hello",
                            lambda name: encode_hello("P9"))
        transport = TcpTransport()
        with pytest.raises(ProtocolError, match="bad handshake"):
            Runtime(small_tree(), transport).run()
        assert transport._servers == {} and not transport._ends

    def test_a_listener_that_cannot_bind_closes_the_earlier_ones(self):
        async def scenario():
            with socket.socket() as squatter:
                squatter.bind(("127.0.0.1", 0))
                taken = squatter.getsockname()[1]
                tree = small_tree()
                mailboxes = {node: asyncio.Queue() for node in tree.nodes()}
                transport = TcpTransport(ports={"P2": taken})
                with pytest.raises(OSError):
                    await transport.start(tree, mailboxes)
                # P0 and P1 were already listening when P2 failed to bind
                opened = dict(transport.bound_ports)
                refused = [await refuses_dial(p) for p in opened.values()]
            return transport, opened, refused

        transport, opened, refused = asyncio.run(scenario())
        assert set(opened) == {"P0", "P1"}
        assert refused == [True, True]
        assert transport._servers == {} and not transport._ends

    def test_a_late_stranger_is_hung_up_on_and_nothing_else_happens(self):
        async def scenario():
            transport, mailboxes = await started(small_tree())
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", transport.bound_ports["P0"])
            writer.write(encode_blob(b'{"hello":"P1"}'))  # already connected
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            await transport.send(proposal())
            delivered = await asyncio.wait_for(mailboxes["P1"].get(), 5.0)
            edges = set(transport._writers)
            await transport.close()
            return transport, delivered, edges

        transport, delivered, edges = asyncio.run(scenario())
        assert delivered == proposal()
        assert len(edges) == 6          # three edges, two directions each
        assert transport.corrupt_frames == 0 and not transport.quarantined


class TestAcceptQueue:
    """``start`` dials and accepts each edge in one synchronous stretch;
    whoever else sits in the listener's accept queue is a stranger."""

    def test_a_silent_stranger_ahead_in_the_queue_is_not_the_edge(
            self, monkeypatch):
        """P4's own connection is accepted by the pairing, behind the
        stranger — not left for the listener's reader to find later."""
        by_reader = []
        accept = TcpTransport._accept

        def reading(transport, node, listener):
            before = len(transport._ends)
            accept(transport, node, listener)
            by_reader.append(len(transport._ends) - before)

        monkeypatch.setattr(TcpTransport, "_accept", reading)

        async def scenario():
            tree = small_tree()
            transport, _ = await started(tree)
            tree.add_node("P4", w=3, parent="P0", c=1)
            mailboxes = {node: asyncio.Queue() for node in tree.nodes()}
            with socket.create_connection(
                    ("127.0.0.1", transport.bound_ports["P0"])) as stranger:
                # queued on P0's listener before start() dials P4 there;
                # awaited directly, start() pairs before the loop polls
                await transport.start(tree, mailboxes)
                ungreeted = [end for end in transport._ends if end.hello_due]
                assert len(ungreeted) == 1
                assert (ungreeted[0].sock.getpeername()
                        == stranger.getsockname())
                parent_end = transport._writers[("P0", "P4")]
                child_end = transport._writers[("P4", "P0")]
                assert (parent_end.sock.getpeername()
                        == child_end.sock.getsockname())
                await transport.send(Proposal(sender="P0", receiver="P4",
                                              beta=Fraction(1), xid=1))
                await transport.send(Acknowledgment(
                    sender="P4", receiver="P0", theta=Fraction(1), xid=1))
                got = (await asyncio.wait_for(mailboxes["P4"].get(), 5.0),
                       await asyncio.wait_for(mailboxes["P0"].get(), 5.0))
                await transport.close()
            return transport, got

        transports, got = [], []

        def run():
            transport, crossed = asyncio.run(scenario())
            transports.append(transport)
            got.extend(crossed)

        gc.collect()    # what earlier tests dropped is not this run's leak
        assert leaked(run) == []
        (transport,) = transports
        assert [(m.sender, m.receiver) for m in got] == [("P0", "P4"),
                                                          ("P4", "P0")]
        assert transport.dials == 3 + 1
        assert sum(by_reader) == 0
        assert not transport._ends and transport._servers == {}
        assert transport._writers == {}

    def test_a_dial_not_yet_queued_is_waited_for(self, monkeypatch):
        """On loopback the handshake is complete when ``connect`` returns;
        should the listener not have queued it yet, pairing waits."""
        class Late(socket.socket):
            early = True

            def accept(self):
                if Late.early:
                    Late.early = False
                    raise BlockingIOError
                return super().accept()

        def create_server(address, **kwargs):
            sock = real(address, **kwargs)
            return Late(sock.family, sock.type, fileno=sock.detach())

        real = socket.create_server
        monkeypatch.setattr(transport_module.socket, "create_server",
                            create_server)

        async def scenario():
            transport, mailboxes = await started(small_tree())
            await transport.send(proposal())
            delivered = await asyncio.wait_for(mailboxes["P1"].get(), 5.0)
            await transport.close()
            return delivered

        assert asyncio.run(scenario()) == proposal()
        assert not Late.early


# ----------------------------------------------------------------------
# hostile octets on a live edge
# ----------------------------------------------------------------------
async def settle(predicate, timeout: float = 5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.005)


class TestHostileOctets:
    def test_oversized_prefix_firewalls_the_edge(self):
        async def scenario():
            transport, mailboxes = await started(small_tree())
            raw = transport._writers[("P0", "P1")]
            raw.write(FRAME_HEADER.pack(MAX_FRAME + 1, 0) + b"junk")
            await settle(lambda: transport.quarantined)
            await transport.send(proposal())      # deaf end: discarded
            await transport.send(ack())           # other way: firewalled
            await settle(lambda: transport.quarantine_dropped)
            await transport.send(Proposal(sender="P0", receiver="P2",
                                          beta=Fraction(1), xid=2))
            healthy = await asyncio.wait_for(mailboxes["P2"].get(), 5.0)
            await transport.close()
            return transport, mailboxes, healthy

        transport, mailboxes, healthy = asyncio.run(scenario())
        assert transport.quarantined == {"P1"}
        assert transport.corrupt_frames == 1
        assert transport.quarantine_dropped == 1
        assert mailboxes["P1"].empty() and mailboxes["P0"].empty()
        assert healthy.receiver == "P2"

    def test_a_streak_of_bad_frames_quarantines_and_a_good_one_resets(self):
        async def scenario():
            transport, mailboxes = await started(small_tree(),
                                                 quarantine_after=3)
            raw = transport._writers[("P0", "P1")]
            bad = garbled_crc(encode_any(proposal()))
            raw.write(bad + bad + encode_any(proposal(7)) + bad + bad)
            first = await asyncio.wait_for(mailboxes["P1"].get(), 5.0)
            assert first.xid == 7
            await settle(lambda: transport.corrupt_frames == 4)
            assert not transport.quarantined       # 2, reset, 2
            raw.write(bad + encode_any(proposal(8)))
            await settle(lambda: transport.quarantined)
            await transport.close()
            return transport, mailboxes

        transport, mailboxes = asyncio.run(scenario())
        assert transport.quarantined == {"P1"}
        assert transport.corrupt_frames == 5
        assert mailboxes["P1"].empty()             # xid 8 came too late

    def test_a_well_framed_lie_is_one_more_corrupt_frame(self):
        """``"x": true`` passes the CRC and parses as JSON; it is no
        transaction id (``True == 1`` would match a pending xid 1)."""
        async def scenario():
            transport, mailboxes = await started(small_tree())
            raw = transport._writers[("P0", "P1")]
            raw.write(encode_blob(
                b'{"t":"prop","s":"P0","r":"P1","v":"5/3","x":true}')
                + encode_any(proposal(7)))
            first = await asyncio.wait_for(mailboxes["P1"].get(), 5.0)
            await transport.close()
            return transport, mailboxes, first

        transport, mailboxes, first = asyncio.run(scenario())
        assert first == proposal(7) and mailboxes["P1"].empty()
        assert transport.corrupt_frames == 1 and not transport.quarantined

    def test_a_frame_naming_another_edge_is_one_more_corrupt_frame(self):
        """A frame belongs to the edge it arrived on: on the socket from
        P0 to P1, a frame claiming P2 as its sender — or addressed to P2 —
        is refused like a garbled one and feeds the link's streak."""
        async def scenario():
            transport, mailboxes = await started(small_tree(),
                                                 quarantine_after=2)
            raw = transport._writers[("P0", "P1")]
            for forged in (Proposal(sender="P2", receiver="P1",
                                    beta=Fraction(1), xid=1),
                           Proposal(sender="P0", receiver="P2",
                                    beta=Fraction(1), xid=1)):
                raw.write(encode_any(forged) + encode_any(proposal(7)))
                first = await asyncio.wait_for(mailboxes["P1"].get(), 5.0)
                assert first == proposal(7) and not transport.quarantined
            raw.write(encode_any(DeliveryAck(sender="P2", receiver="P1",
                                             task_id=0)) * 2)
            await settle(lambda: transport.quarantined)
            await transport.close()
            return transport, mailboxes

        transport, mailboxes = asyncio.run(scenario())
        assert transport.corrupt_frames == 4
        assert transport.quarantined == {"P1"}
        assert mailboxes["P1"].empty() and mailboxes["P2"].empty()

    def test_eof_inside_a_frame_is_a_dead_stream_and_clean_eof_is_not(self):
        async def scenario():
            transport, _ = await started(small_tree())
            cut = transport._writers[("P0", "P1")]
            cut.write(encode_any(proposal())[:-3])
            cut.close()
            clean = transport._writers[("P0", "P2")]
            clean.write(encode_any(Proposal(sender="P0", receiver="P2",
                                              beta=Fraction(1), xid=1)))
            clean.close()
            await settle(lambda: len(transport._ends) == 2)
            dead = transport.dead_streams
            await transport.close()
            return dead, transport

        dead, transport = asyncio.run(scenario())
        assert dead == 1
        assert transport.corrupt_frames == 0


    def test_a_dropped_edge_forgets_its_quarantine(self):
        async def scenario():
            tree = small_tree()
            transport, mailboxes = await started(tree)
            raw = transport._writers[("P0", "P1")]
            raw.write(FRAME_HEADER.pack(MAX_FRAME + 1, 0) + b"junk")
            await settle(lambda: transport.quarantined)
            await transport.start(tree, mailboxes)     # kept: stays deaf
            still = set(transport.quarantined)
            branch = tree.subtree("P1")
            tree.remove_subtree("P1")
            await transport.start(tree, mailboxes)     # dropped: forgotten
            dropped = set(transport.quarantined)
            tree.add_subtree("P0", 1, branch)
            await transport.start(tree, mailboxes)     # re-dialled: hears
            await transport.send(proposal())
            heard = await asyncio.wait_for(mailboxes["P1"].get(), 5.0)
            await transport.close()
            return still, dropped, heard

        assert asyncio.run(scenario()) == ({"P1"}, set(), proposal())


# ----------------------------------------------------------------------
# back-pressure
# ----------------------------------------------------------------------
class TestBackPressure:
    def test_a_slow_consumer_loses_and_reorders_nothing(self):
        """Well over 1 MiB of task frames is sent before the consumer
        takes its first one, and it then takes them slowly: the sender
        must have been paused on the way, and every frame arrives, once,
        in order, intact."""
        frames, size = 96, 16 * 1024   # 96 x 16 KiB payloads, ~2 MiB b64

        async def scenario():
            transport, mailboxes = await started(small_tree())
            end = transport._writers[("P0", "P2")]
            # loopback's megabytes of kernel buffer would swallow it all
            for edge, option in ((("P0", "P2"), socket.SO_SNDBUF),
                                 (("P2", "P0"), socket.SO_RCVBUF)):
                transport._writers[edge].sock.setsockopt(
                    socket.SOL_SOCKET, option, 8192)
            pauses = 0
            pause = end.pause_writing

            def counted_pause():
                nonlocal pauses
                pauses += 1
                pause()

            end.pause_writing = counted_pause
            for task_id in range(frames):
                payload = bytes([task_id]) * size
                await transport.send(make_task("P0", "P2", task_id, payload))
            assert transport.octets_sent > (1 << 20)
            received = []
            while len(received) < frames:
                received.append(
                    await asyncio.wait_for(mailboxes["P2"].get(), 5.0))
                if len(received) % 8 == 0:
                    await asyncio.sleep(0.01)      # a slow consumer
            await transport.close()
            return received, pauses, mailboxes["P2"].qsize()

        received, pauses, left = asyncio.run(scenario())
        assert pauses > 0
        assert left == 0
        assert [f.task_id for f in received] == list(range(frames))
        assert all(f.intact and f.payload == bytes([f.task_id]) * size
                   for f in received)


# ----------------------------------------------------------------------
# start() reconciles: the connected edges become the given tree's
# ----------------------------------------------------------------------
class Transcribing(TcpTransport):
    """Logs, in order, what is handed to ``send``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.transcript = []

    async def send(self, message):
        self.transcript.append((message.sender, message.receiver,
                                type(message).__name__, message.xid))
        await super().send(message)


def edge_set(tree: Tree) -> set:
    return {(tree.parent(n), n) for n in tree.nodes()
            if tree.parent(n) is not None}


def internal(tree: Tree) -> set:
    return {n for n in tree.nodes() if tree.children(n)}


MUTATIONS = ("prune leaf", "prune subtree", "graft back",
             "graft under a leaf", "failover", "no change")


def mutate(tree: Tree, rng: random.Random, stash: list) -> str:
    """One seeded platform change, in place (a change that has nothing to
    work on is "no change")."""
    kind = rng.choice(MUTATIONS)
    nodes = [n for n in tree.nodes() if n != tree.root]
    if kind in ("prune leaf", "prune subtree"):
        pool = [n for n in nodes
                if bool(tree.children(n)) == (kind == "prune subtree")]
        if pool and len(tree) > 3:
            node = rng.choice(pool)
            stash.append((tree.parent(node), tree.c(node),
                          tree.subtree(node)))
            tree.remove_subtree(node)
            return kind
    elif kind in ("graft back", "graft under a leaf") and stash:
        parent, cost, snapshot = stash.pop(rng.randrange(len(stash)))
        if kind == "graft under a leaf":
            parent = rng.choice(tree.leaves())
        if parent in tree and not any(n in tree for n in snapshot.nodes()):
            tree.add_subtree(parent, cost, snapshot)
            return kind
    elif kind == "failover" and len(tree.children(tree.root)) > 1:
        tree.failover_root(tree.children_by_bandwidth(tree.root)[0])
        return kind
    return "no change"


def reconcile_trees():
    for seed in range(25):
        if seed % 2:
            yield pytest.param(seed, smooth_tree(60, seed),
                               id=f"smooth-{seed}")
        else:
            yield pytest.param(seed, random_tree(n=20 + seed, seed=seed),
                               id=f"random-{seed}")


class TestReconcile:
    @pytest.mark.parametrize("seed,tree", reconcile_trees())
    def test_six_seeded_changes_by_counts(self, seed, tree, monkeypatch):
        """After every ``start(tree′, mailboxes′)``: who listens, which
        edges are connected, how many sockets were dialled, who hung up
        first, no task owned; then a negotiation over the reconciled
        transport is a fresh transport's, message for message and octet
        for octet."""
        saw_eof = []
        eof_received = transport_module._EdgeEnd.eof_received

        def recording(end):
            saw_eof.append((end.owner, end.edge_child))
            return eof_received(end)

        monkeypatch.setattr(transport_module._EdgeEnd, "eof_received",
                            recording)
        rng = random.Random(seed)

        async def scenario():
            transport = Transcribing()
            connected, stash, kinds = set(), [], []
            tasks = asyncio.all_tasks()
            for step in range(7):
                if step:
                    kinds.append(mutate(tree, rng, stash))
                before_dials, before_eof = transport.dials, len(saw_eof)
                mailboxes = {node: asyncio.Queue() for node in tree.nodes()}
                await asyncio.wait_for(transport.start(tree, mailboxes), 10.0)
                edges = edge_set(tree)
                assert set(transport._servers) == internal(tree), kinds
                assert set(transport._writers) == (
                    edges | {(c, p) for p, c in edges}), kinds
                assert transport.dials - before_dials == len(
                    edges - connected), kinds
                # EOF is seen by the parent's end of a dropped edge, only
                assert sorted(saw_eof[before_eof:], key=str) == sorted(
                    connected - edges, key=str), kinds
                assert asyncio.all_tasks() == tasks
                connected = edges

                snapshot = tree.copy()
                del transport.transcript[:]
                reused = await Runtime(snapshot, transport,
                                       close_transport=False).arun()
                fresh_transport = Transcribing()
                fresh = await Runtime(snapshot, fresh_transport).arun()
                assert reused.throughput == bw_first(snapshot).throughput
                assert transport.transcript == fresh_transport.transcript
                for name in ("runtime.tcp.octets", "protocol.messages",
                             "protocol.bytes"):
                    assert (reused.telemetry.value(name)
                            == fresh.telemetry.value(name)), name
                assert reused.telemetry.value("runtime.tcp.dials") == 0
                assert fresh.telemetry.value("runtime.tcp.dials") == len(edges)
            await transport.close()
            return transport, kinds

        transport, kinds = asyncio.run(scenario())
        assert not transport._ends and not transport._servers
        assert transport._writers == {}
        assert len(kinds) == 6

    def test_the_seeded_sequences_exercise_every_change(self):
        seen = set()
        for seed, tree in (case.values for case in reconcile_trees()):
            rng, stash = random.Random(seed), []
            seen.update(mutate(tree, rng, stash) for _ in range(6))
        assert seen == set(MUTATIONS)

    def test_an_explicit_port_keeps_a_leaf_listening_across_diffs(self):
        async def scenario():
            tree = small_tree()
            transport, _ = await started(tree, ports={"P2": 0, "P3": 0})
            first = dict(transport.bound_ports)
            tree.remove_subtree("P3")          # P1 loses its last child
            await transport.start(
                tree, {node: asyncio.Queue() for node in tree.nodes()})
            listening = set(transport._servers)
            assert set(transport.bound_ports) == listening
            gone = [await refuses_dial(first[n]) for n in ("P1", "P3")]
            kept = transport.bound_ports["P2"] == first["P2"]
            await transport.close()
            return listening, gone, kept

        assert asyncio.run(scenario()) == ({"P0", "P2"}, [True, True], True)

    def test_a_strangers_hello_during_a_diff_closes_everything(
            self, monkeypatch):
        """P4 is grafted under P2, but what arrives on P2's new listener
        names a stranger: the reconcile fails typed and takes the edges it
        had kept down with it."""
        def hello_of(name) -> bytes:
            return encode_hello("P9" if name == "P4" else name)

        async def scenario():
            tree = small_tree()
            transport, _ = await started(tree)
            monkeypatch.setattr(transport_module, "encode_hello", hello_of)
            tree.add_node("P4", w=3, parent="P2", c=1)
            mailboxes = {node: asyncio.Queue() for node in tree.nodes()}
            before = asyncio.all_tasks()
            with pytest.raises(ProtocolError, match="bad handshake"):
                await asyncio.wait_for(transport.start(tree, mailboxes), 5.0)
            assert asyncio.all_tasks() == before
            refused = [await refuses_dial(port)
                       for port in transport.bound_ports.values()]
            return transport, refused

        transport, refused = asyncio.run(scenario())
        assert not transport._ends and transport._servers == {}
        assert transport._writers == {}
        assert refused == [True, True, True]

    @pytest.mark.parametrize("end", [("P0", "P1"), ("P1", "P0")],
                             ids=["parent's end", "child's end"])
    def test_a_socket_aborted_between_two_runs_is_redialled_alone(self, end):
        async def scenario():
            tree = small_tree()
            transport, mailboxes = await started(tree)
            first = dict(transport._writers)
            transport._writers[end].close()
            await transport.start(tree, mailboxes)
            await transport.send(proposal())
            await transport.send(ack())
            got = (await asyncio.wait_for(mailboxes["P1"].get(), 5.0),
                   await asyncio.wait_for(mailboxes["P0"].get(), 5.0))
            replaced = {edge for edge, writer in transport._writers.items()
                        if first[edge] is not writer}
            await transport.close()
            return transport, got, replaced

        transport, got, replaced = asyncio.run(scenario())
        assert transport.dials == 3 + 1
        assert got == (proposal(), ack())
        assert replaced == {("P0", "P1"), ("P1", "P0")}


# ----------------------------------------------------------------------
# Session: one transport, one loop, and a fence
# ----------------------------------------------------------------------
def leaked(run) -> list:
    """The ResourceWarnings *run* (and the collection of what it dropped)
    emits: an unclosed socket, listener or event loop says so."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run()
        gc.collect()
    return [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)]


class TestSession:
    def test_later_negotiations_dial_only_what_changed(self):
        tree = smooth_tree(40, 2)
        leaves = tree.leaves()[:3]
        with Session("tcp") as session:
            results = [session.negotiate(tree)]
            for leaf in leaves:
                tree.remove_subtree(leaf)
                results.append(session.negotiate(tree.copy()))
            branch = Tree(leaves[0], w=3)
            tree.add_subtree(tree.leaves()[0], 2, branch)
            results.append(session.negotiate(tree))
            assert results[-1].throughput == bw_first(tree).throughput
            assert len(session.transport._ends) == 2 * (len(tree) - 1)
        assert [r.telemetry.value("runtime.tcp.dials") for r in results] \
            == [39, 0, 0, 0, 1]
        assert not session.transport._ends and session._loop is None

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_a_session_is_negotiate_over_and_over(self, transport):
        """The same result every time; the first run's traffic is the
        one-shot's, and on an unchanged platform every later one is the
        root answering the virtual parent from memory."""
        tree = smooth_tree(30, 3)
        one_shot = negotiate(tree, transport)
        with Session(transport) as session:
            for run in range(3):
                result = session.negotiate(tree, verify=True)
                assert result.throughput == one_shot.throughput
                assert result.visited == one_shot.visited
                for name, actor in one_shot.actors.items():
                    mine = result.actors[name]
                    assert (mine.lam, mine.transactions) \
                        == (actor.lam, actor.transactions), name
                if run:
                    assert result.messages == 2 and not result.exchanged
                    continue
                for name in ("protocol.messages", "protocol.bytes",
                             "runtime.tcp.octets"):
                    assert (result.telemetry.value(name)
                            == one_shot.telemetry.value(name)), name

    def test_a_duplicate_on_the_wire_leaves_nothing_behind(self):
        """A duplicated Acknowledgment of this run could still be in a
        socket buffer when the next run, counting its xids from 0 again,
        waits for that very xid on that very edge.  So a run that reports
        any duplicate ends with every socket closed."""
        tree = smooth_tree(30, 3)
        edges = len(tree) - 1
        plan = FaultPlan(duplicate=Fraction(1, 10), seed=4)
        with Session(TcpTransport(plan=plan)) as session:
            dirty = session.negotiate(tree, retry=RetryPolicy(max_retries=3))
            assert dirty.duplicated > 0
            assert dirty.throughput == bw_first(tree).throughput
            assert not session.transport._ends
            assert session.transport._servers == {}
            session.transport.plan = None
            clean = session.negotiate(tree)
            assert clean.telemetry.value("runtime.tcp.dials") == edges
            assert clean.throughput == bw_first(tree).throughput
            assert len(session.transport._ends) == 2 * edges   # kept
            again = session.negotiate(tree)
            assert again.telemetry.value("runtime.tcp.dials") == 0

    def test_a_timed_out_child_leaves_nothing_behind(self):
        tree = smooth_tree(30, 3)
        victim = tree.leaves()[0]
        with Session("tcp") as session:
            session.negotiate(tree)
            pruned = session.negotiate(
                tree, failed=frozenset({victim}), base_timeout=0.002,
                retry=RetryPolicy(max_retries=1))
            assert pruned.timeouts > 0
            assert pruned.throughput == bw_first(
                tree.without_subtrees({victim})).throughput
            assert not session.transport._ends
            healed = session.negotiate(tree)
            assert healed.telemetry.value("runtime.tcp.dials") == 29
            assert healed.throughput == bw_first(tree).throughput

    def test_a_negotiation_that_raises_closes_sockets_and_loop(self):
        tree = smooth_tree(30, 3)

        def run():
            session = Session("tcp")
            session.negotiate(tree)
            loop = session._loop
            with pytest.raises(ProtocolError, match="did not converge"):
                # a dead child and no retry policy: nobody ever answers
                session.negotiate(tree, deadline=0.05,
                                  failed=frozenset({tree.leaves()[0]}))
            assert loop.is_closed() and session._loop is None
            assert not session.transport._ends
            assert session.transport._servers == {}
            again = session.negotiate(tree)            # a new loop, afresh
            assert again.telemetry.value("runtime.tcp.dials") == 29
            session.close()
            session.close()                            # twice is once
            assert session._loop is None

        assert leaked(run) == []

    def test_inside_a_running_loop_it_refuses(self):
        async def scenario():
            with Session("tcp") as session:
                with pytest.raises(ProtocolError, match="already running"):
                    session.negotiate(small_tree())

        asyncio.run(scenario())


class TestSupervisedSession:
    """``resilient_run`` over one session: what it dials, what it leaves."""

    @staticmethod
    def dash_plan(tree: Tree, seed: int) -> FaultPlan:
        # three spread-out leaves crash two time units apart, the first
        # one returns (the ``recovery`` workload of benchmarks/e2e)
        leaves = sorted((n for n in tree.leaves() if n != tree.root), key=str)
        victims = leaves[:: max(1, len(leaves) // 3)][:3]
        crashes = tuple(NodeCrash(node, Fraction(2 + 2 * i))
                        for i, node in enumerate(victims))
        return FaultPlan(crashes=crashes, seed=seed,
                         rejoins=(NodeRejoin(victims[0], Fraction(8)),))

    @staticmethod
    def platforms(tree: Tree, plan: FaultPlan):
        """The platform after each epoch of a dash plan."""
        live, stash = tree.copy(), {}
        for crash in plan.crashes:
            node = crash.node
            stash[node] = live.parent(node), live.c(node), live.subtree(node)
            live.remove_subtree(node)
            yield live.copy()
        for rejoin in plan.rejoins:
            live.add_subtree(*stash[rejoin.node])
            yield live.copy()

    def test_the_dash_plan_dials_every_edge_once_and_one_again(self):
        """...and says what each epoch changed: 22 + 199 + 109 + 24
        messages (12 of them notices) where four cold negotiations of the
        same four platforms — still gated, as one-shots — say 944."""
        tree = smooth_tree(120, 1)
        plan = self.dash_plan(tree, 1)
        transport = TcpTransport()
        reports = []
        warned = leaked(lambda: reports.append(resilient_run(
            tree, plan, runtime=transport,
            settle_periods=1, after_periods=2)))
        (report,) = reports
        assert warned == []
        assert [e.kind for e in report.epochs] == ["prune"] * 3 + ["rejoin"]
        assert transport.dials == 118 + 0 + 0 + 1
        assert [e.messages for e in report.epochs] == [22, 199, 109, 24]
        assert [e.bytes for e in report.epochs] == [1157, 12_044, 6640, 1299]
        assert report.renegotiation_messages == 354
        assert report.renegotiation_bytes == 21_140
        assert report.renegotiation_notices == 2 + 7 + 1 + 2
        assert report.heartbeats == 49_162   # the last switch comes sooner
        assert report.rate_after == report.new_optimum
        assert not transport._ends and transport._servers == {}
        cold = [negotiate(platform, "tcp")
                for platform in self.platforms(tree, plan)]
        assert [r.messages for r in cold] == [238, 236, 234, 236]
        assert sum(r.messages for r in cold) == 944
        assert sum(r.telemetry.value("runtime.tcp.octets")
                   for r in cold) == 57_861

    def test_a_failover_epoch_over_tcp_heals_exactly(self):
        tree = smooth_tree(30, 4)
        victim = tree.leaves()[0]
        plan = FaultPlan(crashes=(NodeCrash(victim, Fraction(2)),),
                         failover=RootFailover(Fraction(5)), seed=2)
        transport = TcpTransport()
        report = resilient_run(tree, plan, runtime=transport,
                               settle_periods=1, after_periods=2)
        assert [e.kind for e in report.epochs] == ["prune", "failover"]
        assert report.rate_after == report.new_optimum
        assert report.new_optimum == bw_first(report.survivors).throughput
        # the election re-parents the old root's other children
        moved = len(tree.children(tree.root)) - 1
        assert transport.dials == (len(tree) - 2) + moved
        assert not transport._ends

    def test_a_fault_error_mid_run_leaves_nothing_open(self):
        tree = small_tree()
        elected = tree.children_by_bandwidth("P0")[0]
        plan = FaultPlan(failover=RootFailover(Fraction(2)),
                         crashes=(NodeCrash(elected, Fraction(6)),), seed=1)
        transport = TcpTransport()

        def run():
            with pytest.raises(FaultError, match="acting master"):
                resilient_run(tree, plan, runtime=transport)

        assert leaked(run) == []
        assert transport.dials > 0          # the failover epoch did run
        assert not transport._ends and transport._servers == {}

    def test_a_failed_negotiation_leaves_nothing_open(self):
        class DiesInTheSecondRun(TcpTransport):
            async def send(self, message):
                if self.messages_sent > 130:
                    raise ConnectionResetError("pulled the plug")
                await super().send(message)

        tree = smooth_tree(60, 1)
        transport = DiesInTheSecondRun()

        def run():
            with pytest.raises(ConnectionResetError):
                resilient_run(tree, self.dash_plan(tree, 1),
                              runtime=transport)

        assert leaked(run) == []
        assert transport.messages_sent > 118
        assert not transport._ends and transport._servers == {}

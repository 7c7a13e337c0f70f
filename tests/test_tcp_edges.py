"""TcpTransport's edges: who listens, who may say hello, what a failed
start leaves behind, hostile octets on a live socket, back-pressure.

Complements ``test_runtime.py`` (negotiations over the transport) and
``test_taskplane_tcp.py`` (mixed control + payload traffic): everything
here drives the transport directly.
"""

from __future__ import annotations

import asyncio
import json
import socket
import zlib
from fractions import Fraction

import pytest

from repro.exceptions import ProtocolError
from repro.platform.generators import smooth_tree
from repro.platform.tree import Tree
from repro.protocol.messages import Acknowledgment, Proposal
from repro.runtime import Runtime, TcpTransport
from repro.runtime import transport as transport_module
from repro.runtime.codec import (FRAME_HEADER, MAX_FRAME, encode_blob,
                                 encode_frame)
from repro.taskplane import make_task


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
        and leave no listener, socket or task behind.  (The transport
        frames nothing but hellos with ``encode_blob``; messages go
        through ``encode_any``.)"""
        def hello_of(body: bytes) -> bytes:
            if json.loads(body) == {"hello": "P2"}:
                return BAD_HELLOS[case]
            return encode_blob(body)

        monkeypatch.setattr(transport_module, "encode_blob", hello_of)

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
        monkeypatch.setattr(transport_module, "encode_blob",
                            lambda body: encode_blob(b'{"hello":"P9"}'))
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
            raw = transport._writers[("P0", "P1")].transport
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
            raw = transport._writers[("P0", "P1")].transport
            bad = garbled_crc(encode_frame(proposal()))
            raw.write(bad + bad + encode_frame(proposal(7)) + bad + bad)
            first = await asyncio.wait_for(mailboxes["P1"].get(), 5.0)
            assert first.xid == 7
            await settle(lambda: transport.corrupt_frames == 4)
            assert not transport.quarantined       # 2, reset, 2
            raw.write(bad + encode_frame(proposal(8)))
            await settle(lambda: transport.quarantined)
            await transport.close()
            return transport, mailboxes

        transport, mailboxes = asyncio.run(scenario())
        assert transport.quarantined == {"P1"}
        assert transport.corrupt_frames == 5
        assert mailboxes["P1"].empty()             # xid 8 came too late

    def test_eof_inside_a_frame_is_a_dead_stream_and_clean_eof_is_not(self):
        async def scenario():
            transport, _ = await started(small_tree())
            cut = transport._writers[("P0", "P1")].transport
            cut.write(encode_frame(proposal())[:-3])
            cut.close()
            clean = transport._writers[("P0", "P2")].transport
            clean.write(encode_frame(Proposal(sender="P0", receiver="P2",
                                              beta=Fraction(1), xid=1)))
            clean.close()
            await settle(lambda: len(transport._ends) == 2)
            dead = transport.dead_streams
            await transport.close()
            return dead, transport

        dead, transport = asyncio.run(scenario())
        assert dead == 1
        assert transport.corrupt_frames == 0


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
                transport._writers[edge].transport.get_extra_info(
                    "socket").setsockopt(socket.SOL_SOCKET, option, 8192)
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

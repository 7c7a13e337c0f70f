"""TcpTransport under mixed negotiation + payload traffic.

The task plane reuses the very sockets the negotiation opened, so the
transport must (a) interleave control and payload frames on one connection
without confusing them, (b) keep the fault plan's control-plane loss model
away from payload frames — the plane owns their faults and retransmission
— and (c) drain-and-close without orphaning listeners or losing frames
already written.
"""

from __future__ import annotations

import asyncio
from fractions import Fraction

import pytest

from repro.faults.plan import FaultPlan
from repro.platform.tree import Tree
from repro.protocol.messages import Acknowledgment, Proposal
from repro.runtime.transport import TcpTransport
from repro.taskplane import (CreditGrant, DeliveryAck, Stop, Stopped,
                             make_task, run_plane)


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

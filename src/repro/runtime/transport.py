"""Pluggable message transports for the distributed runtime.

A :class:`Transport` moves :mod:`repro.protocol.messages` into mailboxes.
A mailbox is anything with ``put_nowait``; :attr:`Transport.mailboxes`
maps each receiver to one and is read on every delivery, so whoever owns
a live transport re-points it by assigning another mapping.  The
:class:`~repro.runtime.runtime.Runtime` maps every receiver to its one
run-queue; the task plane, taking the connections over, maps each node to
its engine, which is its own mailbox.  Two implementations:

* :class:`InProcTransport` — no wire at all.  Optionally applies a
  :class:`~repro.faults.plan.FaultPlan`'s control-plane loss model and a
  seeded per-message delivery delay, giving drop/duplication/reordering
  parity with the simulated :class:`~repro.faults.inject.FaultyNetwork`
  on a real event loop;
* :class:`TcpTransport` — one loopback TCP socket per tree edge, both
  directions on the same socket, carrying the length|CRC32-framed JSON of
  :mod:`repro.runtime.codec`.  Sockets are plain non-blocking sockets the
  event loop watches with ``add_reader``: a ``send`` of a burst hands
  each edge's frames to its socket with one ``send`` call, and each end
  decodes what it reads synchronously — refusing a frame that names
  another edge — into its owner's mailbox.  Who listens, how an edge is
  paired, the handshake and the shutdown order are described on the
  class.

Both transports tally ``messages_sent``, ``bytes_sent`` (control messages
only: the *model* bytes of :func:`~repro.protocol.messages.wire_size`, so
counters are comparable across the simulated and real paths),
``payload_frames`` and ``dropped`` / ``duplicated`` (faults they injected
themselves).  The TCP transport additionally counts the real octets
written — in total (``octets_sent``) and per directed edge
(``octets_by_edge``), which the runtime surfaces as
``runtime.tcp.edge_octets`` counters for the live dashboard.

What a plan does to a control frame — lost, garbled or *n* clean copies —
and when a streak of garbled frames makes a link hostile is decided by the
one :class:`~repro.faults.inject.LinkFaultDecider` the base class holds,
the rule the simulated network follows; the transports carry it out.  A
garbled frame is damaged on the wire (literally, for TCP — a flipped body
byte the CRC32 of :mod:`repro.runtime.codec` catches at the receiver; by
an equivalent integrity-check model for in-proc frames, which never
serialise), counted in ``corrupt_frames`` and discarded **before** any
actor state machine sees it; retransmission recovers, exactly as for a
drop.  With ``quarantine_after=K``, the K-th *consecutive* corrupt frame
on a link — counted **per link**, not per receiving end — puts its child
endpoint in ``quarantined``: the receiver stops listening to the edge (a
firewall — later frames, valid or not, are counted in
``quarantine_dropped``), and the parent's retry timeouts then prune the
child exactly as if it had crashed.

The virtual-parent link that seeds the root is process-local on every
transport — never serialised, never perturbed — mirroring the simulated
network's convention.
"""

from __future__ import annotations

import asyncio
import socket
from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, List, Mapping, Optional, Set, Tuple

from ..exceptions import CodecError, ProtocolError, ReproError
from ..faults.inject import GARBLED, LOST, LinkFaultDecider, link_child
from ..faults.plan import FaultPlan
from ..platform.tree import Tree
from ..protocol.messages import (Acknowledgment, Message, Notice, Proposal,
                                 wire_size)
from .codec import (FrameSplitter, decode_body, decode_hello, encode_any,
                    encode_hello)


def _is_control(message) -> bool:
    """Control-plane frames get the fault plan's loss model and the model
    byte accounting of :func:`~repro.protocol.messages.wire_size`; payload
    (task-plane) frames bypass both — their faults are injected by the
    task plane itself, where retransmission lives."""
    return isinstance(message, (Proposal, Acknowledgment, Notice))


class Transport(ABC):
    """Delivers protocol messages into their receivers' mailboxes."""

    def __init__(self, plan: Optional[FaultPlan] = None,
                 quarantine_after: Optional[int] = None) -> None:
        self.tree: Optional[Tree] = None
        #: the one fault seam: *plan*'s verdicts and the per-link streak
        self._decider = LinkFaultDecider(plan, quarantine_after)
        #: receiver → anything with ``put_nowait``; looked up per delivery
        self.mailboxes: Mapping[Hashable, Any] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.dropped = 0
        self.duplicated = 0
        self.corrupted_sent = 0
        self.corrupt_frames = 0
        self.quarantine_dropped = 0
        self.dead_streams = 0
        self.payload_frames = 0
        self.quarantined: Set[Hashable] = set()

    @property
    def plan(self) -> Optional[FaultPlan]:
        """The fault plan staged on this transport; assign ``None`` to
        carry every later frame unharmed."""
        return self._decider.plan

    @plan.setter
    def plan(self, plan: Optional[FaultPlan]) -> None:
        self._decider.plan = plan

    async def start(self, tree: Tree,
                    mailboxes: Mapping[Hashable, Any]) -> None:
        """Bind to the platform; must complete before the first send."""
        self.tree = tree
        self.mailboxes = mailboxes

    @abstractmethod
    async def send(self, *messages: Message) -> None:
        """Route *messages*, in order, toward their receivers' mailboxes —
        one message (the Runtime's sends) or a task-plane burst."""

    async def close(self) -> None:
        """Graceful shutdown: flush in-flight traffic, release resources."""

    # ------------------------------------------------------------------
    def _deliver_local(self, message: Message) -> None:
        mailbox = self.mailboxes.get(message.receiver)
        if mailbox is None:
            raise ProtocolError(f"no mailbox for {message.receiver!r}")
        mailbox.put_nowait(message)


class InProcTransport(Transport):
    """In-process delivery, optionally lossy and delayed.

    *plan* applies the fault plan's per-link loss model; its decisions are
    keyed by message ``xid`` and occurrence
    (:class:`~repro.faults.inject.LinkFaultDecider`), so the fault trace is
    the same one :class:`~repro.faults.inject.FaultyNetwork` injects into
    the simulated negotiation — concurrency cannot change which messages
    die.  *max_delay* (wall seconds) adds a seeded uniform delivery delay
    per message, exercising reordering; with ``max_delay=0`` delivery is
    immediate and in send order.

    *quarantine_after* arms the per-link quarantine of the module
    docstring; a quarantined link swallows every later send.
    """

    def __init__(self, plan: Optional[FaultPlan] = None,
                 max_delay: float = 0.0, seed: int = 0,
                 quarantine_after: Optional[int] = None):
        super().__init__(plan, quarantine_after)
        if max_delay < 0:
            raise ProtocolError("max_delay must be >= 0")
        self.max_delay = max_delay
        self.seed = seed
        self._late: List[asyncio.TimerHandle] = []

    async def start(self, tree: Tree,
                    mailboxes: Mapping[Hashable, Any]) -> None:
        await self.close()  # a copy still delayed belonged to the last run
        await super().start(tree, mailboxes)

    async def send(self, *messages: Message) -> None:
        for message in messages:
            self._carry(message)

    def _carry(self, message: Message) -> None:
        self.messages_sent += 1
        control = _is_control(message)
        if control:
            self.bytes_sent += wire_size(message)
        child = link_child(self.tree, message.sender, message.receiver)
        if child is not None and child in self.quarantined:
            self.quarantine_dropped += 1
            return
        if not control:
            # payload frames: delivered verbatim, never serialised — the
            # task plane owns their fault model and retransmission
            self.payload_frames += 1
            self._deliver_local(message)
            return
        decider = self._decider
        if child is None or (decider.plan is None and not self.max_delay):
            self._deliver_local(message)
            return
        coordinates = decider.coordinates(message)
        copies = 1
        if decider.plan is not None:
            copies = decider.judge(child, coordinates)
            if copies == LOST:
                self.dropped += 1
                return
            if copies == GARBLED:
                self.corrupted_sent += 1
                self.corrupt_frames += 1
                if decider.received(child, False):
                    self.quarantined.add(child)
                return
            if decider.streaks:
                decider.received(child, True)
            self.duplicated += copies - 1
        for copy in range(copies):
            if self.max_delay:
                delay = self.max_delay * decider.delay(
                    self.seed, copy, coordinates)
                self._late.append(asyncio.get_running_loop().call_later(
                    delay, self._deliver_local, message))
            else:
                self._deliver_local(message)

    async def close(self) -> None:
        for handle in self._late:
            handle.cancel()
        self._late.clear()


#: the write buffer an end may hold before ``send`` waits for it to drain,
#: and the level at which it stops waiting (asyncio's defaults)
_HIGH_WATER, _LOW_WATER = 64 * 1024, 16 * 1024
#: one read's worth; every end reads into the hub's one buffer of this size
#: (a fresh 256 KiB ``recv`` per read can cost an mmap and a munmap)
_READ_SIZE = 256 * 1024
#: how long pairing waits for its own connection to reach the accept queue
#: (on loopback it is there when ``connect`` returns)
_ACCEPT_WAIT = 5.0
_IPV6_LOOPBACK = bytes(15) + b"\x01"


def check_loopback(host: str) -> None:
    """Fail closed on a routable bind: a hello is unauthenticated."""
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    try:
        address = socket.inet_pton(family, host)
    except OSError:  # a name, not an address
        address = b""
    if not (len(address) == 4 and address[0] == 127
            or address == _IPV6_LOOPBACK):
        raise ProtocolError(f"refusing to listen on {host!r}: a hello is "
                            "unauthenticated, so only on 127.0.0.0/8 or ::1")


class _EdgeEnd:
    """*owner*'s end of one edge: a non-blocking socket read through the
    loop's ``add_reader``.  :meth:`data_received` splits frames
    synchronously out of one buffer and puts the decoded messages straight
    into the mailbox the hub maps *owner* to at that moment.  A dialling
    (child) end is built knowing its *peer*; on an accepted (parent) end
    *peer* is ``None`` until the first frame, the hello naming the child
    that dialled.

    :meth:`write` hands octets to the socket at once; what it does not
    take is buffered and flushed when the socket is writable, and above
    ``_HIGH_WATER`` buffered octets :meth:`pause_writing` sets the
    ``resumed`` future ``send`` awaits, resolved at ``_LOW_WATER``.  On EOF
    the end closes; :meth:`close` flushes the buffer, then closes the
    socket.

    Hostile bytes stop here: a recoverable :class:`CodecError` skips the
    frame and feeds the link's quarantine streak (kept by the hub's
    decider, so both ends of an edge count into one), a non-recoverable
    one firewalls the edge.  No actor ever sees a frame that failed
    validation — at worst the peer's retries time out, which is the
    crash-detection path.
    """

    def __init__(self, hub: "TcpTransport", owner: Hashable,
                 peer: Optional[Hashable], sock: socket.socket):
        self.hub, self.owner, self.peer, self.sock = hub, owner, peer, sock
        self.hello_due = peer is None
        self.edge_child = owner  # an accepting end learns it from the hello
        self.splitter = FrameSplitter()
        self.deaf = False  # firewalled, refused or leaving: discard input
        self.closing = False
        self.resumed: Optional[asyncio.Future] = None  # set while paused
        self.outgoing = bytearray()  # written, not yet taken by the socket
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # the loop is handed the descriptor, not the socket: a selector
        # formats its key into every miss, and a socket's repr is syscalls
        self.fd = sock.fileno()
        self.loop = hub._loop
        self.loop.add_reader(self.fd, self._readable)
        hub._ends.add(self)

    @property
    def edge(self) -> Tuple[Optional[Hashable], Hashable]:
        """The tree edge ``(parent, child)`` this end serves — no parent on
        an accepting end nobody has greeted yet."""
        if self.edge_child == self.owner:
            return (self.peer, self.owner)
        return (self.owner, self.edge_child)

    # -- reading --------------------------------------------------------
    def _readable(self) -> None:
        inbox = self.hub._inbox
        try:
            size = self.sock.recv_into(inbox)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._lost()
            return
        if not size:
            self.eof_received()
            self.close()
            return
        try:
            self.data_received(inbox[:size])
        except Exception:
            self._lost()
            raise

    def data_received(self, data: memoryview) -> None:
        hub, splitter = self.hub, self.splitter
        if not self.deaf:
            splitter.feed(data)
        while not self.deaf:
            try:
                body = splitter.next_body()
                if body is None:
                    return
                if self.hello_due:
                    self._hello(body)
                    continue
                message = decode_body(body, (self.peer, self.owner))
            except CodecError as exc:
                if self.hello_due:
                    self._refuse(exc)
                    return
                hub.corrupt_frames += 1
                hostile = hub._decider.received(self.edge_child, False)
                if hostile or not exc.recoverable:
                    # a hostile link or framing lost: retries will prune
                    hub.quarantined.add(self.edge_child)
                    self.deaf = True
                continue
            if hub._decider.streaks:
                hub._decider.received(self.edge_child, True)
            if self.edge_child in hub.quarantined:
                hub.quarantine_dropped += 1
            else:
                hub.mailboxes[self.owner].put_nowait(message)

    def _hello(self, body: bytes) -> None:
        """Fail closed: only a not yet connected child of *owner* may
        introduce itself on *owner*'s listener."""
        hub, owner = self.hub, self.owner
        try:
            peer = decode_hello(body)
            if (hub.tree.parent(peer) != owner
                    or (owner, peer) in hub._writers):
                raise ProtocolError(f"{peer!r} is no unconnected child")
        except ReproError as exc:  # a bad body, or a name not in the tree
            return self._refuse(exc)
        self.hello_due = False
        self.peer = self.edge_child = peer
        hub._writers[(owner, peer)] = self
        hub._hellos_due -= 1
        if not hub._hellos_due and not hub._ready.done():
            hub._ready.set_result(None)

    def _refuse(self, cause: BaseException) -> None:
        """Hang up on a bad hello and fail a :meth:`TcpTransport.start`
        still waiting (a later stranger is just hung up on)."""
        self.deaf = True
        self.close()
        if not self.hub._ready.done():
            failure = ProtocolError(
                f"bad handshake on {self.owner!r}'s listener")
            failure.__cause__ = cause
            self.hub._ready.set_result(failure)

    def eof_received(self) -> None:
        if self.hello_due:
            self._refuse(ProtocolError("connection closed before hello"))
        elif not self.deaf and self.splitter.pending:
            self.hub.dead_streams += 1  # peer vanished mid-frame

    # -- writing --------------------------------------------------------
    def write(self, data: bytes) -> None:
        outgoing = self.outgoing
        if not outgoing:
            try:
                sent = self.sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._lost()
                return
            if sent == len(data):
                return
            data = memoryview(data)[sent:]
            self.loop.add_writer(self.fd, self._writable)
        outgoing += data
        if len(outgoing) > _HIGH_WATER and self.resumed is None:
            self.pause_writing()

    def _writable(self) -> None:
        outgoing = self.outgoing
        try:
            sent = self.sock.send(outgoing)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._lost()
            return
        del outgoing[:sent]
        if self.resumed is not None and len(outgoing) <= _LOW_WATER:
            self.resume_writing()
        if not outgoing:
            self.loop.remove_writer(self.fd)
            if self.closing:
                self._lost()

    def pause_writing(self) -> None:
        self.resumed = self.loop.create_future()

    def resume_writing(self) -> None:
        self.resumed.set_result(None)
        self.resumed = None

    # -- closing --------------------------------------------------------
    def close(self) -> None:
        """Stop reading; close the socket once the buffer is flushed."""
        if self.closing:
            return
        self.closing = True
        self.loop.remove_reader(self.fd)
        if not self.outgoing:
            self._lost()

    def _lost(self) -> None:
        """Close the socket now and take the end out of the hub's books."""
        hub, sock = self.hub, self.sock
        if sock.fileno() < 0:
            return
        if not self.closing:
            self.closing = True
            self.loop.remove_reader(self.fd)
        if self.outgoing:
            self.loop.remove_writer(self.fd)
            self.outgoing.clear()
        sock.close()
        if self.resumed is not None:
            self.resume_writing()
        hub._ends.discard(self)
        if hub._writers.get((self.owner, self.peer)) is self:
            del hub._writers[(self.owner, self.peer)]  # a later start re-dials
        hub._leaving.discard(self)
        if not hub._leaving and hub._all_left is not None:
            hub._all_left.set_result(None)
            hub._all_left = None


class TcpTransport(Transport):
    """One loopback TCP socket per tree edge, length|CRC32-framed JSON.

    Only nodes somebody dials listen: those with children, plus any node
    named in *ports*.  :meth:`start` makes the connected edges equal the
    tree it is given — from nothing the first time, from whatever the last
    run left connected after that: edges the platform lost are hung up and
    waited for, listeners close on nodes that left or lost their last child
    and open on nodes that just became internal, and only edges not yet
    connected are dialled (``dials`` counts them).  It composes two public
    halves a process can drive alone for its one node (the cluster does):
    :meth:`listen` and :meth:`dial`, with :meth:`expect` / :meth:`admitted`
    waiting for the hellos due.  ``start`` pairs each new edge in one
    synchronous stretch — dial, then accept on the parent's listener until
    that very connection comes out; whoever was queued before it is a
    stranger, read like one.  A listener (loopback only) accepts only a
    hello naming a not yet connected child of its owner in *that* tree.
    An edge whose socket died in between is simply dialled again, and a
    dropped edge takes its quarantine entry and corruption streak with it.
    Start returns once every edge's hello has been accepted, so the
    negotiation never races the handshake; if a dial or a handshake fails
    it closes everything — kept edges included — and raises.  Reuse needs
    the event loop the sockets were opened on
    (:class:`~repro.runtime.runtime.Session` holds both).  Each end of an
    edge is one ``_EdgeEnd`` owning its socket (``TCP_NODELAY``, read
    through ``add_reader``); the transport owns no tasks.

    *plan* stages the fault plan **at the sender** — TCP itself never
    loses data: a dropped frame is never written, a duplicated one is
    written twice, a corrupted one is written once with a body byte flipped
    after its CRC32 was computed, so it dies in the receiver's
    ``data_received`` — real garbled octets on a real socket, never
    reaching an actor.
    *quarantine_after* arms the receiver-side firewall described in the
    module docstring.
    """

    def __init__(self, host: str = "127.0.0.1",
                 plan: Optional[FaultPlan] = None,
                 quarantine_after: Optional[int] = None,
                 ports: Optional[Dict[Hashable, int]] = None):
        super().__init__(plan, quarantine_after)
        self.host = host
        #: requested listener port per node (0 = ephemeral); after
        #: :meth:`start`, :attr:`bound_ports` holds every listener's port
        self.ports: Dict[Hashable, int] = dict(ports or {})
        self.bound_ports: Dict[Hashable, int] = {}
        self.octets_sent = 0
        #: real octets written per directed edge (sender, receiver) — the
        #: dashboard's per-edge traffic panel reads this via the runtime's
        #: ``runtime.tcp.edge_octets`` counters
        self.octets_by_edge: Dict[Tuple[Hashable, Hashable], int] = {}
        self.dials = 0  # sockets opened, over every start()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: what an end's read lands in before its splitter copies it out
        self._inbox = memoryview(bytearray(_READ_SIZE))
        #: node → its listening socket
        self._servers: Dict[Hashable, socket.socket] = {}
        #: the end each directed edge (sender, receiver) writes through
        self._writers: Dict[Tuple[Hashable, Hashable], _EdgeEnd] = {}
        self._ends: Set[_EdgeEnd] = set()  # open connections, greeted or not
        self._hellos_due = 0
        #: resolved by the last good hello with ``None``, or by the first
        #: bad one with its :class:`ProtocolError`
        self._ready: Optional[asyncio.Future] = None
        #: ends being hung up; the last one to go resolves ``_all_left``
        self._leaving: Set[_EdgeEnd] = set()
        self._all_left: Optional[asyncio.Future] = None

    # ------------------------------------------------------------------
    async def start(self, tree: Tree,
                    mailboxes: Mapping[Hashable, Any]) -> None:
        await super().start(tree, mailboxes)
        self._loop = asyncio.get_running_loop()
        edges = [(tree.parent(n), n) for n in tree.nodes()
                 if tree.parent(n) is not None]
        listeners = [n for n in tree.nodes()
                     if tree.children(n) or n in self.ports]
        # an edge stays only while both its ends are up: a socket that died
        # since the last run took its ends out of _writers as they noticed
        kept = {(p, c) for p, c in edges if self._up(p, c) and self._up(c, p)}
        kept_children = {c for _, c in kept}
        self.quarantined &= kept_children
        streaks = self._decider.streaks
        for child in streaks.keys() - kept_children:
            del streaks[child]
        try:
            closing = self._servers.keys() - set(listeners)
            for node in closing:
                self._unlisten(node)
            gone = [end for end in self._ends if end.edge not in kept]
            for end in gone:
                end.deaf = True  # its owner may have no mailbox any more
            await self._hang_up(gone)
            for node in closing:
                del self.bound_ports[node]
            for node in listeners:
                if node not in self._servers:
                    self.listen(node)
            new = [edge for edge in edges if edge not in kept]
            self.expect(len(new))
            for parent, child in new:
                self._pair(parent, child)
            await self.admitted()
        except BaseException:
            await self.close()
            raise

    def listen(self, node: Hashable) -> int:
        """The listen half: open *node*'s listener and return its port;
        whoever connects there owes a hello (see :meth:`expect`)."""
        check_loopback(self.host)
        loop = self._loop = asyncio.get_running_loop()
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        listener = socket.create_server(
            (self.host, self.ports.get(node, 0)), family=family,
            backlog=max(100, len(self.tree.children(node))))
        listener.setblocking(False)
        self._servers[node] = listener
        port = self.bound_ports[node] = listener.getsockname()[1]
        loop.add_reader(listener.fileno(), self._accept, node, listener)
        return port

    def dial(self, child: Hashable, address) -> _EdgeEnd:
        """The dial half: connect *child* to its parent's listener at
        *address* (a blocking connect: loopback) and say its hello."""
        parent = self.tree.parent(child)
        sock = socket.socket(socket.AF_INET6 if ":" in address[0]
                             else socket.AF_INET)
        try:
            sock.connect(address)
        except BaseException:
            sock.close()
            raise
        self.dials += 1
        end = _EdgeEnd(self, child, parent, sock)
        end.write(encode_hello(child))
        self._writers[(child, parent)] = end
        return end

    def expect(self, hellos: int) -> None:
        """Arm :meth:`admitted` for the next *hellos* good hellos."""
        self._hellos_due = hellos
        self._ready = asyncio.get_running_loop().create_future()
        if not hellos:
            self._ready.set_result(None)

    async def admitted(self) -> None:
        """Wait for the hellos :meth:`expect` armed; a bad hello before the
        last of them raises its :class:`ProtocolError`."""
        failure = await self._ready
        if failure is not None:
            raise failure

    def _pair(self, parent: Hashable, child: Hashable) -> None:
        """Dial *child*'s edge and accept it on *parent*'s listener, in
        one synchronous stretch."""
        listener = self._servers[parent]
        end = self.dial(child, listener.getsockname())
        accepted = self._accept_own(parent, listener, end.sock.getsockname())
        _EdgeEnd(self, parent, None, accepted)

    def _accept_own(self, node: Hashable, listener: socket.socket,
                    address) -> socket.socket:
        """Accept on *node*'s listener until the connection from *address*
        comes out; whoever queued before it is a stranger, who must say
        hello like anybody else."""
        while True:
            try:
                sock, peer = listener.accept()
            except (BlockingIOError, InterruptedError):
                listener.settimeout(_ACCEPT_WAIT)  # the last ACK is on its way
                try:
                    sock, peer = listener.accept()
                finally:
                    listener.setblocking(False)
            if peer == address:
                return sock
            _EdgeEnd(self, node, None, sock)

    def _accept(self, node: Hashable, listener: socket.socket) -> None:
        """The listener's reader: everybody queued is a stranger."""
        while True:
            try:
                sock, _ = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # e.g. out of descriptors: strangers wait queued
                self._loop.remove_reader(listener.fileno())
                return
            _EdgeEnd(self, node, None, sock)

    def _unlisten(self, node: Hashable) -> None:
        listener = self._servers.pop(node)
        self._loop.remove_reader(listener.fileno())
        listener.close()

    def _up(self, sender: Hashable, receiver: Hashable) -> bool:
        end = self._writers.get((sender, receiver))
        return end is not None and not end.closing

    async def _hang_up(self, ends) -> None:
        """Hang up *ends* from their child's end — the parent's end flushes
        and follows on EOF — and wait until the last of them is gone.
        Whoever hangs up first keeps the socket in TIME_WAIT for a minute;
        left on listener ports, tens of thousands of those make every later
        ``bind`` to port 0 crawl."""
        self._leaving = set(ends)
        for end in list(self._leaving):
            if end.edge_child == end.owner:  # dialled, or never greeted
                end.close()
        if self._leaving:
            self._all_left = asyncio.get_running_loop().create_future()
            await self._all_left

    # ------------------------------------------------------------------
    async def send(self, *messages: Message) -> None:
        """Encode *messages* in order and write each edge's frames with one
        ``write`` (per-edge FIFO: the octets are the concatenation of the
        frames); back-pressure is awaited once, after the writes."""
        bursts: Dict[Tuple[Hashable, Hashable], List[bytes]] = {}
        decider = self._decider
        for message in messages:
            self.messages_sent += 1
            control = _is_control(message)
            if control:
                self.bytes_sent += wire_size(message)
            child = link_child(self.tree, message.sender, message.receiver)
            if child is None:
                self._deliver_local(message)
                continue
            edge = (message.sender, message.receiver)
            if edge not in self._writers:
                raise ProtocolError(f"no socket for edge {edge!r}")
            copies = 1
            if not control:
                self.payload_frames += 1
            elif decider.plan is not None:
                copies = decider.judge(child, decider.coordinates(message))
                if copies == LOST:
                    self.dropped += 1
                    continue
                if copies == 2:
                    self.duplicated += 1
            frame = encode_any(message)
            if copies == GARBLED:
                # flip a body bit *after* the CRC header was computed: the
                # receiver's checksum fails and the frame dies in its splitter
                self.corrupted_sent += 1
                frame = frame[:-1] + bytes([frame[-1] ^ 0x01])
                copies = 1
            bursts.setdefault(edge, []).extend([frame] * copies)
        ends = []
        for edge, frames in bursts.items():
            end = self._writers[edge]
            if end.closing:
                raise ConnectionResetError(f"socket of edge {edge!r} lost")
            octets = b"".join(frames)
            end.write(octets)
            ends.append(end)
            self.octets_sent += len(octets)
            self.octets_by_edge[edge] = (self.octets_by_edge.get(edge, 0)
                                         + len(octets))
        for end in ends:
            if end.resumed is not None:
                await end.resumed  # back-pressure: the socket buffer is full

    async def close(self) -> None:
        """Stop listening, hang up every edge (:meth:`_hang_up`) and wait
        until the last connection is gone."""
        for node in list(self._servers):
            self._unlisten(node)
        await self._hang_up(self._ends)

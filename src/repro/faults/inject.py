"""Applying a :class:`~repro.faults.plan.FaultPlan` to both execution layers.

* :class:`LinkFaultDecider` is the one fault seam: every carrier of
  frames — :class:`FaultyNetwork` here, the wall-clock transports of
  :mod:`repro.runtime.transport`, the task plane's transmit filter — asks
  it what the plan does to a frame and tells it what arrived.  The rule
  is stated on the class and nowhere else.
* :class:`FaultyNetwork` wraps the protocol transport: control messages
  crossing a real tree link are dropped, garbled or duplicated as the
  decider says, and their latency is stretched inside degradation windows
  (here only: only virtual time has a latency to stretch).
* :func:`apply_to_simulation` arms the steady-state simulator: node crashes
  are scheduled at their virtual times and the plan's degradation windows
  are installed as the simulator's link-time factor.

The virtual-parent link that seeds the root is **never** perturbed — it
models the application invoking its local root, not a network link.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Optional

from ..exceptions import ProtocolError
from ..platform.tree import Tree
from ..protocol.messages import Message, wire_size
from ..protocol.network import Network
from ..sim.simulator import Simulation
from .plan import FaultPlan


#: what :meth:`LinkFaultDecider.judge` answers besides a number of copies
LOST, GARBLED = 0, -1


def link_child(tree: Tree, a: Hashable, b: Hashable) -> Optional[Hashable]:
    """The child endpoint of tree link ``a↔b`` — the name every per-link
    rate, streak and quarantine entry is kept under.  ``None`` when an
    endpoint is outside the tree: the virtual parent seeding the root is
    the application calling its local master, never a network link."""
    if a not in tree or b not in tree:
        return None
    if tree.parent(b) == a:
        return b
    if tree.parent(a) == b:
        return a
    raise ProtocolError(f"{a!r} and {b!r} are not adjacent")


class LinkFaultDecider:
    """What a plan does to one frame on one link — asked by every carrier.

    The rule, stated here and nowhere else:

    * **drop beats corrupt beats duplicate.**  A frame is *lost*, or else
      arrives *garbled* (it fails the receiver's integrity check), or else
      arrives clean, once or — duplicated — twice.  A garbled frame is
      never duplicated.
    * **three named streams, one address.**  Each stream's draw is
      ``plan.decision(stream, *address)``, a pure function of the plan's
      seed and the address, compared with that stream's rate on the link.
      A stream whose rate is zero cannot hit and is not drawn — which
      changes no other draw.
    * **the streak is per link.**  Consecutive garbled frames on a link
      count up whichever way they travel, any clean frame on it resets the
      count, and a lost frame — never received — leaves it alone.  With
      *quarantine_after* = K, the K-th in a row makes the link hostile.

    The address of a numbered control frame is
    ``(sender, receiver, "xid", xid, occurrence)``, *occurrence* counting
    earlier transmissions of that ``xid`` on that directed link: a
    retransmission is a fresh draw, and delivery order plays no part, so a
    concurrent transport suffers the fault trace the simulated one does.
    An unnumbered frame (``xid=None``) is addressed by its per-link send
    ordinal, ``(sender, receiver, ordinal)``; a task frame by
    ``(str(child), task_id, attempt)`` under the ``task_`` streams.
    """

    def __init__(self, plan: Optional[FaultPlan] = None,
                 quarantine_after: Optional[int] = None):
        if quarantine_after is not None and quarantine_after < 1:
            raise ProtocolError("quarantine_after must be >= 1")
        self.plan = plan
        self.quarantine_after = quarantine_after
        #: child → consecutive garbled frames on its link; an entry exists
        #: only while the count is not zero, so the book is falsy when
        #: every link is clean
        self.streaks: Dict[Hashable, int] = {}
        #: transmissions so far per address less its last coordinate: per
        #: directed link (unnumbered frames), per link and xid (numbered)
        self._sent: Dict[tuple, int] = {}

    def coordinates(self, message: Message) -> tuple:
        """The decision address of this transmission (consumes one slot)."""
        xid = getattr(message, "xid", None)
        stem = (message.sender, message.receiver)
        if xid is not None:
            stem += ("xid", xid)
        count = self._sent[stem] = self._sent.get(stem, -1) + 1
        return stem + (count,)

    def _fate(self, prefix: str, address: tuple, drop: Fraction,
              corrupt: Fraction, duplicate: Fraction) -> int:
        """The one place a draw meets a rate, in the one precedence."""
        draw = self.plan.decision
        if drop and draw(prefix + "drop", *address) < drop:
            return LOST
        if corrupt and draw(prefix + "corrupt", *address) < corrupt:
            return GARBLED
        if duplicate and draw(prefix + "duplicate", *address) < duplicate:
            return 2
        return 1

    def judge(self, child: Hashable, coordinates: tuple, now=None) -> int:
        """:data:`LOST`, :data:`GARBLED` or the number of clean copies of
        the control frame at *coordinates* on the link above *child*.

        A carrier on virtual time passes its *now* and gets the plan's
        windowed :meth:`~repro.faults.plan.FaultPlan.corruption_rate`; a
        wall-clock carrier has no such now and gets the static rate.
        """
        plan = self.plan
        return self._fate(
            "", coordinates, plan.link_drop(child),
            plan.link_corrupt(child) if now is None
            else plan.corruption_rate(child, now),
            plan.link_duplicate(child),
        )

    def judge_task(self, child: Hashable, task_id: int, attempt: int) -> int:
        """:data:`LOST`, :data:`GARBLED` or ``1`` for one send of a task
        frame to *child*.  Each resend is a fresh draw, so a deterministic
        plan cannot doom one task forever."""
        plan = self.plan
        return self._fate("task_", (str(child), task_id, attempt),
                          plan.task_drop, plan.task_corrupt, 0)

    def delay(self, seed: int, copy: int, coordinates: tuple) -> float:
        """The uniform ``[0, 1)`` delivery-delay draw of one copy of the
        frame at *coordinates*; *seed* stands in for a plan's when the
        carrier has none."""
        plan = self.plan if self.plan is not None else FaultPlan(seed=seed)
        return plan.decision("delay", copy, *coordinates)

    def received(self, child: Hashable, clean: bool) -> bool:
        """Book one frame that arrived on the link above *child*; true
        when it is the *quarantine_after*-th garbled one in a row."""
        if clean:
            self.streaks.pop(child, None)
            return False
        streak = self.streaks[child] = self.streaks.get(child, 0) + 1
        return (self.quarantine_after is not None
                and streak >= self.quarantine_after)


class FaultyNetwork(Network):
    """A :class:`~repro.protocol.network.Network` with a lossy control plane.

    Counts the injected faults in ``dropped`` and ``duplicated`` (picked up
    by :class:`~repro.protocol.runner.ProtocolResult`).  Dropped messages
    still count toward ``messages_sent``/``bytes_sent`` — the sender paid
    for the transmission; the receiver just never saw it.

    Hostile plans add the payload-integrity check: a garbled verdict means
    the receiver's checksum failed, so the message is counted in
    ``corrupted`` and discarded before its handler runs (observably a
    drop, but fed to the quarantine policy).  With *quarantine_after* set,
    K consecutive corrupt frames on a link record the child endpoint in
    ``quarantined`` (child → virtual detection time).  The network itself
    keeps delivering — at-least-once retries still beat a rate below 1, so
    the negotiation converges exactly; the *supervisor* reads
    ``quarantined`` afterwards and enacts the isolation by pruning the
    child at its next recovery epoch, which is what "treated as crashed"
    means here.  (The wall-clock :class:`~repro.runtime.transport.TcpTransport`
    firewall, by contrast, really goes dark — there the parent's retry
    timeouts do the pruning.)
    """

    def __init__(
        self,
        tree: Tree,
        plan: FaultPlan,
        latency_factor=Fraction(1, 100),
        fixed_latency=0,
        time_offset=0,
        quarantine_after: Optional[int] = None,
    ):
        """*time_offset* anchors the network's local clock (which starts at
        0) in the plan's virtual timeline, so degradation windows line up —
        a re-negotiation launched at virtual time ``t`` passes
        ``time_offset=t``."""
        super().__init__(
            tree, latency_factor=latency_factor, fixed_latency=fixed_latency
        )
        self.plan = plan
        self.time_offset = Fraction(time_offset)
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        #: child endpoint → virtual time its link was declared hostile
        self.quarantined: Dict[Hashable, Fraction] = {}
        self._decider = LinkFaultDecider(plan, quarantine_after)

    def send(self, message: Message) -> None:
        a, b = message.sender, message.receiver
        child = link_child(self.tree, a, b)
        if child is None:
            super().send(message)
            return
        if b not in self._handlers:
            raise ProtocolError(f"no handler registered for {b!r}")
        # the sender transmitted, whatever the link then does to the message
        self.messages_sent += 1
        self.bytes_sent += wire_size(message)
        now = self.time_offset + self.engine.now
        decider = self._decider
        copies = decider.judge(child, decider.coordinates(message), now)
        if copies == LOST:
            self.dropped += 1
            return
        if copies == GARBLED:
            # integrity check fails at the receiver: count, streak, discard
            self.corrupted += 1
            if (decider.received(child, False)
                    and child not in self.quarantined):
                self.quarantined[child] = now
            return
        if decider.streaks:
            decider.received(child, True)
        latency = self.link_latency(a, b) * self.plan.degradation_factor(
            child, now
        )
        handler = self._handlers[b]
        # a spurious copy arrives right behind the original
        self.duplicated += copies - 1
        for _ in range(copies):
            self.engine.schedule_in(latency, lambda: handler(message))


def apply_to_simulation(sim: Simulation, plan: FaultPlan) -> None:
    """Arm *sim* with the plan's crashes, rejoins, failover and windows.

    Validates the plan against the simulation's tree first, so a bad plan
    never half-perturbs a run.  Control-plane loss probabilities do not
    apply here — the simulator moves *tasks*, whose transfers are reliable;
    loss affects the negotiation transport (:class:`FaultyNetwork`).
    """
    plan.validate(sim.tree)
    for crash in plan.crashes:
        sim.schedule_failure(crash.node, crash.time)
    for rejoin in plan.rejoins:
        sim.engine.schedule_at(
            rejoin.time, lambda node=rejoin.node: sim.revive_node(node)
        )
    if plan.failover is not None:
        sim.engine.schedule_at(plan.failover.time, sim.fail_root)
    if plan.degradations:
        sim.set_link_time_factor(
            lambda parent, child, now: plan.degradation_factor(child, now)
        )

"""The autonomous demand-driven protocol of Kreaseck et al. (reconstruction).

Kreaseck et al. (cited as [12]) proposed *autonomous* bandwidth-centric
protocols in which nodes pull work: a node requests tasks from its parent
when it runs low, parents serve pending requests fastest-link-first, and
requests cascade up the hierarchy.  The paper (Sections 2 and 7) observes
that, under the non-interruptible communication model, this protocol can
take non-optimal decisions, suffers long start-up phases and buffers
unnecessarily many tasks — the claims experiment E9 measures.

Reconstruction notes (their paper is unavailable; see DESIGN.md §5):

* demand is expressed as single-task *request* messages travelling up with
  a configurable latency (a fraction of the link's task-communication time,
  ``request_latency_factor``, default 5%);
* each node keeps a *stock* of unassigned tasks and wants
  ``slack + Σ pending child requests`` of them; whenever its outstanding
  requests fall short of that it requests more;
* an idle CPU always claims a stocked task first (serving oneself costs no
  port time); otherwise the send port serves the *pending requester with
  the fastest link* — the bandwidth-centric priority;
* both of Kreaseck et al.'s communication models are implemented:
  **non-interruptible** (the default, matching this paper's model) and
  **interruptible**, where a request from a faster-link child preempts an
  in-flight transfer to a slower-link child (the transfer resumes later
  from where it stopped);
* the root owns the (finite or horizon-bounded) supply and never requests.

The simulator reuses the shared :class:`~repro.sim.engine.Engine` and
:class:`~repro.sim.tracing.Trace`, so every analysis helper applies to its
output unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, Optional

from ..core.rates import is_infinite
from ..exceptions import SimulationError
from ..platform.tree import Tree
from ..sim.engine import Engine
from ..sim.tracing import COMPUTE, RECV, SEND, Trace
from ..telemetry.core import Registry


@dataclass
class DemandDrivenResult:
    """Outcome of a demand-driven run (mirrors ``SimulationResult``).

    The run's tallies live as ``baseline.*`` counters in ``telemetry`` (a
    per-result :class:`~repro.telemetry.core.Registry`); the historical
    ``request_messages`` / ``interruptions`` attributes are thin views
    over it, so existing callers and benchmarks keep working.
    """

    trace: Trace
    tree: Tree
    released: int
    stop_time: Optional[Fraction]
    end_time: Fraction
    telemetry: Registry = field(default_factory=Registry, repr=False)

    @property
    def request_messages(self) -> int:
        """Single-task request messages that travelled up the tree."""
        return self.telemetry.value("baseline.request_messages")

    @property
    def interruptions(self) -> int:
        """In-flight transfers preempted (interruptible mode only)."""
        return self.telemetry.value("baseline.interruptions")

    @property
    def completed(self) -> int:
        return self.trace.completed

    @property
    def wind_down(self) -> Optional[Fraction]:
        if self.stop_time is None or not self.trace.completed:
            return None
        return max(self.end_time - self.stop_time, Fraction(0))


class _State:
    __slots__ = ("name", "stock", "outstanding", "pending", "computing",
                 "sending", "served", "transfer", "send_token", "partial")

    def __init__(self, name: Hashable):
        self.name = name
        self.stock = 0          # unassigned buffered tasks
        self.outstanding = 0    # requests sent to parent, not yet fulfilled
        self.pending: Dict[Hashable, int] = {}  # unserved child requests
        self.computing = False
        self.sending = False
        self.served = 0         # tasks this node ever dispensed to children
        # interruptible-mode bookkeeping
        self.transfer = None    # (child, start, end) of the in-flight send
        self.send_token = 0     # invalidates stale send-done events
        self.partial: Dict[Hashable, Fraction] = {}  # remaining transfer time


class DemandDrivenSimulation:
    """Pull-based Master–Worker execution on a heterogeneous tree."""

    def __init__(
        self,
        tree: Tree,
        slack: int = 1,
        request_latency_factor: Fraction = Fraction(1, 20),
        horizon: Optional[Fraction] = None,
        supply: Optional[int] = None,
        interruptible: bool = False,
        max_events: int = 5_000_000,
        telemetry: Optional[Registry] = None,
    ):
        if horizon is None and supply is None:
            raise SimulationError("give a horizon, a supply, or both")
        if slack < 1:
            raise SimulationError("slack must be at least 1")
        self.tree = tree
        self.slack = slack
        self.latency_factor = Fraction(request_latency_factor)
        self.horizon = Fraction(horizon) if horizon is not None else None
        self.supply = supply
        self.interruptible = interruptible
        self.max_events = max_events

        self.engine = Engine()
        self.trace = Trace()
        self.states = {n: _State(n) for n in tree.nodes()}
        for n in tree.nodes():
            self.states[n].pending = {c: 0 for c in tree.children(n)}
        self.released = 0
        # the run's own registry backs the result's attribute views; an
        # external registry (telemetry=) additionally receives every tally
        self.registry = Registry()
        self._external = telemetry
        self._stop_time: Optional[Fraction] = None

    def _count(self, name: str, **labels) -> None:
        self.registry.counter(name, **labels).inc()
        if self._external is not None:
            self._external.counter(name, **labels).inc()

    @property
    def request_messages(self) -> int:
        return self.registry.value("baseline.request_messages")

    @property
    def interruptions(self) -> int:
        return self.registry.value("baseline.interruptions")

    # ------------------------------------------------------------------
    def _supply_open(self) -> bool:
        if self.horizon is not None and self.engine.now >= self.horizon:
            return False
        if self.supply is not None and self.released >= self.supply:
            return False
        return True

    def _note_supply_cut(self) -> None:
        if self._stop_time is None:
            self._stop_time = self.engine.now

    def _pump(self, node: Hashable) -> None:
        """Drive every local decision of *node* that is currently possible."""
        state = self.states[node]
        is_root = node == self.tree.root

        # 1. the root draws its stock straight from the supply
        if is_root:
            while state.stock < self.slack + sum(state.pending.values()):
                if not self._supply_open():
                    self._note_supply_cut()
                    break
                self.released += 1
                state.stock += 1
                self.trace.add_release(self.engine.now, node)
                self.trace.add_buffer_delta(self.engine.now, node, +1)

        # 2. an idle CPU claims a stocked task (no port cost)
        if (not state.computing and state.stock > 0
                and not is_infinite(self.tree.w(node))):
            state.computing = True
            state.stock -= 1
            start = self.engine.now
            end = start + self.tree.w(node)
            self.trace.add_segment(node, COMPUTE, start, end)
            self.engine.schedule_at(end, lambda n=node: self._compute_done(n))

        # 3. the send port serves the fastest-link pending requester; an
        #    interrupted transfer resumes with the priority of its child
        if not state.sending:
            candidates = []
            if state.stock > 0:
                candidates.extend(
                    (c, False) for c, k in state.pending.items() if k > 0
                )
            candidates.extend((c, True) for c in state.partial)
            if candidates:
                # at equal priority a partial resumes before a fresh send to
                # the same child — otherwise a second interruption could
                # overwrite (lose) the stored remaining time
                child, resume = min(
                    candidates,
                    key=lambda t: (self.tree.c(t[0]), str(t[0]), not t[1]),
                )
                if resume:
                    duration = state.partial.pop(child)
                else:
                    state.pending[child] -= 1
                    state.stock -= 1
                    duration = self.tree.c(child)
                state.sending = True
                state.send_token += 1
                start = self.engine.now
                end = start + duration
                state.transfer = (child, start, end)
                self.engine.schedule_at(
                    end,
                    lambda n=node, c=child, t=state.send_token:
                        self._send_done(n, c, t),
                )

        # 4. request more from the parent when demand exceeds cover
        if not is_root:
            desired = self.slack + sum(state.pending.values())
            shortfall = desired - state.stock - state.outstanding
            for _ in range(max(shortfall, 0)):
                state.outstanding += 1
                self._count("baseline.request_messages")
                parent = self.tree.parent(node)
                latency = self.tree.c(node) * self.latency_factor
                self.engine.schedule_in(
                    latency, lambda p=parent, c=node: self._request_arrives(p, c)
                )

    # ------------------------------------------------------------------
    def _request_arrives(self, parent: Hashable, child: Hashable) -> None:
        state = self.states[parent]
        state.pending[child] += 1
        if (
            self.interruptible
            and state.sending
            and state.stock > 0
            and state.transfer is not None
            and self.tree.c(child) < self.tree.c(state.transfer[0])
        ):
            self._interrupt(parent)
        self._pump(parent)

    def _interrupt(self, node: Hashable) -> None:
        """Preempt the in-flight transfer; it resumes later where it left off."""
        state = self.states[node]
        child, start, end = state.transfer
        now = self.engine.now
        if now > start:  # the partial occupancy is still real port time
            self.trace.add_segment(node, SEND, start, now, peer=child)
            self.trace.add_segment(child, RECV, start, now, peer=node)
        state.partial[child] = end - now
        state.sending = False
        state.transfer = None
        state.send_token += 1  # invalidate the scheduled completion event
        self._count("baseline.interruptions")

    def _compute_done(self, node: Hashable) -> None:
        state = self.states[node]
        state.computing = False
        now = self.engine.now
        self.trace.add_completion(now, node)
        self.trace.add_buffer_delta(now, node, -1)
        self._pump(node)

    def _send_done(self, node: Hashable, child: Hashable, token: int) -> None:
        state = self.states[node]
        if token != state.send_token or not state.sending:
            return  # the transfer was interrupted; a stale event fired
        _, start, end = state.transfer
        self.trace.add_segment(node, SEND, start, end, peer=child)
        self.trace.add_segment(child, RECV, start, end, peer=node)
        state.transfer = None
        state.sending = False
        state.served += 1
        self.trace.add_buffer_delta(self.engine.now, node, -1)
        child_state = self.states[child]
        child_state.outstanding -= 1
        child_state.stock += 1
        self.trace.add_arrival(self.engine.now, child)
        self.trace.add_buffer_delta(self.engine.now, child, +1)
        self._pump(child)
        self._pump(node)

    # ------------------------------------------------------------------
    def run(self) -> DemandDrivenResult:
        # kick-off: every node evaluates its demand at t=0
        for node in self.tree.nodes():
            self._pump(node)
        if self.horizon is not None:
            # periodically re-pump the root so a horizon cut is noticed even
            # when no other event lands exactly on it
            self.engine.schedule_at(self.horizon, lambda: self._pump(self.tree.root))
        self.engine.run_all(max_events=self.max_events)
        stop = self._stop_time
        if stop is None and self.horizon is not None:
            stop = self.horizon
        return DemandDrivenResult(
            trace=self.trace,
            tree=self.tree,
            released=self.released,
            stop_time=stop,
            end_time=self.trace.end_time,
            telemetry=self.registry,
        )


def simulate_demand_driven(
    tree: Tree,
    slack: int = 1,
    request_latency_factor=Fraction(1, 20),
    horizon=None,
    supply: Optional[int] = None,
    interruptible: bool = False,
    telemetry: Optional[Registry] = None,
) -> DemandDrivenResult:
    """Convenience wrapper mirroring :func:`repro.sim.simulate`.

    ``interruptible=True`` selects Kreaseck et al.'s second communication
    model: a request from a faster-link child preempts an in-flight
    transfer to a slower-link child; the preempted transfer resumes later
    from where it stopped.  Pass ``telemetry=`` to mirror the run's
    ``baseline.*`` counters into an external registry.
    """
    sim = DemandDrivenSimulation(
        tree,
        slack=slack,
        request_latency_factor=Fraction(request_latency_factor),
        horizon=horizon,
        supply=supply,
        interruptible=interruptible,
        telemetry=telemetry,
    )
    return sim.run()

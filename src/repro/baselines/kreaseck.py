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

It is a policy on :class:`~repro.sim.farm.Farm` (which owns the stock,
the requests, the ports and the shared :class:`~repro.sim.tracing.Trace`),
so every analysis helper applies to its output unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Optional

from ..platform.tree import Tree
from ..sim.farm import Farm, FarmResult
from ..telemetry.core import Registry


@dataclass
class DemandDrivenResult(FarmResult):
    """Outcome of a demand-driven run (mirrors ``SimulationResult``).

    The run's tallies live as ``baseline.*`` counters in ``telemetry`` (a
    per-result :class:`~repro.telemetry.core.Registry`); the historical
    ``request_messages`` / ``interruptions`` attributes are thin views
    over it, so existing callers and benchmarks keep working.
    """

    telemetry: Registry = field(default_factory=Registry, repr=False)

    @property
    def request_messages(self) -> int:
        """Single-task request messages that travelled up the tree."""
        return self.telemetry.value("baseline.request_messages")

    @property
    def interruptions(self) -> int:
        """In-flight transfers preempted (interruptible mode only)."""
        return self.telemetry.value("baseline.interruptions")


class DemandDrivenSimulation(Farm):
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
        super().__init__(tree, slack, horizon, supply, max_events,
                         request_latency_factor)
        self.interruptible = interruptible
        # an external registry (telemetry=) additionally receives the tallies
        self._external = telemetry
        self._interrupted = 0
        # per node: child -> time its interrupted transfer still needs
        self.partial = {n: {} for n in tree.nodes()}

    def _serve(self, node: Hashable, state) -> None:
        """The fastest-link pending requester; an interrupted transfer
        resumes with the priority of its child."""
        partial = self.partial[node]
        candidates = []
        if state.stock > 0:
            candidates.extend(
                (c, False) for c, k in state.pending.items() if k > 0
            )
        candidates.extend((c, True) for c in partial)
        if candidates:
            # at equal priority a partial resumes before a fresh send to
            # the same child — otherwise a second interruption could
            # overwrite (lose) the stored remaining time
            child, resume = min(
                candidates,
                key=lambda t: (self.tree.c(t[0]), str(t[0]), not t[1]),
            )
            if resume:
                self._transfer(node, child, partial.pop(child),
                               self._task_arrived)
            else:
                self._send_task(node, child)

    def _request_arrives(self, parent: Hashable, child: Hashable) -> None:
        state = self.states[parent]
        if (
            self.interruptible
            and state.port is not None
            and state.stock > 0
            and self.tree.c(child) < self.tree.c(state.port[0])
        ):
            # preempt the in-flight transfer; it resumes later where it
            # left off
            preempted, remaining = self._preempt(parent)
            self.partial[parent][preempted] = remaining
            self._interrupted += 1
        super()._request_arrives(parent, child)

    def _result(self, **fields) -> DemandDrivenResult:
        registry = Registry()
        tallies = {"baseline.request_messages": self.requests,
                   "baseline.interruptions": self._interrupted}
        for target in (registry, self._external):
            for name, value in tallies.items():
                if target is not None and value:
                    target.counter(name).inc(value)
        return DemandDrivenResult(**fields, telemetry=registry)


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

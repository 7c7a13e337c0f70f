"""Execution of the result-return model on *general* trees.

:mod:`repro.extensions.result_return` proves the Section 9 counterexample
with an exact LP.  This module executes the two-port model on arbitrary
trees, as a policy on :class:`~repro.sim.farm.Farm`:

* every **task** transfer (parent → child, duration ``c``) occupies the
  parent's *send* port and the child's *receive* port;
* every **result** transfer (child → parent, duration ``d``) occupies the
  child's *send* port and the parent's *receive* port;
* a transfer starts only when **both** ports are free (non-interruptible);
  whenever a port frees, its neighbourhood re-evaluates;
* tasks flow down demand-driven (children request when under-buffered,
  parents serve fastest-link-first); results flow up store-and-forward —
  a node relays its children's results along with its own (result origin is
  tracked, so completions are attributed to the node that computed them);
* when both a task and a result are ready to use a node's send port, the
  node alternates between them, which keeps both pipelines live;
* by default the sender is *patient*: if the bandwidth-best requester's
  receive port is momentarily busy (absorbing a result), the sender waits
  for it instead of diverting the port to a slower link — without patience,
  every such collision steers whole transfers to low-priority children and
  the achieved rate drops measurably (``patient=False`` exposes that
  behaviour for study);
* task requests reach the parent after zero latency.

A task *completes* when its result reaches the root (tasks the root
computes itself complete on the spot).  The achieved steady rate is upper-
bounded by :func:`repro.extensions.result_return.return_lp_throughput`,
which the tests assert; on the Section 9 platform the simulator achieves
the LP optimum of 2 exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Optional

from ..sim.farm import Farm, FarmResult
from .result_return import ReturnPlatform


@dataclass
class ReturnSimResult(FarmResult):
    """Outcome of a general-tree result-return run; ``completed`` counts
    the tasks whose result reached the master."""

    platform: ReturnPlatform


class ReturnSimulation(Farm):
    """Demand-driven execution of a :class:`ReturnPlatform`."""

    def __init__(
        self,
        platform: ReturnPlatform,
        slack: int = 2,
        horizon=None,
        supply: Optional[int] = None,
        patient: bool = True,
        max_events: int = 5_000_000,
    ):
        super().__init__(platform.tree, slack, horizon, supply, max_events)
        self.platform = platform
        self.patient = patient
        nodes = list(self.tree.nodes())
        self.results = {n: deque() for n in nodes}  # origins waiting to go up
        self.last_sent = dict.fromkeys(nodes, "result")  # first pick: a task

    def _serve(self, node: Hashable, state) -> None:
        """Alternate between a result (up) and a task (down)."""
        tree = self.tree
        up = self.results[node] and not self.states[tree.parent(node)].receiving
        child = None
        if state.stock > 0:
            # patient: pick the bandwidth-best requester and, if its receive
            # port is busy, wait for it (do not divert to a slower link)
            requesters = [c for c, k in state.pending.items() if k > 0
                          and (self.patient or not self.states[c].receiving)]
            if requesters:
                best = min(requesters, key=lambda c: (tree.c(c), str(c)))
                if not self.states[best].receiving:
                    child = best
        if up and (child is None or self.last_sent[node] == "task"):
            self.last_sent[node] = "result"
            self._transfer(node, tree.parent(node), self.platform.d(node),
                           self._result_arrived, self.results[node].popleft())
        elif child is not None:
            self.last_sent[node] = "task"
            self._send_task(node, child)

    def _result_arrived(self, node: Hashable, parent: Hashable,
                        origin: Hashable) -> None:
        now = self.engine.now
        self.trace.add_buffer_delta(now, node, -1)
        if parent == self.tree.root:
            self.trace.add_completion(now, origin)
        else:
            self.results[parent].append(origin)
            self.trace.add_buffer_delta(now, parent, +1)

    def _computed(self, node: Hashable) -> None:
        if node == self.tree.root:
            super()._computed(node)  # the root's results are already home
        else:
            # the task slot becomes a result slot: net buffer unchanged
            self.results[node].append(node)

    def _after_transfer(self, sender: Hashable, receiver: Hashable) -> None:
        self._wake(sender)
        self._wake(receiver)

    def _wake(self, node: Hashable) -> None:
        """A port of *node* freed: re-evaluate it and its neighbourhood."""
        self._pump(node)
        parent = self.tree.parent(node)
        if parent is not None:
            self._pump(parent)
        for child in self.tree.children(node):
            self._pump(child)

    def _result(self, **fields) -> ReturnSimResult:
        return ReturnSimResult(**fields, platform=self.platform)


def simulate_with_returns(
    platform: ReturnPlatform,
    slack: int = 2,
    horizon=None,
    supply: Optional[int] = None,
    patient: bool = True,
) -> ReturnSimResult:
    """Convenience wrapper mirroring :func:`repro.sim.simulate`."""
    return ReturnSimulation(platform, slack=slack, horizon=horizon,
                            supply=supply, patient=patient).run()

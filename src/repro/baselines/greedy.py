"""A naive greedy task-farming baseline (sanity floor).

The simplest Master–Worker policy anyone would write first: every node
eagerly pushes tasks to whichever child's link frees up next, round-robin,
with no notion of bandwidth-centric priority or steady-state rates.  It is
*not* from the paper — it exists to show how much the bandwidth-centric
allocation buys over uninformed farming on heterogeneous platforms
(benchmarks print it as a floor).

Mechanics: each node keeps every child "covered" up to a *window* of
unconsumed tasks (sent but not yet computed-or-forwarded by the child — a
zero-latency credit flows back on consumption), serving children in
round-robin order; an idle CPU always claims a task first.  On a
bandwidth-limited platform this wastes the port shipping tasks to slow
links that the optimal schedule would never use.

It is a policy on :class:`~repro.sim.farm.Farm`: a child starts with
*window* requests pending at its parent and makes a new one, at once, each
time it consumes a task.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Optional

from ..platform.tree import Tree
from ..sim.farm import Farm, FarmResult


@dataclass
class GreedyResult(FarmResult):
    """Outcome of a greedy-farming run."""


class GreedySimulation(Farm):
    """Eager round-robin task farming on a tree."""

    CREDIT = "window"

    def __init__(
        self,
        tree: Tree,
        window: int = 2,
        horizon=None,
        supply: Optional[int] = None,
        max_events: int = 5_000_000,
    ):
        super().__init__(tree, window, horizon, supply, max_events)
        self.rr = {n: deque(tree.children(n)) for n in tree.nodes()}
        for node in tree.nodes():
            for child in tree.children(node):
                self.states[node].pending[child] = window
                self.states[child].outstanding = window

    def _wanted(self, state) -> int:
        return 1 + len(state.pending)

    def _consumed(self, node: Hashable) -> None:
        """Credit the parent's window slot for *node* back at once."""
        parent = self.tree.parent(node)
        if parent is not None:
            self.states[node].outstanding += 1
            self._request_arrives(parent, node)

    def _serve(self, node: Hashable, state) -> None:
        """The next round-robin child under its unconsumed-task window."""
        rr = self.rr[node]
        if state.stock > 0:
            for _ in range(len(rr)):
                child = rr[0]
                rr.rotate(-1)
                if state.pending[child] > 0:
                    self._send_task(node, child)
                    return

    def _ask(self, node: Hashable, state) -> None:
        """Nothing: credits flow back on consumption (:meth:`_consumed`)."""

    def _result(self, **fields) -> GreedyResult:
        return GreedyResult(**fields)


def simulate_greedy(tree: Tree, window: int = 2, horizon=None,
                    supply: Optional[int] = None) -> GreedyResult:
    """Convenience wrapper mirroring :func:`repro.sim.simulate`."""
    return GreedySimulation(tree, window=window, horizon=horizon, supply=supply).run()

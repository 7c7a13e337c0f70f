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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Optional

from ..core.rates import is_infinite
from ..exceptions import SimulationError
from ..platform.tree import Tree
from ..sim.engine import Engine
from ..sim.tracing import COMPUTE, RECV, SEND, Trace


@dataclass
class GreedyResult:
    """Outcome of a greedy-farming run."""

    trace: Trace
    tree: Tree
    released: int
    stop_time: Optional[Fraction]
    end_time: Fraction

    @property
    def completed(self) -> int:
        return self.trace.completed

    @property
    def wind_down(self) -> Optional[Fraction]:
        if self.stop_time is None or not self.trace.completed:
            return None
        return max(self.end_time - self.stop_time, Fraction(0))


class _State:
    __slots__ = ("stock", "computing", "sending", "rr", "inflight")

    def __init__(self, children) -> None:
        self.stock = 0
        self.computing = False
        self.sending = False
        self.rr = deque(children)  # round-robin order over children
        self.inflight: Dict[Hashable, int] = {c: 0 for c in children}


class GreedySimulation:
    """Eager round-robin task farming on a tree."""

    def __init__(
        self,
        tree: Tree,
        window: int = 2,
        horizon=None,
        supply: Optional[int] = None,
        max_events: int = 5_000_000,
    ):
        if horizon is None and supply is None:
            raise SimulationError("give a horizon, a supply, or both")
        if window < 1:
            raise SimulationError("window must be at least 1")
        self.tree = tree
        self.window = window
        self.horizon = Fraction(horizon) if horizon is not None else None
        self.supply = supply
        self.max_events = max_events
        self.engine = Engine()
        self.trace = Trace()
        self.states = {n: _State(tree.children(n)) for n in tree.nodes()}
        self.released = 0
        self._stop_time: Optional[Fraction] = None

    def _supply_open(self) -> bool:
        if self.horizon is not None and self.engine.now >= self.horizon:
            return False
        if self.supply is not None and self.released >= self.supply:
            return False
        return True

    def _pump(self, node: Hashable) -> None:
        state = self.states[node]
        is_root = node == self.tree.root

        if is_root:
            # the root materialises stock on demand
            while state.stock < 1 + len(state.rr) and self._supply_open():
                self.released += 1
                state.stock += 1
                self.trace.add_release(self.engine.now, node)
                self.trace.add_buffer_delta(self.engine.now, node, +1)
            if not self._supply_open() and self._stop_time is None:
                self._stop_time = self.engine.now

        if (not state.computing and state.stock > 0
                and not is_infinite(self.tree.w(node))):
            state.computing = True
            state.stock -= 1
            self._credit(node)
            start = self.engine.now
            end = start + self.tree.w(node)
            self.trace.add_segment(node, COMPUTE, start, end)
            self.engine.schedule_at(end, lambda n=node: self._compute_done(n))

        if not state.sending and state.stock > 0 and state.rr:
            # next round-robin child under its unconsumed-task window
            for _ in range(len(state.rr)):
                child = state.rr[0]
                state.rr.rotate(-1)
                if state.inflight[child] < self.window:
                    state.inflight[child] += 1
                    state.stock -= 1
                    self._credit(node)
                    state.sending = True
                    start = self.engine.now
                    end = start + self.tree.c(child)
                    self.trace.add_segment(node, SEND, start, end, peer=child)
                    self.trace.add_segment(child, RECV, start, end, peer=node)
                    self.engine.schedule_at(
                        end, lambda n=node, c=child: self._send_done(n, c)
                    )
                    break

    def _credit(self, node: Hashable) -> None:
        """*node* consumed a stocked task: release its parent's window slot."""
        parent = self.tree.parent(node)
        if parent is None:
            return
        self.states[parent].inflight[node] -= 1
        self._pump(parent)

    def _compute_done(self, node: Hashable) -> None:
        self.states[node].computing = False
        now = self.engine.now
        self.trace.add_completion(now, node)
        self.trace.add_buffer_delta(now, node, -1)
        self._pump(node)

    def _send_done(self, node: Hashable, child: Hashable) -> None:
        state = self.states[node]
        state.sending = False
        self.trace.add_buffer_delta(self.engine.now, node, -1)
        child_state = self.states[child]
        child_state.stock += 1
        self.trace.add_arrival(self.engine.now, child)
        self.trace.add_buffer_delta(self.engine.now, child, +1)
        self._pump(child)
        self._pump(node)

    def run(self) -> GreedyResult:
        self._pump(self.tree.root)
        if self.horizon is not None:
            self.engine.schedule_at(self.horizon, lambda: self._pump(self.tree.root))
        self.engine.run_all(max_events=self.max_events)
        stop = self._stop_time
        if stop is None and self.horizon is not None:
            stop = self.horizon
        return GreedyResult(
            trace=self.trace,
            tree=self.tree,
            released=self.released,
            stop_time=stop,
            end_time=self.trace.end_time,
        )


def simulate_greedy(tree: Tree, window: int = 2, horizon=None,
                    supply: Optional[int] = None) -> GreedyResult:
    """Convenience wrapper mirroring :func:`repro.sim.simulate`."""
    return GreedySimulation(tree, window=window, horizon=horizon, supply=supply).run()

"""One demand-driven task farm; the baselines and the return model are its policies.

Three simulators farm tasks down a tree on the shared
:class:`~repro.sim.engine.Engine`: the greedy floor
(:class:`~repro.baselines.greedy.GreedySimulation`), Kreaseck et al.'s
protocol (:class:`~repro.baselines.kreaseck.DemandDrivenSimulation`) and
the two-port result-return executor
(:class:`~repro.extensions.return_sim.ReturnSimulation`).  :class:`Farm`
owns what they share — the supply and horizon, the root's stocking, each
node's stock, pending child requests and outstanding own requests, "an
idle CPU claims a stocked task first", port transfers and request
messages (latency ``c · request_latency_factor``).  A policy overrides
only its hooks:

* :meth:`Farm._wanted` — the stock the root keeps (and a node asks for);
* :meth:`Farm._consumed` — what happens when a node takes a stocked task;
* :meth:`Farm._serve` — whom a free send port serves;
* :meth:`Farm._ask` — whether and when a child asks its parent;
* :meth:`Farm._after_transfer` — who is re-pumped after a transfer;
* :meth:`Farm._computed` — what a finished computation produces.

Two rules are decided here, once:

* **port segments** — a transfer's SEND / RECV segments are written when
  it ends or is preempted (a preemption cancels its completion
  :class:`~repro.sim.engine.Timer`), covering the time the ports were held;
* **supply cut** — ``stop_time`` is the first moment the root wanted a
  task and the supply refused it (the production kernel's "first refused
  release slot"); a horizon run the root never asked past stops at the
  horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Optional

from ..core.rates import is_infinite
from ..exceptions import SimulationError
from ..platform.tree import Tree
from .engine import Engine
from .tracing import COMPUTE, RECV, SEND, Trace


@dataclass
class FarmResult:
    """Outcome of a task-farming run (mirrors ``SimulationResult``)."""

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
    __slots__ = ("stock", "pending", "outstanding", "computing", "port",
                 "receiving")

    def __init__(self, children) -> None:
        self.stock = 0          # unassigned buffered tasks
        self.pending: Dict[Hashable, int] = {c: 0 for c in children}
        self.outstanding = 0    # own requests not yet fulfilled
        self.computing = False
        self.port = None        # (receiver, start, end, Timer) of the send
        self.receiving = False


def _at_least(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise SimulationError(f"{name} must be an int ≥ {least}, got {value!r}")


class Farm:
    """Demand-driven task farming on a tree; subclasses are the policies."""

    #: the name callers know the per-node credit by (``slack``/``window``)
    CREDIT = "slack"

    def __init__(self, tree: Tree, slack: int, horizon, supply: Optional[int],
                 max_events: int, request_latency_factor=0):
        if horizon is None and supply is None:
            raise SimulationError("give a horizon, a supply, or both")
        _at_least(self.CREDIT, slack, 1)
        if supply is not None:
            _at_least("supply", supply, 0)
        self.horizon = Fraction(horizon) if horizon is not None else None
        if self.horizon is not None and self.horizon < 0:
            raise SimulationError(f"horizon must be ≥ 0, got {self.horizon}")
        self.latency_factor = Fraction(request_latency_factor)
        if self.latency_factor < 0:
            raise SimulationError("request_latency_factor must be ≥ 0, got "
                                  f"{self.latency_factor}")
        self.tree = tree
        self.slack = slack
        self.supply = supply
        self.max_events = max_events
        self.engine = Engine()
        self.trace = Trace()
        self.states = {n: _State(tree.children(n)) for n in tree.nodes()}
        self.released = 0
        self.requests = 0  # request messages sent up the tree
        self._stop_time: Optional[Fraction] = None

    def _supply_open(self) -> bool:
        if self.horizon is not None and self.engine.now >= self.horizon:
            return False
        return self.supply is None or self.released < self.supply

    def _pump(self, node: Hashable) -> None:
        """Drive every local decision of *node* that is currently possible."""
        state = self.states[node]
        now = self.engine.now
        is_root = node == self.tree.root
        if is_root:  # the root draws its stock straight from the supply
            while state.stock < self._wanted(state):
                if not self._supply_open():
                    if self._stop_time is None:
                        self._stop_time = now
                    break
                self.released += 1
                state.stock += 1
                self.trace.add_release(now, node)
                self.trace.add_buffer_delta(now, node, +1)

        w = self.tree.w(node)  # an idle CPU claims a stocked task first
        if not state.computing and state.stock > 0 and not is_infinite(w):
            state.computing = True
            state.stock -= 1
            self._consumed(node)
            self.trace.add_segment(node, COMPUTE, now, now + w)
            self.engine.schedule_at(now + w, lambda: self._compute_done(node))

        if state.port is None:
            self._serve(node, state)
        if not is_root:
            self._ask(node, state)

    def _send_task(self, node: Hashable, child: Hashable) -> None:
        """Send one stocked task of *node* to its pending requester *child*."""
        state = self.states[node]
        state.pending[child] -= 1
        state.stock -= 1
        self._consumed(node)
        self._transfer(node, child, self.tree.c(child), self._task_arrived)

    def _transfer(self, sender: Hashable, receiver: Hashable, duration,
                  arrive, payload=None) -> None:
        """Hold *sender*'s send and *receiver*'s receive port for *duration*,
        then call ``arrive(sender, receiver, payload)``."""
        start = self.engine.now
        end = start + duration
        timer = self.engine.schedule_at(
            end, lambda: self._transferred(sender, receiver, arrive, payload))
        self.states[sender].port = (receiver, start, end, timer)
        self.states[receiver].receiving = True

    def _close(self, sender: Hashable):
        """Free the ports of *sender*'s transfer and write what they were
        held for; return the receiver and the time the transfer still needs."""
        state = self.states[sender]
        receiver, start, end, _ = state.port
        now = self.engine.now
        if now > start:
            self.trace.add_segment(sender, SEND, start, now, peer=receiver)
            self.trace.add_segment(receiver, RECV, start, now, peer=sender)
        state.port = None
        self.states[receiver].receiving = False
        return receiver, end - now

    def _preempt(self, sender: Hashable):
        """Stop *sender*'s transfer where it stands (see :meth:`_close`)."""
        self.states[sender].port[3].cancel()
        return self._close(sender)

    def _transferred(self, sender, receiver, arrive, payload) -> None:
        self._close(sender)
        arrive(sender, receiver, payload)
        self._after_transfer(sender, receiver)

    def _task_arrived(self, sender: Hashable, receiver: Hashable, _) -> None:
        now = self.engine.now
        self.trace.add_buffer_delta(now, sender, -1)
        state = self.states[receiver]
        state.outstanding -= 1
        state.stock += 1
        self.trace.add_arrival(now, receiver)
        self.trace.add_buffer_delta(now, receiver, +1)

    def _compute_done(self, node: Hashable) -> None:
        self.states[node].computing = False
        self._computed(node)
        self._pump(node)

    def _request_arrives(self, parent: Hashable, child: Hashable) -> None:
        self.states[parent].pending[child] += 1
        self._pump(parent)

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------
    def _wanted(self, state: _State) -> int:
        """Tasks a node wants stocked or on their way: ``slack`` plus its
        children's pending requests."""
        return self.slack + sum(state.pending.values())

    def _consumed(self, node: Hashable) -> None:
        """*node* took a task from its stock, to compute or to send."""

    def _serve(self, node: Hashable, state: _State) -> None:
        """*node*'s send port is free: start a transfer, or leave it idle."""
        raise NotImplementedError

    def _ask(self, node: Hashable, state: _State) -> None:
        """Request single tasks from the parent while the wanted stock is
        not covered by stock plus outstanding requests."""
        shortfall = self._wanted(state) - state.stock - state.outstanding
        if shortfall <= 0:
            return
        parent = self.tree.parent(node)
        latency = self.tree.c(node) * self.latency_factor
        for _ in range(shortfall):
            state.outstanding += 1
            self.requests += 1
            self.engine.schedule_in(
                latency, lambda: self._request_arrives(parent, node))

    def _after_transfer(self, sender: Hashable, receiver: Hashable) -> None:
        self._pump(receiver)
        self._pump(sender)

    def _computed(self, node: Hashable) -> None:
        now = self.engine.now
        self.trace.add_completion(now, node)
        self.trace.add_buffer_delta(now, node, -1)

    def _result(self, **fields) -> FarmResult:
        return FarmResult(**fields)

    # ------------------------------------------------------------------
    def run(self) -> FarmResult:
        # kick-off: every node evaluates its demand at t=0
        for node in self.tree.nodes():
            self._pump(node)
        if self.horizon is not None:
            # re-pump the root at the horizon so the cut is noticed even
            # when no other event lands exactly on it
            self.engine.schedule_at(self.horizon,
                                    lambda: self._pump(self.tree.root))
        self.engine.run_all(max_events=self.max_events)
        stop = self._stop_time if self._stop_time is not None else self.horizon
        return self._result(trace=self.trace, tree=self.tree,
                            released=self.released, stop_time=stop,
                            end_time=self.trace.end_time)

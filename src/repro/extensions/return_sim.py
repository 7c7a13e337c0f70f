"""Execution of the result-return model on *general* trees.

:mod:`repro.extensions.result_return` proves the Section 9 counterexample
with an exact LP and a fork-only simulator.  This module executes the
two-port model on arbitrary trees:

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
  behaviour for study).

A task *completes* when its result reaches the root (tasks the root
computes itself complete on the spot).  The achieved steady rate is upper-
bounded by :func:`repro.extensions.result_return.return_lp_throughput`,
which the tests assert; on the Section 9 platform the simulator achieves
the LP optimum of 2 exactly.
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
from .result_return import ReturnPlatform


@dataclass
class ReturnSimResult:
    """Outcome of a general-tree result-return run."""

    trace: Trace
    platform: ReturnPlatform
    released: int
    stop_time: Optional[Fraction]
    end_time: Fraction

    @property
    def completed(self) -> int:
        """Tasks whose result reached the master."""
        return self.trace.completed

    @property
    def wind_down(self) -> Optional[Fraction]:
        if self.stop_time is None or not self.trace.completed:
            return None
        return max(self.end_time - self.stop_time, Fraction(0))


class _State:
    __slots__ = ("stock", "results", "pending", "outstanding",
                 "computing", "send_busy", "recv_busy", "last_sent_kind")

    def __init__(self, children) -> None:
        self.stock = 0        # unassigned tasks buffered here
        self.results: "deque" = deque()  # origins of results waiting to go up
        self.pending: Dict[Hashable, int] = {c: 0 for c in children}
        self.outstanding = 0  # task requests sent to the parent
        self.computing = False
        self.send_busy = False
        self.recv_busy = False
        self.last_sent_kind = "result"  # so the first pick is a task


class ReturnSimulation:
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
        if horizon is None and supply is None:
            raise SimulationError("give a horizon, a supply, or both")
        if slack < 1:
            raise SimulationError("slack must be at least 1")
        self.platform = platform
        self.tree: Tree = platform.tree
        self.slack = slack
        self.patient = patient
        self.horizon = Fraction(horizon) if horizon is not None else None
        self.supply = supply
        self.max_events = max_events

        self.engine = Engine()
        self.trace = Trace()
        self.states = {n: _State(self.tree.children(n)) for n in self.tree.nodes()}
        self.released = 0
        self._stop_time: Optional[Fraction] = None

    # ------------------------------------------------------------------
    def _supply_open(self) -> bool:
        if self.horizon is not None and self.engine.now >= self.horizon:
            return False
        if self.supply is not None and self.released >= self.supply:
            return False
        return True

    def _pump(self, node: Hashable) -> None:
        tree = self.tree
        state = self.states[node]
        is_root = node == tree.root

        # the root materialises stock from the supply
        if is_root:
            while state.stock < self.slack + sum(state.pending.values()):
                if not self._supply_open():
                    if self._stop_time is None:
                        self._stop_time = self.engine.now
                    break
                self.released += 1
                state.stock += 1
                self.trace.add_release(self.engine.now, node)
                self.trace.add_buffer_delta(self.engine.now, node, +1)

        # compute
        if (not state.computing and state.stock > 0
                and not is_infinite(tree.w(node))):
            state.computing = True
            state.stock -= 1
            start = self.engine.now
            end = start + tree.w(node)
            self.trace.add_segment(node, COMPUTE, start, end)
            self.engine.schedule_at(end, lambda n=node: self._compute_done(n))

        # send port: alternate between a result (up) and a task (down)
        if not state.send_busy:
            choices = []
            if not is_root and state.results:
                parent = tree.parent(node)
                if not self.states[parent].recv_busy:
                    choices.append("result")
            task_child = None
            if state.stock > 0:
                requesters = [c for c, k in state.pending.items() if k > 0]
                if self.patient:
                    # pick the bandwidth-best requester; if its receive port
                    # is busy, wait for it (do not divert to a slower link)
                    if requesters:
                        best = min(requesters,
                                   key=lambda c: (tree.c(c), str(c)))
                        if not self.states[best].recv_busy:
                            task_child = best
                else:
                    available = [
                        c for c in requesters
                        if not self.states[c].recv_busy
                    ]
                    if available:
                        task_child = min(available,
                                         key=lambda c: (tree.c(c), str(c)))
                if task_child is not None:
                    choices.append("task")
            if choices:
                if len(choices) == 2:
                    kind = "task" if state.last_sent_kind == "result" else "result"
                else:
                    kind = choices[0]
                state.last_sent_kind = kind
                if kind == "result":
                    self._start_result(node)
                else:
                    self._start_task(node, task_child)

        # request tasks from the parent
        if not is_root:
            desired = self.slack + sum(state.pending.values())
            shortfall = desired - state.stock - state.outstanding
            for _ in range(max(shortfall, 0)):
                state.outstanding += 1
                parent = tree.parent(node)
                self.engine.schedule_in(
                    0, lambda p=parent, c=node: self._request_arrives(p, c)
                )

    # ------------------------------------------------------------------
    def _start_task(self, node: Hashable, child: Hashable) -> None:
        state = self.states[node]
        child_state = self.states[child]
        state.pending[child] -= 1
        state.stock -= 1
        state.send_busy = True
        child_state.recv_busy = True
        start = self.engine.now
        end = start + self.tree.c(child)
        self.trace.add_segment(node, SEND, start, end, peer=child)
        self.trace.add_segment(child, RECV, start, end, peer=node)
        self.engine.schedule_at(
            end, lambda n=node, c=child: self._task_done(n, c)
        )

    def _task_done(self, node: Hashable, child: Hashable) -> None:
        state = self.states[node]
        child_state = self.states[child]
        state.send_busy = False
        child_state.recv_busy = False
        child_state.outstanding -= 1
        child_state.stock += 1
        now = self.engine.now
        self.trace.add_buffer_delta(now, node, -1)
        self.trace.add_arrival(now, child)
        self.trace.add_buffer_delta(now, child, +1)
        self._wake(node)
        self._wake(child)

    def _start_result(self, node: Hashable) -> None:
        parent = self.tree.parent(node)
        state = self.states[node]
        parent_state = self.states[parent]
        origin = state.results.popleft()
        state.send_busy = True
        parent_state.recv_busy = True
        start = self.engine.now
        end = start + self.platform.d(node)
        self.trace.add_segment(node, SEND, start, end, peer=parent)
        self.trace.add_segment(parent, RECV, start, end, peer=node)
        self.engine.schedule_at(
            end, lambda n=node, p=parent, o=origin: self._result_done(n, p, o)
        )

    def _result_done(self, node: Hashable, parent: Hashable,
                     origin: Hashable) -> None:
        state = self.states[node]
        parent_state = self.states[parent]
        state.send_busy = False
        parent_state.recv_busy = False
        now = self.engine.now
        self.trace.add_buffer_delta(now, node, -1)
        if parent == self.tree.root:
            self.trace.add_completion(now, origin)
        else:
            parent_state.results.append(origin)
            self.trace.add_buffer_delta(now, parent, +1)
        self._wake(node)
        self._wake(parent)

    def _compute_done(self, node: Hashable) -> None:
        state = self.states[node]
        state.computing = False
        now = self.engine.now
        if node == self.tree.root:
            # the root's results are already home
            self.trace.add_completion(now, node)
            self.trace.add_buffer_delta(now, node, -1)
        else:
            state.results.append(node)
            # the task slot becomes a result slot: net buffer unchanged
        self._pump(node)

    def _request_arrives(self, parent: Hashable, child: Hashable) -> None:
        self.states[parent].pending[child] += 1
        self._pump(parent)

    def _wake(self, node: Hashable) -> None:
        """A port of *node* freed: re-evaluate it and its neighbourhood."""
        self._pump(node)
        parent = self.tree.parent(node)
        if parent is not None:
            self._pump(parent)
        for child in self.tree.children(node):
            self._pump(child)

    # ------------------------------------------------------------------
    def run(self) -> ReturnSimResult:
        for node in self.tree.nodes():
            self._pump(node)
        if self.horizon is not None:
            self.engine.schedule_at(self.horizon,
                                    lambda: self._pump(self.tree.root))
        self.engine.run_all(max_events=self.max_events)
        stop = self._stop_time
        if stop is None and self.horizon is not None:
            stop = self.horizon
        return ReturnSimResult(
            trace=self.trace,
            platform=self.platform,
            released=self.released,
            stop_time=stop,
            end_time=self.trace.end_time,
        )


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

"""What the task plane must do, spelled out independently, as oracles.

A payload frame used to be serialised as a dict (``to_payload()``)
through the codec's JSON encoder; production now formats one fixed-shape
``bytes`` template per kind (``to_body()``).  :func:`oracle_payload` is
the dict form, spelled out per kind rather than read from the frames'
declarations, and ``_dump(oracle_payload(frame))`` is what ``to_body()``
must equal byte for byte.

An engine routes the j-th task it takes to ``schedule.destination(j)``
(Section 6.2).  :func:`replayed_dispatches` is that schedule replayed on
task counts alone, with no clock and no engine; :class:`DispatchSpy`
records what the engines of a live plane actually routed, from outside
the engine, for the two to be compared.

Do not optimise either.
"""

from __future__ import annotations

import base64
from collections import deque
from typing import Dict, Hashable, List

from repro.taskplane import TaskPlaneNode
from repro.taskplane.frames import (CreditGrant, DeliveryAck, ResendRequest,
                                    ResultReport, Stop, Stopped, TaskFrame)

#: frame class → wire kind, then (wire key, field) in declaration order
WIRE_FORMAT = {
    TaskFrame: ("task", (("s", "sender"), ("r", "receiver"), ("id", "task_id"),
                         ("p", "payload"), ("c", "crc"), ("k", "kind"))),
    DeliveryAck: ("tack", (("s", "sender"), ("r", "receiver"),
                           ("id", "task_id"))),
    ResendRequest: ("tnak", (("s", "sender"), ("r", "receiver"),
                             ("id", "task_id"))),
    CreditGrant: ("tcr", (("s", "sender"), ("r", "receiver"),
                          ("n", "amount"))),
    ResultReport: ("tres", (("s", "sender"), ("r", "receiver"),
                            ("id", "task_id"), ("o", "origin"))),
    Stop: ("tstop", (("s", "sender"), ("r", "receiver"))),
    Stopped: ("tdone", (("s", "sender"), ("r", "receiver"),
                        ("n", "completed"))),
}


def oracle_payload(frame) -> dict:
    """The JSON-ready dict a payload frame's body is the compact dump of:
    ``"t"`` first, then every field under its wire key, payload bytes as
    base64 text."""
    kind, keys = WIRE_FORMAT[type(frame)]
    payload = {"t": kind}
    for key, name in keys:
        value = getattr(frame, name)
        if name == "payload":
            value = base64.b64encode(value).decode("ascii")
        payload[key] = value
    return payload


def replayed_dispatches(tree, schedules, tasks: int
                        ) -> Dict[Hashable, List[Hashable]]:
    """Where each node sends the tasks it takes when the root generates
    *tasks*: the k-th task a node takes goes to ``destination(k)`` (its own
    name: the local worker), and every task sent to a child is one more
    that child takes.  Nodes that take no task are absent."""
    taken = {tree.root: tasks}
    sequences = {}
    for node in tree.nodes():              # pre-order: parents first
        if taken.get(node):
            sequences[node] = [schedules[node].destination(k)
                               for k in range(taken[node])]
            for dest in sequences[node]:
                if dest != node:
                    taken[dest] = taken.get(dest, 0) + 1
    return sequences


class _Logged(deque):
    """A paced deque that logs the destination of every entry appended."""

    def __init__(self, log: list, destination):
        super().__init__()
        self.log, self.destination = log, destination

    def append(self, entry) -> None:
        self.log.append(self.destination(entry))
        super().append(entry)


class DispatchSpy:
    """While entered, every :class:`TaskPlaneNode` built logs where it
    routes each task (``dispatches[node]``: its own name for the worker,
    the child for the send port) by having its two paced deques replaced
    after construction, and counts the routing passes that stopped with a
    task still to take (``stops[node]``) and, of those, the ones whose
    head was a child without a credit while the worker or another child
    could have taken a task (``waits[node]``)."""

    def __init__(self):
        self.dispatches: Dict[Hashable, list] = {}
        self.stops: Dict[Hashable, int] = {}
        self.waits: Dict[Hashable, int] = {}

    def __enter__(self) -> "DispatchSpy":
        self._init = init = TaskPlaneNode.__init__
        spy = self

        def spied(engine, name, **kwargs):
            init(engine, name, **kwargs)
            log = spy.dispatches.setdefault(name, [])
            engine._cpu = _Logged(log, lambda entry: name)
            engine._port = _Logged(log, lambda entry: entry[2])
            route = engine._route

            def counted(now):
                route(now)
                spy._after_route(engine)

            engine._route = counted

        TaskPlaneNode.__init__ = spied
        return self

    def __exit__(self, *exc) -> None:
        TaskPlaneNode.__init__ = self._init

    def _after_route(self, engine) -> None:
        more = (not engine.generation_stopped if engine.is_root
                else engine.buffer.depth)
        if engine.schedule is None or not more:
            return
        name = engine.name
        self.stops[name] = self.stops.get(name, 0) + 1
        head = engine.schedule.destination(engine._taken)
        if head == name:
            return                     # the worker is busy: nothing to skip
        other = (engine.worker is not None and len(engine._cpu) < 2) or any(
            engine.credits.available(child) for child in engine.links
            if child != head)
        if other:
            self.waits[name] = self.waits.get(name, 0) + 1

    @property
    def routed(self) -> Dict[Hashable, list]:
        """The nodes that routed at least one task, with their sequences."""
        return {node: log for node, log in self.dispatches.items() if log}

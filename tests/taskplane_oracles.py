"""Two pieces of the task plane as they were, as oracles.

Until PR 24 ``TaskPlaneNode._pick_sink`` compared ``Fraction(served) /
weight`` per sink per routing decision and its router loop kept the books
around it (a ``served`` dict, the credit account, a pending count for the
worker).  Production now compares ``served · stride`` in integers;
:class:`FractionRouter` is the old body, unchanged apart from taking its
clock and its events as arguments, and is what
``tests/test_taskplane.py::TestDispatchOrder`` compares the engine against.

A payload frame used to be serialised as a dict (``to_payload()``)
through the codec's JSON encoder; production now formats one fixed-shape
``bytes`` template per kind (``to_body()``).  :func:`oracle_payload` is
the dict form, spelled out per kind rather than read from the frames'
declarations, and ``_dump(oracle_payload(frame))`` is what ``to_body()``
must equal byte for byte.

Do not optimise either.
"""

from __future__ import annotations

import base64
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

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


class FractionRouter:
    """*links* are ``(name, eta, capacity)`` in bandwidth order."""

    def __init__(self, alpha: Fraction,
                 links: Sequence[Tuple[Hashable, Fraction, int]],
                 time_scale: float):
        self.alpha = alpha
        self.links = list(links)
        self.has_worker = alpha > 0
        self.worker_pending = 0
        self.credits: Dict[Hashable, int] = {
            name: capacity for name, _, capacity in links}
        self.served: Dict[Hashable, int] = {}
        self.alpha_ps = float(alpha) / time_scale if alpha > 0 else 0.0
        self.eta_ps = {name: float(eta) / time_scale for name, eta, _ in links}
        self.next_eligible: Optional[float] = None

    def _note_eligible_at(self, when: float) -> None:
        if self.next_eligible is None or when < self.next_eligible:
            self.next_eligible = when

    def pick(self, now: float):
        best = None
        best_progress = None
        self.next_eligible = None
        if self.has_worker and self.worker_pending < 2:
            served = self.served.get("cpu", 0)
            if served < self.alpha_ps * now + 2:
                best = "cpu"
                best_progress = Fraction(served) / self.alpha
            else:
                self._note_eligible_at((served - 1) / self.alpha_ps)
        for name, eta, capacity in self.links:
            if self.credits[name] <= 0:
                continue
            served = self.served.get(name, 0)
            rate = self.eta_ps[name]
            if served >= rate * now + capacity:
                self._note_eligible_at((served - capacity + 1) / rate)
                continue
            progress = Fraction(served) / eta
            if best_progress is None or progress < best_progress:
                best, best_progress = name, progress
        return best

    def route(self, now: float) -> List[Hashable]:
        """The router loop's inner ``while`` under an endless supply: the
        sinks served at *now*, in order."""
        order = []
        while (sink := self.pick(now)) is not None:
            self.served[sink] = self.served.get(sink, 0) + 1
            if sink == "cpu":
                self.worker_pending += 1
            else:
                self.credits[sink] -= 1
            order.append(sink)
        return order

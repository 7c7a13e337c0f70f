"""Deterministic, serializable fault plans.

A :class:`FaultPlan` is a *pure description* of every fault a run will
suffer: node crashes at given virtual times, nodes rejoining after repair,
the master itself failing over, per-link control-message drop /
duplication / corruption probabilities, and transient link-degradation
windows.  It
contains **no randomness state** — every probabilistic decision is derived
on demand from the plan's seed and the decision's coordinates
(:meth:`FaultPlan.decision`), so

* the same plan produces the *identical* fault trace on every run, on every
  machine, regardless of import order or interleaving (no shared RNG whose
  stream could be consumed in a different order);
* a plan round-trips through JSON (:meth:`FaultPlan.to_json` /
  :meth:`FaultPlan.from_json`) without loss — probabilities and times are
  exact :class:`~fractions.Fraction` values serialized as strings.

Plans are validated against a platform before use
(:meth:`FaultPlan.validate`): crashing the root or an unknown node, or a
probability of 1 (which no retry policy can beat), is rejected up front.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Optional, Tuple

from ..core.rates import as_fraction
from ..exceptions import FaultError, PlatformError
from ..platform.tree import Tree


def _prob(value) -> Fraction:
    p = as_fraction(value)
    if p < 0 or p >= 1:
        raise FaultError(f"probability must be in [0, 1), got {p}")
    return p


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop crash of *node* at virtual *time*."""

    node: Hashable
    time: Fraction

    def __post_init__(self):
        object.__setattr__(self, "time", as_fraction(self.time))
        if self.time < 0:
            raise FaultError(f"crash time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class NodeRejoin:
    """A previously crashed *node* returns, repaired, at virtual *time*.

    The node brings its whole pre-crash subtree back with it (a repaired
    cluster re-registers as one unit, exactly the arrival scenario of the
    star-redistribution literature).  The plan must also crash the node,
    strictly earlier — a rejoin of a node that never left is meaningless.
    """

    node: Hashable
    time: Fraction

    def __post_init__(self):
        object.__setattr__(self, "time", as_fraction(self.time))
        if self.time < 0:
            raise FaultError(f"rejoin time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class RootFailover:
    """The master crashes at virtual *time*; survivors elect a new root.

    Modelled as its own fault class rather than a :class:`NodeCrash` of
    the root: a plain root crash stays rejected by :meth:`FaultPlan.validate`
    (a dead root with no election is a dead application), while a failover
    says the deployment *has* an election procedure — the highest-priority
    live child (first in bandwidth-centric order) takes over the task
    supply and the negotiation resumes under it.
    """

    time: Fraction

    def __post_init__(self):
        object.__setattr__(self, "time", as_fraction(self.time))
        if self.time < 0:
            raise FaultError(f"failover time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class Corruption:
    """A window of hostile garbling on the link above *child*.

    Between *start* and *end* (virtual time, half-open; ``end=None`` means
    forever) each control message on the link is corrupted with
    probability *rate*.  Corrupt frames are detected by checksum /
    integrity check and discarded before any state machine sees them, so
    the observable effect is a drop — but one counted separately and fed
    to the quarantine policy.
    """

    child: Hashable
    rate: Fraction
    start: Fraction = Fraction(0)
    end: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "rate", _prob(self.rate))
        object.__setattr__(self, "start", as_fraction(self.start))
        if self.end is not None:
            object.__setattr__(self, "end", as_fraction(self.end))
            if not self.start < self.end:
                raise FaultError(
                    f"corruption window [{self.start}, {self.end}) is empty"
                )
        if self.start < 0:
            raise FaultError(
                f"corruption window must start at >= 0, got {self.start}"
            )


@dataclass(frozen=True)
class LinkFaults:
    """Per-link override of the control-plane loss model.

    The link is identified by its *child* endpoint (every tree link is
    ``parent(child) ↔ child``).  Omitted links use the plan's global
    probabilities.
    """

    child: Hashable
    drop: Fraction = Fraction(0)
    duplicate: Fraction = Fraction(0)
    corrupt: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "drop", _prob(self.drop))
        object.__setattr__(self, "duplicate", _prob(self.duplicate))
        object.__setattr__(self, "corrupt", _prob(self.corrupt))


@dataclass(frozen=True)
class LinkDegradation:
    """Transient slow-down of the link above *child*.

    Between *start* and *end* (virtual time, half-open ``[start, end)``)
    every transfer beginning on the link takes *factor* times as long —
    task transfers in the simulator and control messages in a
    :class:`~repro.faults.inject.FaultyNetwork` alike.
    """

    child: Hashable
    factor: Fraction
    start: Fraction
    end: Fraction

    def __post_init__(self):
        object.__setattr__(self, "factor", as_fraction(self.factor))
        object.__setattr__(self, "start", as_fraction(self.start))
        object.__setattr__(self, "end", as_fraction(self.end))
        if self.factor < 1:
            raise FaultError(
                f"degradation factor must be >= 1, got {self.factor}"
            )
        if not self.start < self.end:
            raise FaultError(
                f"degradation window [{self.start}, {self.end}) is empty"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one run, deterministically.

    * *seed* drives every probabilistic decision (see :meth:`decision`);
    * *crashes* are fail-stop node crashes at virtual times;
    * *rejoins* bring previously crashed subtrees back after repair;
    * *failover* crashes the master itself and triggers an election;
    * *drop* / *duplicate* / *corrupt* are the global per-message
      probabilities that a control message is lost / delivered twice /
      garbled on the wire, overridable per link via *links*;
    * *corruptions* are transient hostile-garbling windows per link;
    * *degradations* are transient link slow-down windows;
    * *task_drop* / *task_corrupt* are the **data-plane** fault rates:
      the probability that one send of a task payload frame is lost in
      flight, or that its payload bytes are garbled before framing (so
      only the end-to-end payload checksum catches it).  They are applied
      per *attempt* by the task plane's transmit filter
      (:meth:`repro.taskplane.plane.TaskPlaneNode._transmit`), never by
      the control transports — retransmission for task frames lives in
      the plane's retention buffer, not in the protocol's retry policy.
    """

    seed: int = 0
    crashes: Tuple[NodeCrash, ...] = ()
    drop: Fraction = Fraction(0)
    duplicate: Fraction = Fraction(0)
    links: Tuple[LinkFaults, ...] = ()
    degradations: Tuple[LinkDegradation, ...] = ()
    rejoins: Tuple[NodeRejoin, ...] = ()
    failover: Optional[RootFailover] = None
    corrupt: Fraction = Fraction(0)
    corruptions: Tuple[Corruption, ...] = ()
    task_drop: Fraction = Fraction(0)
    task_corrupt: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "drop", _prob(self.drop))
        object.__setattr__(self, "duplicate", _prob(self.duplicate))
        object.__setattr__(self, "corrupt", _prob(self.corrupt))
        object.__setattr__(self, "task_drop", _prob(self.task_drop))
        object.__setattr__(self, "task_corrupt", _prob(self.task_corrupt))
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "degradations", tuple(self.degradations))
        object.__setattr__(self, "rejoins", tuple(self.rejoins))
        object.__setattr__(self, "corruptions", tuple(self.corruptions))
        seen = set()
        for crash in self.crashes:
            if crash.node in seen:
                raise FaultError(f"{crash.node!r} crashes twice")
            seen.add(crash.node)
        rejoined = set()
        for rejoin in self.rejoins:
            if rejoin.node in rejoined:
                raise FaultError(f"{rejoin.node!r} rejoins twice")
            rejoined.add(rejoin.node)
            crashed_at = self.crash_time(rejoin.node)
            if crashed_at is None:
                raise FaultError(
                    f"{rejoin.node!r} rejoins without ever crashing"
                )
            if not rejoin.time > crashed_at:
                raise FaultError(
                    f"{rejoin.node!r} rejoins at {rejoin.time}, not after "
                    f"its crash at {crashed_at}"
                )
        overridden = set()
        for link in self.links:
            if link.child in overridden:
                raise FaultError(f"link {link.child!r} overridden twice")
            overridden.add(link.child)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def crashed_nodes(self) -> Tuple[Hashable, ...]:
        return tuple(crash.node for crash in self.crashes)

    def crash_time(self, node: Hashable) -> Optional[Fraction]:
        for crash in self.crashes:
            if crash.node == node:
                return crash.time
        return None

    def rejoin_time(self, node: Hashable) -> Optional[Fraction]:
        for rejoin in self.rejoins:
            if rejoin.node == node:
                return rejoin.time
        return None

    def _link(self, child: Hashable) -> Optional[LinkFaults]:
        for link in self.links:
            if link.child == child:
                return link
        return None

    def link_drop(self, child: Hashable) -> Fraction:
        """Drop probability on the link above *child*."""
        override = self._link(child)
        return override.drop if override is not None else self.drop

    def link_duplicate(self, child: Hashable) -> Fraction:
        """Duplication probability on the link above *child*."""
        override = self._link(child)
        return override.duplicate if override is not None else self.duplicate

    def link_corrupt(self, child: Hashable) -> Fraction:
        """Time-independent corruption probability on the link above *child*.

        The static part of the hostile model: the per-link override if one
        exists, else the global rate.  Windowed :class:`Corruption` bursts
        are on top of this — see :meth:`corruption_rate`.
        """
        override = self._link(child)
        return override.corrupt if override is not None else self.corrupt

    def corruption_rate(self, child: Hashable, now) -> Fraction:
        """Corruption probability on the link above *child* at time *now*.

        The static rate of :meth:`link_corrupt`, max-combined with every
        :class:`Corruption` window active at *now* (probabilities do not
        multiply like slow-down factors; the strongest attacker wins).
        """
        t = as_fraction(now)
        rate = self.link_corrupt(child)
        for window in self.corruptions:
            if window.child == child and window.start <= t and (
                window.end is None or t < window.end
            ):
                rate = max(rate, window.rate)
        return rate

    def degradation_factor(self, child: Hashable, now) -> Fraction:
        """Transfer-time multiplier of the link above *child* at time *now*.

        Overlapping windows compound (factors multiply)."""
        t = as_fraction(now)
        factor = Fraction(1)
        for window in self.degradations:
            if window.child == child and window.start <= t < window.end:
                factor *= window.factor
        return factor

    @property
    def hostile(self) -> bool:
        """Whether any link can garble control messages."""
        if self.corrupt > 0 or self.corruptions:
            return True
        return any(l.corrupt > 0 for l in self.links)

    # ------------------------------------------------------------------
    # deterministic decisions
    # ------------------------------------------------------------------
    def decision(self, *coordinates) -> float:
        """A uniform ``[0, 1)`` draw addressed by *coordinates*.

        The draw is a pure function of ``(seed, coordinates)`` — the
        generator is seeded with the seed and the ``repr`` of every
        coordinate, joined by ``|`` — so callers never share RNG state and
        the fault trace is reproducible however the run is interleaved.
        What the coordinates of a frame are, and what a draw is compared
        with, is :class:`~repro.faults.inject.LinkFaultDecider`'s to say.
        """
        key = f"{self.seed}|" + "|".join(repr(c) for c in coordinates)
        return random.Random(key).random()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, tree: Tree) -> "FaultPlan":
        """Check the plan is applicable to *tree*; return the plan.

        Rejects crashes of the root or of unknown nodes, and link faults or
        degradations naming nodes without a parent link.
        """
        for crash in self.crashes:
            if crash.node not in tree:
                raise FaultError(f"crash of unknown node {crash.node!r}")
            if crash.node == tree.root:
                raise FaultError(
                    "the root cannot crash: it owns the task supply and "
                    "initiates every negotiation — a dead root is a dead "
                    "application, not a recoverable fault"
                )
        for link in self.links:
            if link.child not in tree or tree.parent(link.child) is None:
                raise FaultError(
                    f"link faults name {link.child!r}, which has no parent link"
                )
        for window in self.degradations:
            if window.child not in tree or tree.parent(window.child) is None:
                raise FaultError(
                    f"degradation names {window.child!r}, which has no parent link"
                )
        for window in self.corruptions:
            if window.child not in tree or tree.parent(window.child) is None:
                raise FaultError(
                    f"corruption names {window.child!r}, which has no parent link"
                )
        if self.failover is not None and not tree.children(tree.root):
            raise FaultError(
                "root failover needs at least one child to elect"
            )
        return self

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize losslessly (Fractions as ``"p/q"`` strings)."""

        def frac(x: Optional[Fraction]) -> Optional[str]:
            return None if x is None else str(x)

        payload = {
            "seed": self.seed,
            "failover": (None if self.failover is None
                         else {"time": frac(self.failover.time)}),
        }
        for rate in _RATES:
            payload[rate] = frac(getattr(self, rate))
        for key, (_, name, required, optional) in _RECORDS.items():
            payload[key] = [
                {name: getattr(record, name),
                 **{f: frac(getattr(record, f)) for f in (*required, *optional)}}
                for record in getattr(self, key)
            ]
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`.  Fails closed: text that is not
        JSON, a value of the wrong shape, a missing or unparseable field
        and a key :meth:`to_json` never writes each raise
        :class:`~repro.exceptions.FaultError` naming the key."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise FaultError(f"a fault plan must be JSON: {exc}") from exc
        plan = _Fields(payload, "plan")
        seed = plan.take("seed", 0)
        if type(seed) is not int:  # bool is no seed, nor is 1.5
            raise FaultError(f"plan: 'seed' is no integer: {seed!r}")
        built = {"seed": seed}
        failover = plan.take("failover", None)
        if failover is not None:
            fields = _Fields(failover, "plan: failover")
            built["failover"] = RootFailover(time=fields.rational("time"))
            fields.close()
        for rate in _RATES:
            built[rate] = plan.rational(rate, 0)
        for key, schema in _RECORDS.items():
            built[key] = plan.records(key, *schema)
        plan.close()
        return cls(**built)


#: The serialized form of a plan, stated once for :meth:`FaultPlan.to_json`
#: and :meth:`FaultPlan.from_json`: the global rates, and per list of
#: records its class, its node-name field, its required rationals and its
#: optional ones with their defaults.
_RATES = ("drop", "duplicate", "corrupt", "task_drop", "task_corrupt")
_RECORDS = {
    "crashes": (NodeCrash, "node", ("time",), {}),
    "rejoins": (NodeRejoin, "node", ("time",), {}),
    "links": (LinkFaults, "child", (),
              {"drop": 0, "duplicate": 0, "corrupt": 0}),
    "degradations": (LinkDegradation, "child",
                     ("factor", "start", "end"), {}),
    "corruptions": (Corruption, "child", ("rate",),
                    {"start": 0, "end": None}),
}
_REQUIRED = object()


class _Fields:
    """One JSON object of a serialized plan, read key by key: every read
    checks what it takes, and :meth:`close` refuses whatever nobody took —
    a misspelt ``"task_dorp"`` is an error, not a fault-free plan."""

    def __init__(self, value, where: str):
        if not isinstance(value, dict):
            raise FaultError(f"{where} must be a JSON object, got {value!r}")
        self.left, self.where = dict(value), where

    def take(self, key: str, default=_REQUIRED):
        if key not in self.left and default is _REQUIRED:
            raise FaultError(f"{self.where} has no {key!r}")
        return self.left.pop(key, default)

    def rational(self, key: str, default=_REQUIRED) -> Optional[Fraction]:
        """The exact rational under *key* (``"p/q"``, a number — never a
        ``bool``); ``None`` only where that is the *default*."""
        raw = self.take(key, default)
        if raw is None and default is None:
            return None
        try:
            return as_fraction(raw)
        except PlatformError as exc:
            raise FaultError(f"{self.where}: bad {key!r}: {exc}") from exc

    def records(self, key: str, record, name: str, required, optional):
        """One *record* per object of the list under *key*."""
        raw = self.take(key, ())
        if not isinstance(raw, (list, tuple)):
            raise FaultError(f"{self.where}: {key!r} must be a list, got {raw!r}")
        built = []
        for index, item in enumerate(raw):
            fields = _Fields(item, f"{self.where}: {key}[{index}]")
            node = fields.take(name)
            if isinstance(node, bool) or not isinstance(node, (str, int)):
                raise FaultError(
                    f"{fields.where}: {name!r} is no node name: {node!r}")
            built.append(record(
                **{name: node},
                **{f: fields.rational(f) for f in required},
                **{f: fields.rational(f, d) for f, d in optional.items()}))
            fields.close()
        return tuple(built)

    def close(self) -> None:
        if self.left:
            raise FaultError(
                f"{self.where} has unknown key {min(self.left, key=repr)!r}")


def random_plan(
    tree: Tree,
    seed: int,
    n_crashes: int = 1,
    crash_span=Fraction(10),
    drop=Fraction(0),
    duplicate=Fraction(0),
) -> FaultPlan:
    """A reproducible plan crashing *n_crashes* non-root nodes of *tree*.

    Crash victims and times are drawn from ``random.Random(seed)`` — the
    same seed always produces the same plan.  Crash times are uniform
    rationals (granularity 1/64) in ``(0, crash_span)``.
    """
    candidates = [n for n in tree.nodes() if n != tree.root]
    if n_crashes > len(candidates):
        raise FaultError(
            f"cannot crash {n_crashes} of {len(candidates)} non-root nodes"
        )
    rng = random.Random(seed)
    victims = rng.sample(candidates, n_crashes)
    span = as_fraction(crash_span)
    crashes = tuple(
        NodeCrash(node=v, time=span * Fraction(rng.randint(1, 63), 64))
        for v in victims
    )
    return FaultPlan(
        seed=seed, crashes=crashes, drop=drop, duplicate=duplicate
    ).validate(tree)

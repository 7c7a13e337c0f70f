"""The cross-tenant memo store each shard worker owns.

One content-addressed store of ``digest → {sat, thr, exact{β: sol}}``
entries, shared by every tenant solver of one shard.  Solutions are held
in the solver's int wire form (:func:`~repro.core.incremental.sol_to_wire`),
thresholds and β as ``(num, den)`` pairs:

* the **state** (:class:`MemoState`) implements the merge discipline —
  a saturated solution only replaces one with a *lower* threshold, exact
  memos accumulate up to a per-entry cap, and whole entries are evicted
  FIFO past ``max_entries`` (a memory bound, never a correctness issue:
  an evicted entry is merely recomputed by the next tenant to need it);
* the **store** (:class:`InlineMemoStore`) is the solver-facing half: it
  satisfies :class:`~repro.core.incremental.IncrementalSolver`'s
  shared-store protocol — a batched ``fetch`` and a batched ``publish`` —
  plus the planner's ``betas`` query.  A shard worker holds one, behind
  :class:`~repro.federation.shard._ShardMemo`'s after-ack publish queue;
  two solvers in one process share solutions through one directly.

Cross-tenant accounting is the store's job because only it sees both
sides: every digest remembers which tenants published into it, and a
fetch hit from a tenant that never contributed counts as a
``cross_tenant_hit`` — the number the E32 gate asserts is positive on
templated tenant families.

Solutions are exact rationals end to end (the solver's wire form, decoded
fail-closed by the fetching solver); a hit on one tenant's subtree replays
bit-identically for another tenant, which is what makes sharing sound —
content equality implies solution equality (Algorithm 1's answer for a
subtree depends only on that subtree and the β offered to it).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set

from ..core.incremental import sol_to_wire

#: Default bound on distinct digests held by one store.
MAX_ENTRIES = 8192


def _pair(value) -> Optional[tuple]:
    return None if value is None else (value.numerator, value.denominator)


def wire_updates(updates: Iterable) -> List[tuple]:
    """A solver's publish queue — ``(digest, β | None, threshold | None,
    solution)`` with rationals and solution objects — in the store's form:
    ``(num, den)`` pairs and flat int lists."""
    return [(digest, _pair(beta), _pair(threshold), sol_to_wire(sol))
            for digest, beta, threshold, sol in updates]


class MemoState:
    """The store itself: merge discipline + cross-tenant accounting.

    Not thread-safe; :class:`InlineMemoStore` serialises its callers.
    """

    def __init__(self, max_entries: int = MAX_ENTRIES, exact_cap: int = 64):
        self.entries: Dict[str, dict] = {}
        self.publishers: Dict[str, Set[str]] = {}
        self.max_entries = max_entries
        self.exact_cap = exact_cap
        self.stats = {
            "round_trips": 0, "fetches": 0, "hits": 0, "misses": 0,
            "publishes": 0, "cross_tenant_hits": 0, "evictions": 0,
        }

    def fetch(self, digests: Iterable[str],
              tenant: Optional[str] = None) -> Dict[str, dict]:
        """The entries held for *digests* (absent ones are left out).  One
        call is one ``round_trips``; hits, misses and cross-tenant hits are
        counted per digest."""
        stats = self.stats
        stats["round_trips"] += 1
        found = {}
        for digest in digests:
            stats["fetches"] += 1
            entry = self.entries.get(digest)
            if entry is None:
                stats["misses"] += 1
                continue
            stats["hits"] += 1
            if tenant is not None and tenant not in self.publishers.get(digest, ()):
                stats["cross_tenant_hits"] += 1
            found[digest] = entry
        return found

    def publish(self, updates: Iterable[tuple],
                tenant: Optional[str] = None) -> None:
        """Merge wire-form *updates* (see :func:`wire_updates`) in."""
        for digest, beta, threshold, wire in updates:
            self.stats["publishes"] += 1
            entry = self.entries.get(digest)
            if entry is None:
                while len(self.entries) >= self.max_entries:
                    evicted = next(iter(self.entries))
                    del self.entries[evicted]
                    self.publishers.pop(evicted, None)
                    self.stats["evictions"] += 1
                entry = self.entries[digest] = {
                    "sat": None, "thr": None, "exact": {}}
            if tenant is not None:
                self.publishers.setdefault(digest, set()).add(tenant)
            if beta is None:
                held = entry["thr"]
                # num/den pairs with positive denominators: cross-multiply
                if held is None or threshold[0] * held[1] < held[0] * threshold[1]:
                    entry["sat"] = wire
                    entry["thr"] = threshold
            elif (beta not in entry["exact"]
                    and len(entry["exact"]) < self.exact_cap):
                entry["exact"][beta] = wire

    def betas(self, digest: str) -> dict:
        """The planner's oracle: which β the store can answer for *digest*."""
        entry = self.entries.get(digest)
        if entry is None:
            return {"saturated_above": None, "exact": []}
        threshold = entry["thr"]
        return {
            "saturated_above": None if threshold is None else Fraction(*threshold),
            "exact": sorted(Fraction(*beta) for beta in entry["exact"]),
        }

    def snapshot(self) -> dict:
        info = dict(self.stats)
        info["entries"] = len(self.entries)
        return info


class InlineMemoStore:
    """A :class:`MemoState` behind the solver's store protocol.

    A shard worker owns one for all its tenants; two solvers in one
    process share solutions through one directly (the shared-subtree
    property test).
    """

    def __init__(self, max_entries: int = MAX_ENTRIES, exact_cap: int = 64):
        self._state = MemoState(max_entries=max_entries, exact_cap=exact_cap)
        self._lock = threading.Lock()

    def fetch(self, digests: Iterable[str],
              tenant: Optional[str] = None) -> Dict[str, dict]:
        with self._lock:
            return self._state.fetch(digests, tenant=tenant)

    def publish(self, updates: Iterable, tenant: Optional[str] = None) -> None:
        wire = wire_updates(updates)
        with self._lock:
            self._state.publish(wire, tenant=tenant)

    def betas(self, digest: str) -> dict:
        with self._lock:
            return self._state.betas(digest)

    def stats(self) -> dict:
        with self._lock:
            return self._state.snapshot()

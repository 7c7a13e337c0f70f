"""The cross-tenant memo store each shard worker owns.

One content-addressed store of ``digest → {sat, thr, exact{β: sol}}``
entries, shared by every tenant solver of one shard.  It holds what the
solvers published — their own immutable solution objects, with
thresholds and β as exact rationals — so a publish serialises nothing
and a fetch decodes nothing: a fetching solver adopts the very solutions
another tenant's solve built.

:class:`MemoState` implements the merge discipline — a saturated solution
only replaces one with a *lower* threshold, exact memos accumulate up to
a per-entry cap, and whole entries are evicted FIFO past ``max_entries``
(a memory bound, never a correctness issue: an evicted entry is merely
recomputed by the next tenant to need it) — behind
:class:`~repro.core.incremental.IncrementalSolver`'s shared-store
protocol: a batched ``fetch`` and a batched ``publish``, plus the
planner's ``betas`` query.  A shard worker holds one, behind
:class:`~repro.federation.shard._ShardMemo`'s after-ack publish queue;
two solvers in one process share solutions through one directly.  Only
the worker's one thread uses it, so it takes no lock.

Cross-tenant accounting is the store's job because only it sees both
sides: every digest remembers which tenants published into it, and a
fetch hit from a tenant that never contributed counts as a
``cross_tenant_hit`` — the number the E32 gate asserts is positive on
templated tenant families.

A hit on one tenant's subtree replays bit-identically for another
tenant, which is what makes sharing sound — content equality implies
solution equality (Algorithm 1's answer for a subtree depends only on
that subtree and the β offered to it).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

#: Default bound on distinct digests held by one store.
MAX_ENTRIES = 8192


class MemoState:
    """The store: merge discipline + cross-tenant accounting."""

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
        """Merge a solver's publish queue in: ``(digest, β | None,
        threshold | None, solution)`` per solution."""
        for digest, beta, threshold, sol in updates:
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
                if entry["thr"] is None or threshold < entry["thr"]:
                    entry["sat"] = sol
                    entry["thr"] = threshold
            elif (beta not in entry["exact"]
                    and len(entry["exact"]) < self.exact_cap):
                entry["exact"][beta] = sol

    def betas(self, digest: str) -> dict:
        """The planner's oracle: which β the store can answer for *digest*."""
        entry = self.entries.get(digest)
        if entry is None:
            return {"saturated_above": None, "exact": []}
        return {"saturated_above": entry["thr"],
                "exact": sorted(entry["exact"])}

    def snapshot(self) -> dict:
        info = dict(self.stats)
        info["entries"] = len(self.entries)
        return info

"""Multi-tenant federation: a sharded scheduler service with a shared
cross-tenant solve cache.

The paper negotiates one tree at a time; the federation serves *many*
concurrent applications (tenants) from one long-lived service, the
ROADMAP's "millions of users" shape.  Three mechanisms carry the load:

* **sharding** (:mod:`~repro.federation.ring`,
  :mod:`~repro.federation.shard`) — tenant trees are partitioned across
  worker processes by a consistent hash of the tenant id, each shard
  owning an :class:`~repro.core.incremental.IncrementalSolver` per tenant;
* **batching** (:mod:`~repro.federation.service`) — mutations to the same
  tenant arriving within a batch window coalesce into one root-path
  re-fingerprint and one incremental solve, and each flush sends one
  framed request per shard regardless of how many tenants it touches;
* **memo sharing** (:mod:`~repro.federation.memo`) — a content-addressed
  ``(digest, β) → solution`` store in each shard worker, so a solve on
  one tenant's subtree answers any other tenant's identical subtree on
  the same shard for free (subtree fingerprints make this exact: equal
  content ⇒ equal BW-First solution).

Requests and replies reuse the runtime codec's length+CRC32 framing over
``multiprocessing`` pipes, crashes of a shard worker are detected,
respawned and the pending batch retried from the service's authoritative
tenant state, and cache-aware proposal planning
(:func:`~repro.protocol.plan_proposal`) prefers already-memoised β among
admissible candidates.  ``repro federate serve|bench`` is the CLI
surface; ``benchmarks/bench_e32_federation.py`` gates exactness,
cross-tenant hits and throughput against the N-isolated-solvers baseline.
"""

from .ring import HashRing
from .service import FederationService, matches_reference

__all__ = [
    "HashRing",
    "FederationService",
    "matches_reference",
]

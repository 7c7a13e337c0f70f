"""The E32 federation benchmark: re-negotiations/sec under churn.

One scenario, three modes over identical tenant trees and identical
seeded mutation streams:

* **federated** — the sharded service with batching and a memo store in
  each shard: every churn round queues ``batch`` leaf mutations per tenant and
  one explicit :meth:`~repro.federation.service.FederationService.flush`
  re-solves everything (explicit rounds, not wall-clock windows, so the
  request count is deterministic);
* **isolated-full** — the pre-federation baseline the gate must beat: one
  full :func:`~repro.core.bwfirst.bw_first` per tenant per *mutation*,
  nothing shared, nothing batched;
* **isolated-incremental** — the *nearest* baseline: per-tenant
  :class:`~repro.core.incremental.IncrementalSolver` in this process with
  no cross-tenant sharing, one solve per mutation, answered by
  :meth:`~repro.core.incremental.IncrementalSolver.rate` as the shards
  answer theirs, so both modes do the same work.  What the shards,
  batching and the shared store buy over PR 4's incrementality alone; the
  E32 gate asserts the federated churn beats it in the same run.  Like
  the federated mode, its churn wall excludes onboarding (building the
  solver and the first solve, reported as ``onboard_wall_s``).

Tenants come in **templated families** (``tenants`` ids over
``templates`` distinct trees), the multi-application shape the ROADMAP
names: identical trees on one shard are exactly where the cross-tenant
store pays, and the gate asserts ``cross_tenant_hits > 0``.  Mutations
draw new leaf weights from the smooth-tree pool, so trees stay in the
cheap-timeline regime throughout.  ``memo_round_trips`` counts the store
fetches the shards made during the churn — at most one per re-solve,
which the gate asserts too.

Exactness is verified *outside* the timed loops: after the churn, every
tenant's served solution must equal ``bw_first`` on an independently
replayed tree bit for bit.

Determinism for ``make bench-check``: the federated record's
``node_evals`` is the number of re-solve requests served (a pure function
of the parameters); the isolated modes count real node evaluations,
which are sequential and exact.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from ..core.bwfirst import bw_first
from ..core.incremental import IncrementalSolver
from ..platform.generators import smooth_tree
from ..platform.serialization import tree_from_dict, tree_to_dict
from .service import FederationService, matches_reference

#: The smooth-tree weight pool mutations draw from (keeps periods small).
WEIGHT_POOL = (2048, 3072, 4096, 6144)


def _leaves(tree) -> List:
    return [n for n in tree.nodes() if not list(tree.children(n))]


def _mutation_streams(trees: Dict[str, object], mutations: int,
                      seed: int) -> Dict[str, List[list]]:
    """Per-tenant deterministic ``["set_w", leaf, w]`` streams."""
    streams: Dict[str, List[list]] = {}
    for i, (tenant, tree) in enumerate(sorted(trees.items())):
        rng = random.Random(seed * 10_000 + i)
        leaves = _leaves(tree)
        streams[tenant] = [
            ["set_w", rng.choice(leaves), str(rng.choice(WEIGHT_POOL))]
            for _ in range(mutations)
        ]
    return streams


def run_federation_bench(tenants: int = 8, shards: int = 2, nodes: int = 240,
                         templates: int = 4, mutations: int = 20,
                         batch: int = 4, seed: int = 1,
                         memo: str = "service", verify: bool = True,
                         isolated: bool = True,
                         telemetry=None) -> dict:
    """Run the scenario; returns the full comparison record (see module
    docstring for the modes and the determinism contract)."""
    if batch < 1 or mutations < 1:
        raise ValueError("batch and mutations must be >= 1")
    templates = min(templates, tenants)
    template_trees = [smooth_tree(nodes, seed=seed + k)
                      for k in range(templates)]
    # canonicalise through the wire form so every mode sees the same names
    template_trees = [tree_from_dict(tree_to_dict(t)) for t in template_trees]
    trees = {f"t{i:03d}": template_trees[i % templates].copy()
             for i in range(tenants)}
    streams = _mutation_streams(trees, mutations, seed)
    rounds = (mutations + batch - 1) // batch

    # ---------------- federated ----------------
    service = FederationService(shards=shards, memo=memo, telemetry=telemetry)
    onboard_start = time.perf_counter()
    onboard_evals = 0
    for tenant in sorted(trees):
        summary = service.onboard(tenant, trees[tenant])
        onboard_evals += summary.get("evals", 0)
    onboard_wall = time.perf_counter() - onboard_start
    memo_before = service.stats()["memo"] or {}

    churn_start = time.perf_counter()
    resolves = 0
    for r in range(rounds):
        for tenant in sorted(trees):
            ops = streams[tenant][r * batch:(r + 1) * batch]
            if ops:
                service.mutate(tenant, *ops)
        resolves += len(service.flush())
    churn_wall = time.perf_counter() - churn_start

    exact = None
    if verify:
        exact = True
        for tenant in sorted(trees):
            replay = trees[tenant].copy()
            for op in streams[tenant]:
                replay.set_w(op[1], int(op[2]))
            if not matches_reference(service.result(tenant), bw_first(replay)):
                exact = False
    final = service.stop()
    memo_stats = final.get("memo") or {}

    federated = {
        "onboard_wall_s": onboard_wall,
        "onboard_evals": onboard_evals,
        "wall_s": churn_wall,
        "resolves": resolves,
        "mutations": tenants * mutations,
        "mutations_per_s": tenants * mutations / churn_wall,
        "template_clones": sum(
            s.get("template_clones", 0) for s in final["shards"].values()),
        "memo_round_trips": (memo_stats.get("round_trips", 0)
                             - memo_before.get("round_trips", 0)),
    }

    result = {
        "params": {
            "tenants": tenants, "shards": shards, "nodes": nodes,
            "templates": templates, "mutations": mutations, "batch": batch,
            "seed": seed, "memo": memo,
        },
        "exact": exact,
        "federated": federated,
        "memo": memo_stats,
        "cross_tenant_hits": memo_stats.get("cross_tenant_hits", 0),
    }
    if not isolated:
        return result

    # ---------------- isolated-full (the gate's baseline) ----------------
    full_trees = {t: trees[t].copy() for t in trees}
    start = time.perf_counter()
    full_evals = 0
    for tenant in sorted(full_trees):
        tree = full_trees[tenant]
        for op in streams[tenant]:
            tree.set_w(op[1], int(op[2]))
            res = bw_first(tree)
            full_evals += len(res.outcomes)
    full_wall = time.perf_counter() - start
    result["isolated_full"] = {
        "wall_s": full_wall,
        "resolves": tenants * mutations,
        "node_evals": full_evals,
        "mutations_per_s": tenants * mutations / full_wall,
    }

    # ---------------- isolated-incremental (the nearest baseline) ----------
    start = time.perf_counter()
    solvers = {}
    for tenant in sorted(trees):
        solvers[tenant] = IncrementalSolver(trees[tenant])
        solvers[tenant].rate()
    incr_onboard_wall = time.perf_counter() - start
    start = time.perf_counter()
    incr_evals = 0
    for tenant in sorted(trees):
        solver = solvers[tenant]
        for op in streams[tenant]:
            solver.set_w(op[1], int(op[2]))
            solver.rate()
            incr_evals += solver.last_evals
    incr_wall = time.perf_counter() - start
    result["isolated_incremental"] = {
        "onboard_wall_s": incr_onboard_wall,
        "wall_s": incr_wall,
        "resolves": tenants * mutations,
        "node_evals": incr_evals,
        "mutations_per_s": tenants * mutations / incr_wall,
    }
    result["speedup_vs_full"] = full_wall / churn_wall if churn_wall else None
    result["speedup_vs_incremental"] = (incr_wall / churn_wall
                                        if churn_wall else None)
    return result

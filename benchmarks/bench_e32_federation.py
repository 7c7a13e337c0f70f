"""E32 — multi-tenant federation: batched + shared re-solves under churn.

One scenario (templated tenant families under seeded leaf-weight churn),
three modes over identical trees and identical mutation streams — see
:mod:`repro.federation.bench` for the full determinism contract:

* **federated** — the sharded service: per-tenant mutations coalesced per
  batch window into one incremental re-solve, subtree solutions shared
  across a shard's tenants through its content-addressed memo store;
* **isolated-full** — the gate's baseline: one full ``bw_first`` per
  tenant per mutation, nothing shared, nothing batched;
* **isolated-incremental** — the nearest baseline: per-tenant
  incremental solvers in one process with no sharing (what shards,
  batching and the store buy over PR 4's incrementality alone).

The acceptance bar, asserted here:

* every tenant's served solution is **bit-exact** against a fresh
  ``bw_first`` on an independently replayed tree;
* the shared store reports **cross-tenant hits** on the templated
  families (one tenant replays another's published subtree solutions);
* federated churn wall-clock **strictly beats** the isolated-full
  baseline;
* the shards make **at most one memo round trip per re-solve** during the
  churn — a count, so it cannot flake (the per-``(fingerprint, β)``
  protocol it replaced made ≈ 10);
* best-of-3 federated churn wall-clock **strictly beats
  isolated-incremental** in the same run — a same-run ratio, no absolute
  ``wall_s`` (ROADMAP item 1b).
"""

from __future__ import annotations

from repro.federation.bench import run_federation_bench
from repro.util.text import render_table

from .conftest import emit

E32_PARAMS = dict(tenants=8, shards=2, nodes=240, templates=4,
                  mutations=20, batch=4, seed=1)


def test_e32_federation_gate():
    record = run_federation_bench(**E32_PARAMS)
    fed = record["federated"]
    full = record["isolated_full"]
    incr = record["isolated_incremental"]

    assert record["exact"] is True
    assert record["cross_tenant_hits"] > 0
    assert fed["wall_s"] < full["wall_s"]
    assert 0 < fed["memo_round_trips"] <= fed["resolves"]

    rows = [
        ["federated", f"{fed['wall_s']:.3f}",
         f"{fed['mutations_per_s']:.0f}", str(fed["resolves"])],
        ["isolated-incremental", f"{incr['wall_s']:.3f}",
         f"{incr['mutations_per_s']:.0f}", str(incr["resolves"])],
        ["isolated-full", f"{full['wall_s']:.3f}",
         f"{full['mutations_per_s']:.0f}", str(full["resolves"])],
    ]
    emit(
        f"E32: {E32_PARAMS['tenants']} tenants × {E32_PARAMS['mutations']} "
        f"mutations, {E32_PARAMS['nodes']}-node trees, "
        f"{E32_PARAMS['templates']} templates, {E32_PARAMS['shards']} shards "
        f"(seed {E32_PARAMS['seed']})",
        render_table(["mode", "churn wall s", "mutations/s", "re-solves"],
                     rows)
        + f"\nspeedup vs isolated-full ×{record['speedup_vs_full']:.2f}"
        f" · vs isolated-incremental ×{record['speedup_vs_incremental']:.2f}"
        f" · cross-tenant hits {record['cross_tenant_hits']}"
        f" · memo round trips {fed['memo_round_trips']}"
        f" · template clones {fed['template_clones']}",
    )


def test_e32_federated_over_isolated_incremental_ratio_gate():
    """Best-of-3, both sides from the same runs: the federation has to beat
    the plain in-process incremental solvers it is built from."""
    records = [run_federation_bench(**E32_PARAMS, verify=False)
               for _ in range(3)]
    fed = min(r["federated"]["wall_s"] for r in records)
    incr = min(r["isolated_incremental"]["wall_s"] for r in records)
    emit("E32: federated vs isolated-incremental churn wall, best of 3",
         f"federated {fed:.3f} s · isolated-incremental {incr:.3f} s"
         f" · ratio {fed / incr:.2f}")
    assert fed < incr

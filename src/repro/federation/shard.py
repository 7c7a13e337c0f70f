"""One shard worker: a process owning the solvers of its tenants.

The worker speaks framed JSON (the runtime codec's length+CRC32 framing,
exact ``"n/d"`` rationals) over a duplex pipe with the federation
service, one request at a time:

* ``onboard`` — build an :class:`~repro.core.incremental.IncrementalSolver`
  for a tenant from its serialised tree and, unless told not to, answer
  its rate (like ``batch``, below).  Trees are canonicalised and
  remembered: a later tenant onboarding an *identical* tree clones the
  first one's solver (:meth:`~repro.core.incremental.IncrementalSolver.clone`)
  instead of re-fingerprinting from scratch — the template fast path;
* ``batch`` — the coalesced flush: a list of per-tenant requests, each
  carrying *all* of that tenant's pending mutations and asking for one
  solve, answered by rate
  (:meth:`~repro.core.incremental.IncrementalSolver.rate`: the reply
  carries only ``throughput`` / ``t_max``, so no outcome or transaction
  is built).  Applying the ops back to back re-fingerprints each dirty
  root-path once per op but solves only once, which is the point of the
  batch window.  An optional ``candidates`` list invokes cache-aware
  proposal planning (:func:`~repro.protocol.plan_proposal`).  A tenant
  whose ops or solve fail is reported in its own result (``error``, the
  failing ``op``) and the batch's other tenants are still served;
* ``result`` — the tenant's full current solution (outcomes +
  transactions), used by exactness verification.  It re-solves with
  :meth:`~repro.core.incremental.IncrementalSolver.solve`, which by then
  is a pure cache replay;
* ``stats`` / ``chaos`` / ``shutdown`` — introspection, the crash-test
  hook (die mid-batch after applying ops, before acking — exactly the
  window the service's retry must cover), and orderly exit.

Every solver on the shard shares the shard's one
:class:`~repro.federation.memo.MemoState` (through
:class:`_ShardMemo`), so a subtree solved for any of the shard's tenants
answers its other tenants' identical subtrees too.  What a request's
solves publish enters the store *after* the reply is on the pipe and
before the next request is read: off the mutation's critical path, yet
seen by every later request.  A respawned worker starts with an empty
store.

Requests are idempotent from the service's point of view because the
service only advances its authoritative per-tenant state on *ack*: a
worker that dies mid-batch is respawned, re-onboarded from authoritative
trees and the batch replayed verbatim.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from ..core.incremental import IncrementalSolver
from ..platform.serialization import tree_from_dict, tree_to_dict
from ..protocol.planner import plan_proposal
from ..runtime.codec import parse_rational
from .memo import MemoState
from .wire import recv_frame, send_frame


def result_payload(result) -> dict:
    """Serialise a BWFirstResult for the wire: exact rationals as strings,
    outcomes in the tree's preorder, transactions in open order."""
    return {
        "throughput": str(result.throughput),
        "t_max": str(result.t_max),
        "outcomes": [
            [str(node), str(o.lam), str(o.alpha), str(o.theta), str(o.tau)]
            for node, o in sorted(result.outcomes.items(),
                                  key=lambda kv: str(kv[0]))
        ],
        "transactions": [
            [t.index, str(t.parent), str(t.child), str(t.proposal), str(t.ack)]
            for t in result.transactions
        ],
    }


class _ShardMemo:
    """The shard's store as its solvers see it: ``fetch`` and ``betas`` go
    straight through, ``publish`` only queues, and the shard decides when
    :meth:`flush` merges the queue in — after the reply is on the pipe.

    A fetch does not flush.  Within one batch a shard's tenants therefore
    do not see each other's solutions *of that batch* through the store
    (from the next request on they do); flushing before every fetch would
    put all but the last solve's publish back in front of the ack.
    """

    def __init__(self):
        self.store = MemoState()
        self.fetch = self.store.fetch
        self.betas = self.store.betas
        self._unsent: List[tuple] = []  # (tenant, updates) per solve

    def publish(self, updates, tenant=None) -> None:
        self._unsent.append((tenant, updates))

    def flush(self) -> None:
        unsent, self._unsent = self._unsent, []
        for tenant, updates in unsent:
            self.store.publish(updates, tenant=tenant)


class _ShardState:
    """The worker's in-process state: per-tenant solvers + templates."""

    def __init__(self, shard_id: str, shared: Optional[_ShardMemo]):
        self.shard_id = shard_id
        self.shared = shared
        self.solvers: Dict[str, IncrementalSolver] = {}
        # canonical tree JSON → a pristine (never-mutated) solver to clone
        self.templates: Dict[str, IncrementalSolver] = {}
        self.die_in_batches = 0
        self.stats = {
            "onboards": 0, "template_clones": 0, "batches": 0,
            "resolves": 0, "mutations": 0, "evals": 0,
        }

    def onboard(self, tenant: str, tree_data: dict, solve: bool) -> dict:
        tree = tree_from_dict(tree_data)
        canon = json.dumps(tree_to_dict(tree), sort_keys=True,
                           separators=(",", ":"))
        template = self.templates.get(canon)
        if template is not None:
            solver = template.clone(tenant=tenant)
            self.stats["template_clones"] += 1
        else:
            solver = IncrementalSolver(tree, shared=self.shared, tenant=tenant)
            # the pristine master keeps only fingerprints; cloning it later
            # skips the full fingerprint pass for same-template tenants
            self.templates[canon] = solver.clone(tenant=None)
        self.solvers[tenant] = solver
        self.stats["onboards"] += 1
        summary = {"tenant": tenant, "nodes": len(list(solver.tree.nodes()))}
        if solve:
            t_max, throughput = solver.rate()
            self.stats["resolves"] += 1
            self.stats["evals"] += solver.last_evals
            summary.update(throughput=str(throughput), t_max=str(t_max),
                           evals=solver.last_evals)
        return summary

    def _apply_op(self, solver: IncrementalSolver, op) -> None:
        kind = op[0]
        if kind == "set_w":
            solver.set_w(op[1], parse_rational(op[2]))
        elif kind == "set_c":
            solver.set_c(op[1], parse_rational(op[2]))
        elif kind == "prune":
            solver.prune(op[1])
        elif kind == "graft":
            solver.graft(op[1], parse_rational(op[2]), tree_from_dict(op[3]))
        else:
            raise ValueError(f"unknown mutation op {kind!r}")

    def batch(self, reqs: list) -> list:
        self.stats["batches"] += 1
        results = []
        for req in reqs:
            tenant = req["tenant"]
            op = None
            try:
                solver = self.solvers[tenant]
                for op in req.get("ops", ()):
                    self._apply_op(solver, op)
                    self.stats["mutations"] += 1
                op = None
                proposal = None
                candidates = req.get("candidates")
                if candidates:
                    proposal = plan_proposal(
                        solver, [parse_rational(c) for c in candidates],
                        shared=self.shared)
                t_max, throughput = solver.rate(proposal)
            except Exception as exc:  # contained: one bad tenant ≠ a bad batch
                results.append({"tenant": tenant, "op": op,
                                "error": f"{type(exc).__name__}: {exc}"})
                continue
            self.stats["resolves"] += 1
            self.stats["evals"] += solver.last_evals
            results.append({
                "tenant": tenant,
                "throughput": str(throughput),
                "t_max": str(t_max),
                "proposal": None if proposal is None else str(proposal),
                "evals": solver.last_evals,
            })
        return results

    def snapshot(self) -> dict:
        info = dict(self.stats)
        info["shard"] = self.shard_id
        info["tenants"] = len(self.solvers)
        info["memo"] = None if self.shared is None else self.shared.store.snapshot()
        solver_stats: Dict[str, int] = {}
        for solver in self.solvers.values():
            for key, value in solver.stats.items():
                solver_stats[key] = solver_stats.get(key, 0) + value
        info["solver"] = solver_stats
        return info


def shard_main(conn, shard_id: str, memo: bool) -> None:
    """The worker process entry point: serve framed requests until
    ``shutdown`` or the pipe closes.  *memo* gives the shard its store."""
    shared = _ShardMemo() if memo else None
    state = _ShardState(shard_id, shared)
    while True:
        try:
            request = recv_frame(conn)
        except (EOFError, OSError):
            break
        op = request.get("t")
        try:
            if op == "onboard":
                reply = {"t": "ok", "summary": state.onboard(
                    request["tenant"], request["tree"],
                    bool(request.get("solve", True)))}
            elif op == "batch":
                if state.die_in_batches:
                    state.die_in_batches -= 1
                    if state.die_in_batches == 0:
                        # the crash-test window: ops applied, ack never
                        # sent — the service must respawn and replay
                        state.batch(request["reqs"])
                        os._exit(1)
                reply = {"t": "ok", "results": state.batch(request["reqs"])}
            elif op == "result":
                solver = state.solvers[request["tenant"]]
                reply = {"t": "ok",
                         "result": result_payload(solver.solve())}
            elif op == "stats":
                reply = {"t": "ok", "stats": state.snapshot()}
            elif op == "chaos":
                state.die_in_batches = int(request.get("die_in_batches", 1))
                reply = {"t": "ok"}
            elif op == "shutdown":
                send_frame(conn, {"t": "ok"})
                break
            else:
                reply = {"t": "err", "error": f"unknown shard op {op!r}"}
        except Exception as exc:  # contained: one bad request ≠ a dead shard
            reply = {"t": "err", "error": f"{type(exc).__name__}: {exc}"}
        try:
            send_frame(conn, reply)
        except (BrokenPipeError, OSError):
            break
        if shared is not None:
            shared.flush()  # after the ack: off the mutation's critical path

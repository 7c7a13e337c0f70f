"""The federation service: shards, batch windows, crash recovery.

:class:`FederationService` is the long-lived front door.  It owns

* the **ring** — a consistent hash of tenant ids onto shard worker
  processes (:class:`~repro.federation.ring.HashRing`), so placement is a
  pure function every process agrees on;
* the **authoritative state** — a per-tenant platform tree plus the list
  of mutations not yet acknowledged by the owning shard.  Mutations are
  *queued* by :meth:`mutate` and only applied to the authoritative tree
  when the shard acks the batch that carried them, which is what makes a
  mid-batch worker crash recoverable: respawn, re-onboard the shard's
  tenants from authoritative trees, replay the pending batch verbatim;
* the **batch windows** — :meth:`flush` coalesces every pending mutation
  per tenant into one request and sends *one* framed message per shard
  (all shards in flight concurrently, replies collected after), so a
  flush costs one round trip per shard regardless of tenant count.
  :meth:`serve` runs flushes on a wall-clock window for the live service;
  benches call :meth:`flush` explicitly for determinism;
* the **memo stores** — each shard worker owns one cross-tenant solution
  store (:class:`~repro.federation.memo.MemoState`) shared by its
  tenants' solvers; :meth:`stats` sums their counters.

Telemetry (optional): ``federation.resolves`` / ``federation.mutations``
/ ``federation.batches`` counters labelled per shard,
``federation.respawns`` on crash recovery, and ``federation.tenants`` /
``federation.memo.*`` gauges refreshed by :meth:`stats` — the dash's
federation panel reads exactly these.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from ..exceptions import PlatformError, ProtocolError
from ..platform.serialization import tree_from_dict, tree_to_dict
from ..platform.tree import Tree
from ..runtime.codec import parse_rational
from .ring import HashRing
from .shard import shard_main
from .wire import recv_frame_timeout, send_frame

#: Seconds a shard gets to answer one request before it is declared dead.
SHARD_TIMEOUT = 120.0


class _Tenant:
    __slots__ = ("name", "tree", "pending", "shard")

    def __init__(self, name: str, tree: Tree, shard):
        self.name = name
        self.tree = tree
        self.pending: List[list] = []
        self.shard = shard


class _Shard:
    """The service-side handle of one worker process."""

    def __init__(self, shard_id: str, memo: bool):
        self.shard_id = shard_id
        self.memo = memo
        self.process = None
        self.conn = None
        self.respawns = -1  # first spawn is not a respawn
        self.spawn()

    def spawn(self) -> None:
        import multiprocessing as mp
        parent, child = mp.Pipe()
        self.process = mp.Process(
            target=shard_main,
            args=(child, self.shard_id, self.memo),
            daemon=True, name=f"repro-shard-{self.shard_id}",
        )
        self.process.start()
        child.close()
        self.conn = parent
        self.respawns += 1

    def request(self, payload: dict, timeout: float = SHARD_TIMEOUT) -> dict:
        """One framed round trip; raises ``ProtocolError`` when the worker
        is dead or silent (the caller's signal to respawn and retry)."""
        try:
            send_frame(self.conn, payload)
            reply = recv_frame_timeout(self.conn, timeout)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise ProtocolError(
                f"shard {self.shard_id} died mid-request") from exc
        if reply is None:
            raise ProtocolError(f"shard {self.shard_id} timed out")
        if reply.get("t") == "err":
            raise PlatformError(
                f"shard {self.shard_id}: {reply.get('error')}")
        return reply

    def stop(self) -> None:
        try:
            send_frame(self.conn, {"t": "shutdown"})
            recv_frame_timeout(self.conn, 2.0)
        except (BrokenPipeError, EOFError, OSError):
            pass
        self.process.join(timeout=2)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2)
        self.conn.close()


class FederationService:
    """Serve many tenant trees from sharded workers with a shared cache.

    *memo* selects the cross-tenant store: ``"service"`` (the default)
    gives every shard worker one store shared by its tenants, ``None``
    gives it none.
    """

    def __init__(self, shards: int = 2, memo: Optional[str] = "service",
                 telemetry=None, batch_window: float = 0.05,
                 max_retries: int = 2):
        if shards < 1:
            raise PlatformError("a federation needs at least one shard")
        self._telemetry = telemetry
        self._batch_window = batch_window
        self._max_retries = max_retries
        if memo not in ("service", None):
            raise PlatformError(f"unknown memo mode {memo!r}")
        self._memo = memo is not None
        shard_ids = [f"s{i}" for i in range(shards)]
        self.ring = HashRing(shard_ids)
        self._shards: Dict[str, _Shard] = {
            sid: _Shard(sid, self._memo) for sid in shard_ids
        }
        self._tenants: Dict[str, _Tenant] = {}
        self._lock = threading.RLock()
        self._serve_thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self.stats_totals = {"flushes": 0, "resolves": 0, "mutations": 0,
                             "respawns": 0, "retries": 0}

    # ------------------------------------------------------------------
    # telemetry plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1, **labels) -> None:
        if amount and self._telemetry is not None:
            self._telemetry.counter(name, **labels).inc(amount)

    def _gauge(self, name: str, value, **labels) -> None:
        if self._telemetry is not None:
            self._telemetry.gauge(name, **labels).set(value)

    # ------------------------------------------------------------------
    # tenant lifecycle
    # ------------------------------------------------------------------
    def onboard(self, tenant: str, tree: Tree, solve: bool = True) -> dict:
        """Place *tenant* on its ring shard and (optionally) solve once.

        The tree is canonicalised through the wire form, so the service's
        authoritative copy is exactly what the shard solves.
        """
        with self._lock:
            if tenant in self._tenants:
                raise PlatformError(f"tenant {tenant!r} already onboarded")
            data = tree_to_dict(tree)
            canonical = tree_from_dict(data)
            shard_id = self.ring.shard_for(tenant)
            reply = self._request_with_retry(shard_id, {
                "t": "onboard", "tenant": tenant, "tree": data,
                "solve": solve,
            })
            self._tenants[tenant] = _Tenant(tenant, canonical, shard_id)
            self._gauge("federation.tenants",
                        sum(1 for t in self._tenants.values()
                            if t.shard == shard_id), shard=shard_id)
            summary = reply["summary"]
            if "throughput" in summary:
                self._count("federation.resolves", shard=shard_id)
                self.stats_totals["resolves"] += 1
            return summary

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def tree(self, tenant: str) -> Tree:
        """The authoritative (acknowledged) platform of *tenant*."""
        with self._lock:
            return self._tenants[tenant].tree.copy()

    # ------------------------------------------------------------------
    # mutations + batching
    # ------------------------------------------------------------------
    def mutate(self, tenant: str, *ops: Sequence) -> None:
        """Queue mutation *ops* (``["set_w", node, "n/d"]``-style wire ops)
        for the next flush.  Nothing is applied until the owning shard
        acknowledges the batch carrying them."""
        with self._lock:
            state = self._tenants[tenant]
            for op in ops:
                state.pending.append(list(op))
            self._count("federation.mutations", len(ops), shard=state.shard)
            self.stats_totals["mutations"] += len(ops)

    @staticmethod
    def _apply_to_tree(tree: Tree, op: list) -> None:
        kind = op[0]
        if kind == "set_w":
            tree.set_w(op[1], parse_rational(op[2]))
        elif kind == "set_c":
            tree.set_c(op[1], parse_rational(op[2]))
        elif kind == "prune":
            tree.remove_subtree(op[1])
        elif kind == "graft":
            tree.add_subtree(op[1], parse_rational(op[2]),
                             tree_from_dict(op[3]))
        else:
            raise PlatformError(f"unknown mutation op {kind!r}")

    def flush(self, candidates: Optional[Dict[str, list]] = None) -> List[dict]:
        """Send every pending mutation in one coalesced batch per shard.

        Returns one result dict per re-solved tenant (wire rationals
        parsed back to exact :class:`~fractions.Fraction`).  *candidates*
        optionally maps tenant → admissible proposal list for cache-aware
        planning.  All shard requests are in flight concurrently; a dead
        worker is respawned, its tenants re-onboarded and its batch
        replayed, up to ``max_retries`` times.

        A tenant whose ops the shard could not apply does not hold the
        others back: every other tenant is acknowledged and applied as
        usual, the offender's pending ops are dropped and its shard-side
        solver is rebuilt from the authoritative tree, and only then a
        :class:`~repro.exceptions.PlatformError` naming tenant and op is
        raised.
        """
        with self._lock:
            per_shard: Dict[str, List[dict]] = {}
            for tenant in sorted(self._tenants):
                state = self._tenants[tenant]
                if not state.pending:
                    continue
                req = {"tenant": tenant, "ops": [list(o) for o in state.pending]}
                if candidates and tenant in candidates:
                    req["candidates"] = [str(c) for c in candidates[tenant]]
                per_shard.setdefault(state.shard, []).append(req)
            if not per_shard:
                return []
            self.stats_totals["flushes"] += 1
            # send every shard its batch first, then collect: the flush
            # costs max-over-shards, not sum-over-shards
            pending_replies: Dict[str, dict] = {}
            for shard_id, reqs in per_shard.items():
                payload = {"t": "batch", "reqs": reqs}
                try:
                    send_frame(self._shards[shard_id].conn, payload)
                    pending_replies[shard_id] = payload
                except (BrokenPipeError, OSError):
                    pending_replies[shard_id] = payload  # dead: retry below
            results: List[dict] = []
            failures: List[str] = []
            for shard_id, payload in pending_replies.items():
                reply = self._collect_or_retry(shard_id, payload)
                batch_results = reply["results"]
                served = sum("error" not in item for item in batch_results)
                self._count("federation.resolves", served, shard=shard_id)
                self._count("federation.batches", shard=shard_id)
                self.stats_totals["resolves"] += served
                for item in batch_results:
                    state = self._tenants[item["tenant"]]
                    if "error" in item:
                        failures.append(
                            f"tenant {state.name!r}: op {item.get('op')!r} "
                            f"failed on shard {shard_id}: {item['error']}")
                        state.pending.clear()
                        self._onboard_on_shard(state)
                        continue
                    for op in state.pending:
                        self._apply_to_tree(state.tree, op)
                    state.pending.clear()
                    results.append({
                        "tenant": item["tenant"],
                        "throughput": parse_rational(item["throughput"]),
                        "t_max": parse_rational(item["t_max"]),
                        "proposal": (None if item.get("proposal") is None
                                     else parse_rational(item["proposal"])),
                        "evals": item["evals"],
                        "shard": shard_id,
                    })
            if failures:
                raise PlatformError("; ".join(failures))
            return results

    def _collect_or_retry(self, shard_id: str, payload: dict) -> dict:
        shard = self._shards[shard_id]
        try:
            reply = recv_frame_timeout(shard.conn, SHARD_TIMEOUT)
            if reply is None:
                raise ProtocolError(f"shard {shard_id} timed out")
            if reply.get("t") == "err":
                raise PlatformError(f"shard {shard_id}: {reply.get('error')}")
            return reply
        except (BrokenPipeError, EOFError, OSError, ProtocolError):
            return self._request_with_retry(shard_id, payload)

    def _request_with_retry(self, shard_id: str, payload: dict) -> dict:
        """Issue *payload*, respawning the worker and replaying on death."""
        shard = self._shards[shard_id]
        last_exc: Optional[BaseException] = None
        for attempt in range(self._max_retries + 1):
            if attempt or not shard.process.is_alive():
                self._respawn(shard_id)
            try:
                return shard.request(payload)
            except ProtocolError as exc:
                last_exc = exc
                self.stats_totals["retries"] += 1
                self._count("federation.retries", shard=shard_id)
                continue
        raise ProtocolError(
            f"shard {shard_id} failed after {self._max_retries + 1} attempts"
        ) from last_exc

    def _respawn(self, shard_id: str) -> None:
        """Replace a dead worker and rebuild its tenants from authoritative
        state (trees reflect only *acknowledged* mutations, so the pending
        batch replays on exactly the platform the old worker last acked)."""
        shard = self._shards[shard_id]
        if shard.process.is_alive():
            shard.process.terminate()
            shard.process.join(timeout=2)
        try:
            shard.conn.close()
        except OSError:
            pass
        shard.spawn()
        self.stats_totals["respawns"] += 1
        self._count("federation.respawns", shard=shard_id)
        for tenant in sorted(self._tenants):
            state = self._tenants[tenant]
            if state.shard == shard_id:
                self._onboard_on_shard(state)

    def _onboard_on_shard(self, state: _Tenant) -> None:
        """(Re)build *state*'s shard-side solver from its authoritative
        tree, unsolved: the next batch or ``result`` solves it."""
        self._shards[state.shard].request({
            "t": "onboard", "tenant": state.name,
            "tree": tree_to_dict(state.tree), "solve": False})

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def result(self, tenant: str) -> dict:
        """The tenant's full current solution (wire form: exact strings)."""
        with self._lock:
            state = self._tenants[tenant]
            reply = self._request_with_retry(state.shard, {
                "t": "result", "tenant": tenant})
            return reply["result"]

    def chaos_kill(self, tenant_or_shard: str, batches: int = 1) -> str:
        """Arm the crash-test hook: the owning worker exits mid-batch
        (after applying ops, before acking) in *batches* flushes."""
        with self._lock:
            shard_id = (tenant_or_shard if tenant_or_shard in self._shards
                        else self._tenants[tenant_or_shard].shard)
            self._shards[shard_id].request(
                {"t": "chaos", "die_in_batches": batches})
            return shard_id

    def stats(self) -> dict:
        """Service + per-shard + memo statistics; refreshes the federation
        gauges the dash panel reads.  ``memo`` sums the live shards'
        stores (a respawned shard's counters start from zero), or is
        ``None`` without stores."""
        with self._lock:
            shards = {}
            for shard_id in sorted(self._shards):
                try:
                    reply = self._shards[shard_id].request({"t": "stats"},
                                                           timeout=10.0)
                    shards[shard_id] = reply["stats"]
                except (ProtocolError, PlatformError):
                    shards[shard_id] = {"shard": shard_id, "dead": True}
            memo = None
            if self._memo:
                memo = {}
                for info in shards.values():
                    for key, value in (info.get("memo") or {}).items():
                        memo[key] = memo.get(key, 0) + value
            if memo:
                self._gauge("federation.memo.hits", memo["hits"])
                self._gauge("federation.memo.misses", memo["misses"])
                self._gauge("federation.memo.cross_tenant_hits",
                            memo["cross_tenant_hits"])
                self._gauge("federation.memo.entries", memo["entries"])
            return {
                "service": dict(self.stats_totals,
                                tenants=len(self._tenants),
                                shards=len(self._shards)),
                "shards": shards,
                "memo": memo,
            }

    # ------------------------------------------------------------------
    # serve mode + shutdown
    # ------------------------------------------------------------------
    def serve(self) -> None:
        """Start the wall-clock batch window: pending mutations flush every
        ``batch_window`` seconds until :meth:`stop`."""
        if self._serve_thread is not None:
            return

        def _loop() -> None:
            while not self._stop_event.wait(self._batch_window):
                try:
                    self.flush()
                except (ProtocolError, PlatformError):
                    continue  # surfaced via stats/telemetry; keep serving

        self._stop_event.clear()
        self._serve_thread = threading.Thread(target=_loop, daemon=True,
                                              name="repro-federation-flush")
        self._serve_thread.start()

    def stop(self) -> dict:
        """Stop serving and shut every worker down.  Returns the final
        :meth:`stats` snapshot."""
        self._stop_event.set()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5)
            self._serve_thread = None
        with self._lock:
            final = self.stats()
            for shard in self._shards.values():
                shard.stop()
            return final

    def __enter__(self) -> "FederationService":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def matches_reference(payload: dict, result) -> bool:
    """Does a shard's wire solution equal a locally computed
    :class:`~repro.core.bwfirst.BWFirstResult` bit for bit?

    Compares throughput, t_max, every node outcome and the full
    transaction log (indices included) — the federation's exactness gate.
    """
    from .shard import result_payload
    return payload == result_payload(result)

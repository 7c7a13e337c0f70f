"""The shared cross-tenant memo service.

One content-addressed store of ``digest → {sat, thr, exact{β: sol}}``
entries, shared by every shard.  Solutions are held in the solver's int
wire form (:func:`~repro.core.incremental.sol_to_wire`), thresholds and β
as ``(num, den)`` pairs:

* the **state** (:class:`MemoState`) implements the merge discipline —
  a saturated solution only replaces one with a *lower* threshold, exact
  memos accumulate up to a per-entry cap, and whole entries are evicted
  FIFO past ``max_entries`` (a memory bound, never a correctness issue:
  an evicted entry is merely recomputed by the next tenant to need it);
* the **service** (:class:`MemoService`) runs that state in its own
  process behind a ``multiprocessing.connection.Listener`` on an
  ``AF_UNIX`` socket, one thread per client — a *socket* rather than a
  pipe so a respawned shard worker can reconnect to the live store
  (pipe ends cannot be handed to an already-running process);
* the **client** (:class:`SharedMemoClient`) is the solver-facing half:
  it satisfies :class:`~repro.core.incremental.IncrementalSolver`'s
  shared-store protocol — a batched ``fetch`` (one round trip) and a
  batched ``publish`` (one frame, no reply) — plus the planner's ``betas``
  query.  The store is a cache: a dead socket means "no store", never a
  failed solve;
* :class:`InlineMemoStore` wraps the same state in-process for tests,
  single-process federations and the bench's deterministic mode.

Cross-tenant accounting is the store's job because only it sees both
sides: every digest remembers which tenants published into it, and a
fetch hit from a tenant that never contributed counts as a
``cross_tenant_hit`` — the number the E32 gate asserts is positive on
templated tenant families.

Solutions are exact rationals end to end (the solver's wire form, decoded
fail-closed by the fetching solver); a hit on one tenant's subtree replays
bit-identically for another tenant, which is what makes sharing sound —
content equality implies solution equality.
"""

from __future__ import annotations

import os
import tempfile
import threading
from fractions import Fraction
from multiprocessing import Process, current_process
from multiprocessing.connection import Client, Listener
from typing import Dict, Iterable, List, Optional, Set

from ..core.incremental import sol_to_wire
from ..exceptions import PlatformError

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

    Not thread-safe; callers serialise (the service holds one lock across
    client threads, the inline store its own).
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
    """The in-process flavour: same protocol, same state, no sockets.

    Useful for tests, deterministic benches and single-process
    federations; also exactly what two solvers in one process need to
    share solutions (the shared-subtree property test).
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


def _serve_client(conn, state: MemoState, lock: threading.Lock) -> None:
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                return
            op = request.get("t")
            with lock:
                if op == "fetch":
                    reply = state.fetch(request["d"], tenant=request.get("tenant"))
                elif op == "publish":
                    # no reply frame: the connection is FIFO, so a later
                    # fetch on it is ordered after these publishes anyway
                    for tenant, updates in request["u"]:
                        state.publish(updates, tenant=tenant)
                    continue
                elif op == "betas":
                    reply = state.betas(request["d"])
                elif op == "stats":
                    reply = state.snapshot()
                else:
                    reply = {"error": f"unknown memo op {op!r}"}
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _memo_main(address: str, authkey: bytes, max_entries: int,
               exact_cap: int) -> None:
    state = MemoState(max_entries=max_entries, exact_cap=exact_cap)
    lock = threading.Lock()
    with Listener(address, "AF_UNIX", authkey=authkey) as listener:
        while True:
            try:
                conn = listener.accept()
            except (OSError, EOFError):
                continue
            thread = threading.Thread(target=_serve_client,
                                      args=(conn, state, lock), daemon=True)
            thread.start()


class SharedMemoClient:
    """One process's handle on the memo service.

    Satisfies the solver's shared-store protocol plus the planner's
    ``betas`` query.  ``fetch`` is one request/reply round trip for a whole
    batch of digests; ``publish`` serialises and writes one frame with no
    reply — the connection is FIFO, so any later fetch on it is ordered
    after the publish on the server anyway.  :meth:`publish_groups` writes
    several solves' publishes as one frame (a shard's batch, see
    :class:`~repro.federation.shard._ShardMemo`).

    The store is a cache, so a dead or broken socket is never an error to
    the caller: the call is counted in :attr:`errors`, the connection is
    dropped, and from then on fetches find nothing and publishes go
    nowhere.
    """

    def __init__(self, address: str, authkey: bytes):
        self.errors = 0
        self._lock = threading.Lock()
        try:
            self._conn = Client(address, "AF_UNIX", authkey=authkey)
        except OSError:
            self._conn = None
            self.errors += 1

    def _call(self, request: dict, reply: bool = True):
        with self._lock:
            try:
                if self._conn is None:
                    raise OSError("memo connection is closed")
                self._conn.send(request)
                return self._conn.recv() if reply else None
            except (EOFError, OSError):
                self.errors += 1
                self.close()
                return None

    def fetch(self, digests: Iterable[str],
              tenant: Optional[str] = None) -> Dict[str, dict]:
        return self._call({"t": "fetch", "d": list(digests),
                           "tenant": tenant}) or {}

    def publish(self, updates: Iterable, tenant: Optional[str] = None) -> None:
        self.publish_groups([(tenant, updates)])

    def publish_groups(self, groups: Iterable[tuple]) -> None:
        """Write ``(tenant, updates)`` *groups* as one frame."""
        self._call({"t": "publish", "u": [
            (tenant, wire_updates(updates)) for tenant, updates in groups
        ]}, reply=False)

    def betas(self, digest: str) -> dict:
        return self._call({"t": "betas", "d": digest}) or {}

    def stats(self) -> Optional[dict]:
        return self._call({"t": "stats"})

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None


class MemoService:
    """The memo state in its own process, reachable over an AF_UNIX socket.

    The parent starts it once; every shard (including respawned ones)
    connects with :meth:`client` / the ``(address, authkey)`` pair handed
    to worker processes.  :meth:`stop` drains final stats and terminates
    the process — the store is a cache, there is nothing to flush.
    """

    def __init__(self, max_entries: int = MAX_ENTRIES, exact_cap: int = 64):
        self._dir = tempfile.mkdtemp(prefix="repro-memo-")
        self.address = os.path.join(self._dir, "memo.sock")
        self.authkey = bytes(current_process().authkey)
        self._process = Process(
            target=_memo_main,
            args=(self.address, self.authkey, max_entries, exact_cap),
            daemon=True, name="repro-memo",
        )
        self._process.start()
        self._client: Optional[SharedMemoClient] = None
        # wait for the listener to bind (the socket path appears)
        for _ in range(2000):
            if os.path.exists(self.address):
                break
            if not self._process.is_alive():
                raise PlatformError("memo service died during startup")
            threading.Event().wait(0.005)
        else:
            raise PlatformError("memo service never bound its socket")

    def client(self) -> SharedMemoClient:
        return SharedMemoClient(self.address, self.authkey)

    def stats(self) -> Optional[dict]:
        """The store's counters, or ``None`` when the process is gone."""
        if self._client is None:
            self._client = self.client()
        return self._client.stats()

    def stop(self) -> dict:
        """Drain final stats, terminate the process, clean up the socket."""
        final = self.stats() or {}
        self._client.close()
        self._client = None
        self._process.terminate()
        self._process.join(timeout=5)
        try:
            os.unlink(self.address)
            os.rmdir(self._dir)
        except OSError:
            pass
        return final

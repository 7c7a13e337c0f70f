"""Tests for the multi-tenant federation layer (PR 10).

The load-bearing contract is *exactness through sharing*: two distinct
tenant trees that contain an identical subtree must produce bit-exact
BW-First solutions when solved through the shared memo store, with the
second tenant replaying the first tenant's published solutions
(``incr.hit.shared`` > 0) instead of recomputing them.  On top of that:
the consistent-hash ring, the framed wire codec, the memo merge
discipline, solutions held as the solvers' own objects and the
solver's fail-closed intake of a store entry, the store protocol (one ask
and one publish per solve), the cache-aware proposal
planner, the memo-cap knobs, the clone fast path, request batching, the
store each shard owns, crash recovery of a shard worker killed mid-batch
and one tenant's bad op contained to that tenant.
"""

import json
import multiprocessing
import random
import threading
from fractions import Fraction
from itertools import count, islice

import pytest

from repro.core.bwfirst import bw_first
from repro.core.incremental import IncrementalSolver, MEMO_CAP_ENV, _Sol
from repro.exceptions import (CodecError, PlatformError, ProtocolError,
                              ScheduleError)
from repro.federation import FederationService, HashRing, matches_reference
from repro.federation import wire
from repro.federation.memo import MemoState
from repro.federation.wire import decode_blob
from repro.platform.generators import chain, random_tree, smooth_tree
from repro.platform.tree import Tree
from repro.protocol import plan_proposal
from repro.runtime.codec import encode_blob
from repro.telemetry.core import Registry

F = Fraction


# ----------------------------------------------------------------------
# the shared-subtree construction
# ----------------------------------------------------------------------
# BW-First seeds the root with t_max = r_root + max{b_i} and proposes
# β = min(δ, τ·b) to the first-opened child, where δ = t_max − r_root =
# max{b_i} and τ = 1.  If the shared subtree is attached with strictly
# the smallest c (highest bandwidth) among the root's children, the β it
# receives is exactly its own bandwidth 1/c — *independent of the rest of
# the tree*.  Attaching the same subtree with the same c to two different
# roots therefore guarantees identical (digest, β) pairs at every node of
# the shared subtree, which is what makes the cross-tenant hit certain.

SHARED_C = F(1, 50)  # bandwidth 50 — far above any tail edge


def _tenant_tree(root_w, shared, tail, tail_c) -> Tree:
    tree = Tree("root", w=root_w)
    tree.add_subtree("root", SHARED_C, shared)
    tree.add_subtree("root", tail_c, tail)
    return tree


def _shared_pair(seed: int):
    """Two distinct tenant trees embedding one identical random subtree."""
    shared = random_tree(12, seed=seed, w_numerator_range=(2, 30),
                         c_numerator_range=(1, 5))
    shared = shared.relabel({n: f"s{n}" for n in shared.nodes()})
    tail_a = random_tree(8, seed=seed + 1000).relabel(
        {n: f"a{n}" for n in random_tree(8, seed=seed + 1000).nodes()})
    tail_b = random_tree(9, seed=seed + 2000).relabel(
        {n: f"b{n}" for n in random_tree(9, seed=seed + 2000).nodes()})
    tree_a = _tenant_tree(F(3), shared.copy(), tail_a, F(2))
    tree_b = _tenant_tree(F(5), shared.copy(), tail_b, F(3))
    return tree_a, tree_b


def assert_exact(solver, tree):
    ref = bw_first(tree)
    got = solver.solve()
    assert got.throughput == ref.throughput
    assert got.outcomes == ref.outcomes
    assert got.transactions == ref.transactions


class TestSharedSubtreeProperty:
    @pytest.mark.parametrize("seed", range(10))
    def test_cross_tenant_replay_is_bit_exact(self, seed):
        tree_a, tree_b = _shared_pair(seed)
        store = MemoState()
        registry = Registry()
        solver_a = IncrementalSolver(tree_a, shared=store, tenant="a",
                                     shared_min_size=1)
        assert_exact(solver_a, tree_a)
        solver_b = IncrementalSolver(tree_b, telemetry=registry, shared=store,
                                     tenant="b", shared_min_size=1)
        assert_exact(solver_b, tree_b)
        assert solver_b.stats["hits_shared"] > 0
        assert registry.value("incr.hit.shared") > 0
        assert store.stats["cross_tenant_hits"] > 0

    def test_size_window_gates_fetch_and_publish(self):
        tree_a, tree_b = _shared_pair(42)
        store = MemoState()
        solver_a = IncrementalSolver(tree_a, shared=store, tenant="a",
                                     shared_min_size=len(tree_a) + 1)
        solver_a.solve()
        assert solver_a.stats["shared_publishes"] == 0
        solver_b = IncrementalSolver(tree_b, shared=store, tenant="b",
                                     shared_min_size=len(tree_b) + 1)
        solver_b.solve()
        assert solver_b.stats["shared_fetches"] == 0
        assert store.stats["fetches"] == 0


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_and_stable(self):
        ring = HashRing(["s0", "s1", "s2"])
        tenants = [f"t{i:03d}" for i in range(64)]
        first = ring.assignments(tenants)
        assert first == HashRing(["s0", "s1", "s2"]).assignments(tenants)
        assert set(first) == {"s0", "s1", "s2"}
        assert sorted(t for group in first.values() for t in group) == tenants

    def test_shard_removal_moves_only_its_tenants(self):
        tenants = [f"t{i:03d}" for i in range(64)]
        before = HashRing(["s0", "s1", "s2"])
        after = HashRing(["s0", "s1"])
        for tenant in tenants:
            if before.shard_for(tenant) != "s2":
                assert after.shard_for(tenant) == before.shard_for(tenant)

    def test_bad_ring_rejected(self):
        with pytest.raises(PlatformError):
            HashRing([])
        with pytest.raises(PlatformError):
            HashRing(["s0", "s0"])


# ----------------------------------------------------------------------
# wire framing
# ----------------------------------------------------------------------
class TestWire:
    def test_round_trip(self):
        payload = json.dumps({"t": "batch", "reqs": list(range(100))})
        body = payload.encode()
        assert decode_blob(encode_blob(body)) == body

    def test_corruption_detected(self):
        blob = bytearray(encode_blob(b'{"t":"ok"}'))
        blob[-1] ^= 0xFF
        with pytest.raises(CodecError):
            decode_blob(bytes(blob))

    def test_truncation_detected(self):
        blob = encode_blob(b'{"t":"ok"}')
        with pytest.raises(CodecError):
            decode_blob(blob[:-3])
        with pytest.raises(CodecError):
            decode_blob(blob[:4])

    def test_oversize_rejected(self):
        blob = encode_blob(b"x" * 100)
        with pytest.raises(CodecError):
            decode_blob(blob, max_frame=16)

    def test_a_pipe_carries_what_the_runtime_bound_would_refuse(self):
        """The federation's bound is its own, larger one — on both sides:
        1.5 MB crosses a pipe, and ``send_frame`` refuses what
        ``recv_frame`` would."""
        ours, theirs = multiprocessing.Pipe()
        try:
            big = {"t": "onboard", "tree": "x" * (3 << 19)}
            sender = threading.Thread(target=wire.send_frame,
                                      args=(ours, big))
            sender.start()
            assert wire.recv_frame(theirs) == big
            sender.join(timeout=5)
            assert not sender.is_alive()
        finally:
            ours.close()
            theirs.close()

    def test_send_frame_applies_the_bound_recv_frame_enforces(
            self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FEDERATION_FRAME", 64)

        class Conn:
            sent = []
            send_bytes = sent.append

        wire.send_frame(Conn, {"t": "ok"})
        assert wire.decode_blob(Conn.sent[0]) == b'{"t":"ok"}'
        with pytest.raises(ProtocolError, match="exceeds the 64-byte"):
            wire.send_frame(Conn, {"t": "onboard", "tree": "x" * 64})
        assert len(Conn.sent) == 1

    @pytest.mark.parametrize("body", [b"\xff\xfe", b"[1,2]", b'{"t":',
                                      b"null", b""])
    def test_a_well_framed_non_object_is_a_codec_error(self, body):
        """``recv_frame`` parses bodies with the codec's one parser."""
        class Conn:
            recv_bytes = staticmethod(lambda: encode_blob(body))

        with pytest.raises(CodecError) as excinfo:
            wire.recv_frame(Conn)
        assert excinfo.value.recoverable


# ----------------------------------------------------------------------
# memo state: merge discipline, eviction, accounting
# ----------------------------------------------------------------------
def _leaf(lam, alpha, theta, tau=0):
    """A childless one-eval solution (integer rates: every denominator is 1)."""
    return _Sol(lam, 1, alpha, 1, theta, 1, tau, 1, (), 1)


def _root_solution(solver):
    entry = solver._cache[solver.fingerprint(solver.tree.root)]
    if entry.sat is not None:
        return entry.sat
    return next(iter(entry.exact.values()))


def _window_solver(tree, store, tenant):
    """A solver that shares every subtree of *tree* through *store*."""
    return IncrementalSolver(tree, shared=store, tenant=tenant,
                             shared_min_size=1, shared_max_size=None)


class TestMemoState:
    def test_lower_saturation_threshold_wins(self):
        state = MemoState()
        low = _leaf(5, 3, 2)
        state.publish([("d1", None, F(7), _leaf(9, 3, 6))])
        state.publish([("d1", None, F(5), low)])
        state.publish([("d1", None, F(11, 2), _leaf(8, 3, 5))])
        assert state.betas("d1")["saturated_above"] == F(5)
        assert state.fetch(["d1"])["d1"]["sat"] is low

    def test_exact_cap_never_displaces(self):
        state = MemoState(exact_cap=2)
        state.publish([("d1", F(1), None, _leaf(1, 1, 0)),
                       ("d1", F(2), None, _leaf(2, 1, 1))])
        state.publish([("d1", F(3), None, _leaf(3, 1, 2))])
        assert state.betas("d1")["exact"] == [F(1), F(2)]

    def test_fifo_eviction_bounds_entries(self):
        state = MemoState(max_entries=3)
        for i in range(5):
            state.publish([(f"d{i}", F(1), None, _leaf(1, 1, 0))])
        assert len(state.entries) == 3
        assert state.stats["evictions"] == 2
        assert "d0" not in state.entries and "d4" in state.entries

    def test_cross_tenant_accounting(self):
        state = MemoState()
        state.publish([("d1", F(1), None, _leaf(1, 1, 0))], tenant="a")
        assert set(state.fetch(["d1", "d2"], tenant="a")) == {"d1"}
        assert state.stats["cross_tenant_hits"] == 0
        state.fetch(["d1"], tenant="b")
        assert state.stats["cross_tenant_hits"] == 1
        assert state.stats["round_trips"] == 2
        assert (state.stats["fetches"], state.stats["misses"]) == (3, 1)

    def test_sol_wire_round_trip(self):
        """A solution's round trip through the state: the publisher's own
        object and exact threshold come back — nothing is serialised."""
        tree = random_tree(12, seed=3)
        state = MemoState()
        solver = _window_solver(tree, state, "a")
        solver.solve()
        local = solver._cache[solver.fingerprint(tree.root)]
        entry = state.fetch([solver.digest(tree.root)])[solver.digest(tree.root)]
        if local.sat is not None:
            assert entry["sat"] is local.sat
            assert entry["thr"] == F(*local.sat_threshold)
        for (num, den), sol in local.exact.items():
            assert entry["exact"][F(num, den)] is sol


class TestSolutionWireForm:
    """What passes between a solver and the store: the solutions
    themselves (exact, shared between solvers, never serialised), and the
    solver's intake, which refuses an entry of any other shape."""

    @pytest.mark.parametrize("seed", range(50))
    def test_round_trip_replays_equal(self, seed):
        tree = random_tree(6 + seed % 25, seed=seed)
        ref = bw_first(tree)
        store = MemoState()
        first = _window_solver(tree, store, "a")
        first.solve()
        entry = store.entries[first.digest(tree.root)]
        published = _root_solution(first)
        assert any(sol is published
                   for sol in (entry["sat"], *entry["exact"].values()))
        second = _window_solver(tree.copy(), store, "b")
        got = second.solve()
        assert second.last_evals == 0 and second.stats["hits_shared"] == 1
        assert got.outcomes == ref.outcomes
        assert got.transactions == ref.transactions

    @staticmethod
    def _reply_with(slot, threshold):
        """Solve against a real store's reply in which the *slot*-th entry
        carries a saturated solution with *threshold*."""
        tree = smooth_tree(60, seed=2)
        store = MemoState()
        _window_solver(tree, store, "a").solve()

        class Corrupting:
            def fetch(self, digests, tenant=None):
                found = store.fetch(digests, tenant=tenant)
                digest, entry = list(found.items())[slot]
                found[digest] = dict(entry, sat=entry["sat"] or _leaf(1, 1, 0),
                                     thr=threshold)
                return found

            def publish(self, updates, tenant=None):
                pass

        _window_solver(tree.copy(), Corrupting(), "b").solve()

    @pytest.mark.parametrize("bad", [True, 1.0, "1", None])
    @pytest.mark.parametrize("slot", [0, 1, 8, 9, 10, 20])
    def test_non_int_rejected(self, slot, bad):
        """A threshold that is not an exact rational, in any entry of a
        reply (the first, the ninth, the twenty-first…), fails the solve
        closed."""
        with pytest.raises(ScheduleError, match="malformed shared-memo"):
            self._reply_with(slot, bad)

    @pytest.mark.parametrize("den", [0, -1])
    def test_bad_denominator_rejected(self, den):
        """A threshold still in the retired ``(num, den)`` form is refused,
        never divided — a zero or negative denominator included."""
        with pytest.raises(ScheduleError, match="malformed shared-memo"):
            self._reply_with(1, (7, den))

    @staticmethod
    def _solve_against(payload):
        """Solve a tree against a store that answers every digest with
        *payload*."""
        class Hostile:
            def fetch(self, digests, tenant=None):
                return {d: payload for d in digests}

            def publish(self, updates, tenant=None):
                pass

        IncrementalSolver(smooth_tree(40, seed=2), shared=Hostile(),
                          shared_min_size=1).solve()

    def test_old_string_form_rejected(self):
        """Serialised forms — the old strings, the retired flat ints — and
        an inexact threshold fail the solve closed instead of replaying."""
        solver = IncrementalSolver(random_tree(12, seed=3))
        solver.solve()
        sol = _root_solution(solver)
        for payload in (["9", "3", "6", "0", [], 1], "9/2", 7, {"sat": []},
                        {"sat": [9, 2, 3, 1, 3, 2, 0, 1, 1, 0], "thr": F(7)},
                        {"exact": {F(1): [1, 1, 1, 1, 0, 1, 0, 1, 1, 0]}},
                        {"exact": [sol]},
                        {"sat": sol}, {"sat": sol, "thr": 7.0},
                        {"sat": sol, "thr": "7"}):
            with pytest.raises(ScheduleError, match="malformed shared-memo"):
                self._solve_against(payload)

    @pytest.mark.parametrize("key", [0.5, 1, True, "1/2", (1, 2)])
    def test_non_fraction_beta_key_rejected(self, key):
        """An exact memo keyed by anything but a ``Fraction`` is refused
        before any value is converted: a float ``0.5`` hash-equals
        ``Fraction(1, 2)`` and would otherwise answer it, and an int pair
        is the solver's own key form, not the store's."""
        solver = IncrementalSolver(random_tree(12, seed=3))
        solver.solve()
        sol = _root_solution(solver)
        with pytest.raises(ScheduleError, match="malformed shared-memo"):
            self._solve_against({"exact": {F(3): sol, key: sol}})

    def test_malformed_store_entry_fails_the_solve_closed(self):
        tree = smooth_tree(40, seed=2)

        class Hostile:
            def fetch(self, digests, tenant=None):
                return {d: {"sat": ["9", "3", "6", "0", [], 1], "thr": "7"}
                        for d in digests}

            def publish(self, updates, tenant=None):
                pass

        solver = IncrementalSolver(tree, shared=Hostile(), shared_min_size=1)
        with pytest.raises(ScheduleError):
            solver.solve()

    def test_deep_chain_round_trips_without_recursion(self):
        # only the two top subtrees are in the window: every published
        # solution is a whole subtree, which the second solver replays
        tree = chain(3000, w=10000, c=F(1, 10))
        store = MemoState()
        first = IncrementalSolver(tree, shared=store, tenant="a",
                                  shared_min_size=3000, shared_max_size=None)
        ref = first.solve()
        assert len(ref.outcomes) == 3001  # the proposal reaches the far end
        assert first.stats["shared_publishes"] == 2
        second = IncrementalSolver(tree, shared=store, tenant="b",
                                   shared_min_size=3000, shared_max_size=None)
        got = second.solve()
        assert second.last_evals == 0 and second.stats["hits_shared"] == 1
        assert got.outcomes == ref.outcomes
        assert got.transactions == ref.transactions


# ----------------------------------------------------------------------
# the store protocol: one ask, one publish per solve
# ----------------------------------------------------------------------
class _CountingStore(MemoState):
    def __init__(self):
        super().__init__()
        self.calls = []

    def fetch(self, digests, tenant=None):
        self.calls.append("fetch")
        return super().fetch(digests, tenant=tenant)

    def publish(self, updates, tenant=None):
        self.calls.append("publish")
        super().publish(updates, tenant=tenant)


class TestStoreProtocol:
    def test_at_most_one_fetch_and_one_publish_per_solve(self):
        tree = smooth_tree(120, seed=8)
        store = _CountingStore()
        solver = IncrementalSolver(tree, shared=store, tenant="a")
        rng = random.Random(5)
        for step in range(12):
            if step:
                solver.set_w(rng.choice(tree.leaves()),
                             rng.choice((2048, 3072, 4096)))
            store.calls.clear()
            solver.solve()
            assert store.calls.count("fetch") <= 1
            assert store.calls.count("publish") <= 1
            assert store.calls == sorted(store.calls)  # asked, then told
        assert store.stats["publishes"] == solver.stats["shared_publishes"] > 0

    def test_no_store_traffic_when_nothing_in_the_window_is_new(self):
        tree = smooth_tree(120, seed=8)
        store = _CountingStore()
        solver = IncrementalSolver(tree, shared=store, tenant="a")
        solver.solve()
        store.calls.clear()
        solver.solve()  # nothing changed
        solver.solve(proposal=F(7, 3))  # a new β on known fingerprints
        assert "fetch" not in store.calls
        leaf = tree.leaves()[0]
        old = tree.w(leaf)
        solver.set_w(leaf, 4096 if old != 4096 else 2048)
        solver.solve()
        store.calls.clear()
        solver.set_w(leaf, old)  # back to fingerprints already known
        solver.solve()
        assert store.calls == []

    def test_solver_without_a_store_tracks_nothing(self):
        tree = smooth_tree(60, seed=8)
        solver = IncrementalSolver(tree)
        rng = random.Random(3)
        leaves = tree.leaves()
        for _ in range(1000):
            solver.set_w(rng.choice(leaves), rng.choice((2048, 3072, 4096)))
        solver.solve()
        assert solver._unasked is None
        assert solver._outbox == [] and solver._shared_published == set()


# ----------------------------------------------------------------------
# cache-aware proposal planning
# ----------------------------------------------------------------------
class TestPlanner:
    def _warm_solver(self):
        tree = smooth_tree(40, seed=3)
        solver = IncrementalSolver(tree)
        solver.solve()
        # the default solve memoises the *saturated* regime at the root;
        # warm one exact memo strictly between the rate and the threshold
        thr = solver.memoised_betas(tree.root)["saturated_above"]
        assert thr is not None
        beta = (tree.rate(tree.root) + thr) / 2
        assert tree.rate(tree.root) < beta < thr
        solver.solve(proposal=beta)
        return tree, solver

    def test_prefers_exact_memo(self):
        tree, solver = self._warm_solver()
        info = solver.memoised_betas(tree.root)
        memoised = info["exact"][0]
        choice = plan_proposal(solver, [memoised + 1000, memoised])
        assert choice == memoised
        res = solver.solve(proposal=choice)
        ref = bw_first(tree, proposal=choice)
        assert res.outcomes == ref.outcomes

    def test_prefers_saturated_coverage(self):
        tree, solver = self._warm_solver()
        thr = solver.memoised_betas(tree.root)["saturated_above"]
        assert thr is not None
        lo, hi = thr - F(1, 7), thr + F(1, 7)
        assert plan_proposal(solver, [lo, hi]) == hi

    def test_consults_shared_store(self):
        tree_a, tree_b = _shared_pair(5)
        store = MemoState()
        solver_a = IncrementalSolver(tree_a, shared=store, tenant="a",
                                     shared_min_size=1)
        solver_a.solve()
        solver_b = IncrementalSolver(tree_b, shared=store, tenant="b",
                                     shared_min_size=1)
        remote = store.betas(solver_b.digest(tree_b.root))
        if remote["exact"]:
            beta = F(remote["exact"][0])
            assert plan_proposal(solver_b, [beta, beta + 999],
                                 shared=store) == beta

    def test_default_and_smallest_fallbacks(self):
        _, solver = self._warm_solver()
        fresh = IncrementalSolver(solver.tree.copy())
        assert plan_proposal(fresh, [F(7), F(9)], default=F(9)) == F(9)
        assert plan_proposal(fresh, [F(7), F(9)], default=F(11)) == F(7)
        assert plan_proposal(fresh, [F(7), F(9)]) == F(7)

    def test_empty_candidates_rejected(self):
        _, solver = self._warm_solver()
        with pytest.raises(ScheduleError):
            plan_proposal(solver, [])


# ----------------------------------------------------------------------
# memo cap knobs
# ----------------------------------------------------------------------
class TestMemoCap:
    def test_constructor_cap_bounds_exact_memos(self):
        tree = smooth_tree(30, seed=1)
        solver = IncrementalSolver(tree, memo_cap=1)
        for beta in (F(9), F(10), F(11)):
            solver.solve(proposal=beta)
        info = solver.cache_info()
        assert info["memo_cap"] == 1
        assert all(len(e.exact) <= 1 for e in solver._cache.values())

    def test_invalid_constructor_cap_rejected(self):
        with pytest.raises(ScheduleError):
            IncrementalSolver(smooth_tree(10, seed=1), memo_cap=0)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(MEMO_CAP_ENV, "3")
        solver = IncrementalSolver(smooth_tree(10, seed=1))
        assert solver.cache_info()["memo_cap"] == 3

    def test_bad_env_cap_rejected(self, monkeypatch):
        monkeypatch.setenv(MEMO_CAP_ENV, "lots")
        with pytest.raises(ScheduleError):
            IncrementalSolver(smooth_tree(10, seed=1))
        monkeypatch.setenv(MEMO_CAP_ENV, "0")
        with pytest.raises(ScheduleError):
            IncrementalSolver(smooth_tree(10, seed=1))


# ----------------------------------------------------------------------
# clone fast path (template onboarding)
# ----------------------------------------------------------------------
class TestCloneFastPath:
    def test_clone_replays_with_zero_evals(self):
        tree = smooth_tree(60, seed=4)
        warm = IncrementalSolver(tree)
        ref = warm.solve()
        clone = IncrementalSolver(tree.copy(), like=warm)
        got = clone.solve()
        assert clone.last_evals == 0
        assert got.outcomes == ref.outcomes

    def test_clone_method_independent_mutation(self):
        tree = smooth_tree(40, seed=5)
        warm = IncrementalSolver(tree)
        warm.solve()
        clone = warm.clone()
        clone.set_w(tree.leaves()[0], F(97))
        assert_exact(clone, clone.tree)
        assert_exact(warm, tree)  # the template is untouched

    def test_like_mismatched_tree_falls_back(self):
        warm = IncrementalSolver(smooth_tree(30, seed=6))
        warm.solve()
        other = smooth_tree(30, seed=7)
        solver = IncrementalSolver(other, like=warm)
        assert_exact(solver, other)


# ----------------------------------------------------------------------
# the federation service: batching, exactness, crash recovery
# ----------------------------------------------------------------------
def _names_on(shard, n, shards=("s0", "s1")):
    """The first *n* tenant names the service's ring places on *shard*."""
    ring = HashRing(list(shards))
    return list(islice((name for name in (f"t{i}" for i in count())
                        if ring.shard_for(name) == shard), n))


class TestFederationService:
    def _trees(self, n, nodes=40, templates=2, seed=9):
        base = [smooth_tree(nodes, seed=seed + k) for k in range(templates)]
        return {f"t{i}": base[i % templates].copy() for i in range(n)}

    def _spanning_trees(self, templates=2, nodes=40, seed=9):
        """One tenant per shard for each template: every template spans
        both shards, and no shard holds two tenants of one template."""
        base = [smooth_tree(nodes, seed=seed + k) for k in range(templates)]
        trees = {}
        for shard in ("s0", "s1"):
            for k, name in enumerate(_names_on(shard, templates)):
                trees[name] = base[k].copy()
        return trees

    def test_batch_coalesces_mutations_into_one_resolve(self):
        trees = self._trees(1)
        with FederationService(shards=1, memo="service") as service:
            service.onboard("t0", trees["t0"])
            before = service.stats()["service"]["resolves"]
            leaves = trees["t0"].leaves()
            service.mutate("t0", ["set_w", leaves[0], "2048"],
                           ["set_w", leaves[1], "3072"],
                           ["set_w", leaves[0], "4096"])
            results = service.flush()
            assert len(results) == 1
            assert service.stats()["service"]["resolves"] == before + 1
            trees["t0"].set_w(leaves[0], 4096)
            trees["t0"].set_w(leaves[1], 3072)
            assert matches_reference(service.result("t0"),
                                     bw_first(trees["t0"]))

    def test_multi_tenant_exactness_under_churn(self):
        trees = self._spanning_trees()
        with FederationService(shards=2, memo="service") as service:
            assert {service.ring.shard_for(t) for t in trees} == {"s0", "s1"}
            for tenant in sorted(trees):
                service.onboard(tenant, trees[tenant])
            rng = random.Random(11)
            for step in range(4):
                for tenant in sorted(trees):
                    leaf = rng.choice(trees[tenant].leaves())
                    if step == 1:  # a structural op between weight changes
                        service.mutate(tenant, ["prune", leaf])
                        trees[tenant].remove_subtree(leaf)
                    else:
                        w = rng.choice((2048, 3072, 4096))
                        service.mutate(tenant, ["set_w", leaf, str(w)])
                        trees[tenant].set_w(leaf, w)
                assert len(service.flush()) == len(trees)
            for tenant in sorted(trees):
                assert matches_reference(service.result(tenant),
                                         bw_first(trees[tenant]))
            stats = service.stats()
            stores = [s["memo"] for s in stats["shards"].values()]
            assert len(stores) == 2 and stores[0]["fetches"] > 0
            assert stats["memo"] == {key: sum(store[key] for store in stores)
                                     for key in stores[0]}

    def test_same_mutation_on_the_same_shard_hits_the_store(self):
        tree = smooth_tree(40, seed=9)
        first, second = _names_on("s0", 2)
        with FederationService(shards=2, memo="service") as service:
            service.onboard(first, tree)
            service.onboard(second, tree)
            leaf = tree.leaves()[0]
            w = 4096 if tree.w(leaf) != 4096 else 2048
            service.mutate(first, ["set_w", leaf, str(w)])
            (served_first,) = service.flush()
            # the shard merged the first's publishes after its ack, before
            # it read the next request
            service.mutate(second, ["set_w", leaf, str(w)])
            (served_second,) = service.flush()
            assert served_first["shard"] == served_second["shard"] == "s0"
            assert served_second["evals"] < served_first["evals"]
            assert service.stats()["memo"]["cross_tenant_hits"] > 0
            tree.set_w(leaf, w)
            for tenant in (first, second):
                assert matches_reference(service.result(tenant),
                                         bw_first(tree))

    def test_no_store_and_the_inline_mode_is_refused(self):
        with FederationService(shards=1, memo=None) as service:
            service.onboard("t0", smooth_tree(40, seed=9))
            stats = service.stats()
            assert stats["memo"] is None
            assert stats["shards"]["s0"]["memo"] is None
        with pytest.raises(PlatformError, match="unknown memo mode 'inline'"):
            FederationService(shards=1, memo="inline")

    def test_bad_op_is_contained_to_its_tenant(self):
        trees = {"ta": smooth_tree(40, seed=9), "tb": smooth_tree(40, seed=10)}
        with FederationService(shards=1, memo="service") as service:
            for tenant in sorted(trees):
                service.onboard(tenant, trees[tenant])
            leaf_a = trees["ta"].leaves()[0]
            leaf_b = trees["tb"].leaves()[0]
            service.mutate("ta", ["set_w", leaf_a, "2048"], ["prune", "nope"])
            service.mutate("tb", ["set_w", leaf_b, "3072"])
            with pytest.raises(PlatformError, match=r"'ta'.*'prune', 'nope'"):
                service.flush()
            trees["tb"].set_w(leaf_b, 3072)
            assert service.tree("tb") == trees["tb"]
            assert service.tree("ta") == trees["ta"]  # not even the prefix
            assert service.flush() == []
            service.mutate("ta", ["set_w", leaf_a, "4096"])
            (served,) = service.flush()
            trees["ta"].set_w(leaf_a, 4096)
            assert served["tenant"] == "ta"
            for tenant in sorted(trees):
                assert matches_reference(service.result(tenant),
                                         bw_first(trees[tenant]))

    def test_shard_crash_mid_batch_is_retried_exactly(self):
        trees = self._trees(4)
        with FederationService(shards=2, memo="service") as service:
            for tenant in sorted(trees):
                service.onboard(tenant, trees[tenant])
            killed = service.chaos_kill("t0", batches=1)
            for tenant in sorted(trees):
                leaf = trees[tenant].leaves()[0]
                service.mutate(tenant, ["set_w", leaf, "6144"])
                trees[tenant].set_w(leaf, 6144)
            results = service.flush()
            assert len(results) == 4
            stats = service.stats()
            assert stats["service"]["respawns"] >= 1
            assert stats["shards"][killed].get("dead") is None
            for tenant in sorted(trees):
                assert matches_reference(service.result(tenant),
                                         bw_first(trees[tenant]))

    def test_duplicate_tenant_rejected(self):
        trees = self._trees(1)
        with FederationService(shards=1, memo=None) as service:
            service.onboard("t0", trees["t0"])
            with pytest.raises(PlatformError):
                service.onboard("t0", trees["t0"])

    def test_template_onboarding_uses_clone_fast_path(self):
        trees = self._trees(4, templates=1)
        with FederationService(shards=1, memo="service") as service:
            for tenant in sorted(trees):
                service.onboard(tenant, trees[tenant])
            shard_stats = service.stats()["shards"]["s0"]
            assert shard_stats["template_clones"] == 3

"""Incremental BW-First: subtree solution caching + dirty re-negotiation.

The re-negotiation paths (crash recovery, online drift, dynamic adaptation)
re-run :func:`~repro.core.bwfirst.bw_first` on the *whole* tree after every
platform change, although a mutation only perturbs the root-to-change path:
every clean sibling subtree would answer the very same proposal with the
very same acknowledgment.  :class:`IncrementalSolver` exploits that.

The key observation is that BW-First's outcome for a subtree is a pure
function of two inputs only: the subtree itself (its topology and exact
``w``/``c`` rationals — *not* its incoming edge, whose cost enters the
parent's decision, not the child's) and the proposal ``β`` it receives.
The solver therefore keys a cache by a **structural fingerprint** — a
hash-consed integer id interned over the nested key
``(w, ((c_child, fp_child), …))`` with children in bandwidth order — plus
the proposal.  Fingerprints are exact: two subtrees share an id iff their
keys compare equal as rationals, so collisions are impossible, and a
mutation *invalidates nothing* — it merely re-fingerprints the dirty
root-to-change path (old entries stay valid for the structures they
describe, which is what makes rejoin churn nearly free).

Three regimes answer from cache without running Algorithm 1's loop:

* **absorption** — ``β ≤ r``: the node keeps everything (``α = β``,
  ``θ = 0``, no transactions).  O(1), closed form, never a miss.
* **saturation** — when every child decision of a solve was port-limited
  (``δ ≥ τ·b`` at each open), the internal solution is *constant in λ*
  above the threshold ``S = r + max_k(consumed_before_k + τ_k·b_k)`` and
  ``θ(λ) = λ − C`` with ``C`` the consumed capacity.  One cached solve
  answers every larger proposal.  That maximum is always the first
  open's ``τ_1·b_1 = b_1``: with children in increasing ``c`` and
  ``τ ≥ 0``, ``consumed_before_k + τ_k·b_k ≤ A + (1 − A·c_1)/c_k ≤ 1/c_1``
  for any ``A ≤ 1/c_1`` consumed before.  So ``S`` is the subtree's own
  ``t_max``, ``r + b_1`` (``r`` for a leaf).
* **exact** — otherwise, solutions are memoized per exact ``β``.

The loop builds only cached solutions: a hit contributes its solution
object and its accepted rate ``λ − θ`` (stored with the solution, so the
parent subtracts nothing), a miss runs Algorithm 1 for one node.
:meth:`IncrementalSolver.solve` then *replays* the root's solution once —
copying node outcomes and numbering transactions in global open order —
so the produced :class:`~repro.core.bwfirst.BWFirstResult` is
**identical** (outcome by outcome, transaction by transaction, including
the Figure 4(b) indices) to a fresh ``bw_first`` run, as the property
tests assert.  :meth:`IncrementalSolver.rate` is the same loop without the
replay or the result-tree snapshot, for callers that read only the
throughput.  Replay is pure bookkeeping, paid once and only when a log is
asked for, so the solver's cost after a mutation is proportional to the
dirty path, not the tree.

Cache *misses* run Algorithm 1's arithmetic (a lookup compares, a
saturated hit subtracts once) on reduced ``(numerator, denominator)`` int
pairs — one ``math.gcd`` per operation, comparisons by
cross-multiplication — and the rates cache, the saturation thresholds,
the exact-β memo keys and every cached solution hold the same pairs.
``Fraction`` appears only at the boundary: the root proposal coming in,
``rate()`` / ``solve()`` going out (the replay builds one per distinct
value), and the shared store and the planner, which speak exact
rationals.  The pair helpers live in :mod:`repro.core.rates`, shared with
the negotiation's :class:`~repro.protocol.actor.NodeActor`.  ``bw_first``
stays on ``Fraction``: it is the independent oracle the solver is tested
``==`` against.

``node_evals`` (``solver.last_evals``) counts exactly those misses — the
benchmark currency of ``benchmarks/bench_e26_incremental.py`` and the
``perf-smoke`` CI gate.  Cache traffic is mirrored as ``incr.*`` counters
into an optional telemetry registry.  See ``docs/perf.md`` for the design
notes and the recorded baselines.
"""

from __future__ import annotations

import os
from fractions import Fraction
from hashlib import blake2b
from itertools import islice
from math import gcd
from typing import Dict, Hashable, List, Optional, Tuple

from ..exceptions import PlatformError, ScheduleError
from ..platform.tree import Tree
from .bwfirst import BWFirstResult, NodeOutcome, Transaction, bw_first
from .rates import format_fraction, is_infinite, pair_add, pair_sub

#: exact-β memo entries kept per fingerprint before the map is reset — a
#: memory bound for adversarial churn; saturation/absorption hits (the
#: common case) are unaffected by the cap.  Overridable per solver with
#: ``IncrementalSolver(memo_cap=)`` or process-wide with the
#: ``REPRO_MEMO_CAP`` environment variable.
MAX_EXACT_PER_ENTRY = 64

#: Environment override for the default per-fingerprint exact-β memo cap.
MEMO_CAP_ENV = "REPRO_MEMO_CAP"

#: Subtrees smaller than this many nodes skip the shared memo store:
#: digesting and asking about them costs more than solving them, so sharing
#: only pays above the break-even size (tunable per solver with
#: ``shared_min_size=``; in-process stores in tests use 1).
SHARED_MIN_SIZE = 16

#: Subtrees larger than this many nodes also skip the shared store: they
#: are mostly a tenant's own churned root paths, whose entries no other
#: tenant asks for and which would crowd the store's FIFO.
#: Because the policy is uniform, a client knows oversized digests are
#: never stored and does not ask for them.  Large shared structures still
#: replay almost for free: their in-window descendants are published, so
#: a second tenant descends the few oversized levels and answers the rest
#: from the store — content addressing composes.  ``shared_max_size=None``
#: lifts the cap (useful when onboarding dominates and churn is rare).
SHARED_MAX_SIZE = 128


def _default_memo_cap() -> int:
    raw = os.environ.get(MEMO_CAP_ENV)
    if raw is None or not raw.strip():
        return MAX_EXACT_PER_ENTRY
    try:
        cap = int(raw)
    except ValueError:
        raise ScheduleError(
            f"{MEMO_CAP_ENV}={raw!r} is not an integer memo cap") from None
    if cap < 1:
        raise ScheduleError(f"{MEMO_CAP_ENV}={raw!r} must be >= 1")
    return cap


class _Exact(dict):
    """Reduced pair → its ``Fraction``, built on first use: the replay's
    one conversion per distinct value."""

    __slots__ = ()

    def __missing__(self, pair: Tuple[int, int]) -> Fraction:
        value = self[pair] = Fraction(*pair)
        return value


class _Sol:
    """One cached subtree solution: the full recursive outcome at one λ.

    Every rational is a reduced ``(numerator, denominator)`` pair of ints
    held in two slots, denominator positive: λ (``lam_*``), α, θ, τ and
    ``acc_*``, the accepted rate ``λ − θ`` — what the subtree consumes,
    the same for every proposal a saturated solution answers.  ``txns``
    holds ``(β_n, β_d, θ_n, θ_d, child_sol)`` per opened child, in
    bandwidth order (BW-First opens children consecutively from the front
    of that order, so ``txns[i]`` always belongs to the i-th child).
    ``evals`` is the number of node evaluations a fresh solve of this
    subtree performed — what a cache hit saves.
    """

    __slots__ = ("lam_n", "lam_d", "alpha_n", "alpha_d", "theta_n", "theta_d",
                 "tau_n", "tau_d", "acc_n", "acc_d", "txns", "evals")

    def __init__(self, lam_n, lam_d, alpha_n, alpha_d, theta_n, theta_d,
                 tau_n, tau_d, txns, evals):
        self.lam_n, self.lam_d = lam_n, lam_d
        self.alpha_n, self.alpha_d = alpha_n, alpha_d
        self.theta_n, self.theta_d = theta_n, theta_d
        self.tau_n, self.tau_d = tau_n, tau_d
        self.txns = txns
        self.evals = evals
        if theta_n:
            self.acc_n, self.acc_d = pair_sub(lam_n, lam_d, theta_n, theta_d)
        else:
            self.acc_n, self.acc_d = lam_n, lam_d


class _Entry:
    """Cache line of one fingerprint: a saturated solution + exact-β memos.

    ``sat_threshold`` and the keys of ``exact`` are reduced ``(n, d)``
    pairs.  ``shared`` marks a line that came from the shared store, so
    answers served from it count as ``hits_shared``."""

    __slots__ = ("sat", "sat_threshold", "exact", "shared")

    def __init__(self):
        self.sat: Optional[_Sol] = None
        self.sat_threshold: Optional[Tuple[int, int]] = None
        self.exact: Dict[Tuple[int, int], _Sol] = {}
        self.shared = False

    def copy(self, cap: int) -> "_Entry":
        """A detached copy sharing the immutable :class:`_Sol` objects."""
        dup = _Entry()
        dup.sat = self.sat
        dup.sat_threshold = self.sat_threshold
        dup.exact = dict(islice(self.exact.items(), cap))
        dup.shared = self.shared
        return dup

    @classmethod
    def from_store(cls, payload, cap: int) -> "_Entry":
        """Adopt a store entry — ``{"sat": solution, "thr": threshold,
        "exact": {β: solution}}``, holding the publishers' own solutions
        and exact ``Fraction`` β and threshold — keeping at most *cap*
        exact memos.  Solutions are immutable, so they are shared, not
        copied.  The whole payload is checked before any value is
        converted: one of any other shape, a β or threshold that is not a
        ``Fraction`` included (a float ``0.5`` would hash-equal ``1/2``),
        raises :class:`~repro.exceptions.ScheduleError`."""
        if not isinstance(payload, dict):
            raise ScheduleError(f"malformed shared-memo entry {payload!r}")
        sat, threshold = payload.get("sat"), payload.get("thr")
        exact = payload.get("exact") or {}
        well_formed = (isinstance(exact, dict)
                       and all(isinstance(beta, Fraction) and isinstance(sol, _Sol)
                               for beta, sol in exact.items())
                       and (sat is None or isinstance(sat, _Sol)
                            and isinstance(threshold, Fraction)))
        if not well_formed:
            raise ScheduleError(f"malformed shared-memo entry {payload!r}")
        entry = cls()
        entry.shared = True
        if sat is not None:
            entry.sat = sat
            entry.sat_threshold = (threshold.numerator, threshold.denominator)
        entry.exact = {(beta.numerator, beta.denominator): sol
                       for beta, sol in islice(exact.items(), cap)}
        return entry


class _IFrame:
    """One activation of Algorithm 1 inside the incremental solve, on
    reduced ``(n, d)`` pairs like :class:`_Sol`."""

    __slots__ = ("node", "lam_n", "lam_d", "alpha_n", "alpha_d",
                 "delta_n", "delta_d", "tau_n", "tau_d", "kids", "next_i",
                 "pending", "txns", "evals", "saturated")

    def __init__(self, node, lam_n, lam_d, rate_n, rate_d, kids):
        self.node = node
        self.lam_n, self.lam_d = lam_n, lam_d
        if rate_n * lam_d < lam_n * rate_d:  # α = r, δ = λ − r
            self.alpha_n, self.alpha_d = rate_n, rate_d
            self.delta_n, self.delta_d = pair_sub(lam_n, lam_d, rate_n, rate_d)
        else:  # α = λ, δ = 0
            self.alpha_n, self.alpha_d = lam_n, lam_d
            self.delta_n, self.delta_d = 0, 1
        self.tau_n = self.tau_d = 1
        self.kids = kids
        self.next_i = 0
        self.pending = None  # (c_n, c_d) of the open transaction's edge
        self.txns: List[tuple] = []  # (β_n, β_d, θ_n, θ_d, sol)
        self.evals = 1  # this node plus its children's subtree solutions
        self.saturated = True  # every open so far was port-limited

    def close(self, beta_n: int, beta_d: int, theta_n: int, theta_d: int,
              sol: "_Sol", c_n: int, c_d: int) -> None:
        """Close the transaction with a child that answered *sol* to β
        (acknowledging θ) over an edge of cost ``c``: ``δ −= a``,
        ``τ −= a·c`` with ``a`` the child's accepted rate."""
        self.txns.append((beta_n, beta_d, theta_n, theta_d, sol))
        self.evals += sol.evals
        an, ad = sol.acc_n, sol.acc_d
        if an:
            self.delta_n, self.delta_d = pair_sub(self.delta_n, self.delta_d,
                                                  an, ad)
            self.tau_n, self.tau_d = pair_sub(self.tau_n, self.tau_d,
                                              an * c_n, ad * c_d)


class IncrementalSolver:
    """BW-First with per-subtree solution caching across mutations.

    The solver owns a private copy of *tree*; mutate it through
    :meth:`prune` / :meth:`graft` / :meth:`set_w` / :meth:`set_c` /
    :meth:`apply_platform` and call :meth:`solve` after each change.  Every
    ``solve`` returns a :class:`~repro.core.bwfirst.BWFirstResult` that is
    exactly equal to ``bw_first`` on the current tree (same outcomes, same
    transaction log and indices, same rational throughput).

    *telemetry* mirrors cache traffic as ``incr.*`` counters; the same
    tallies are always available in :attr:`stats` and :meth:`cache_info`.

    *memo_cap* bounds the exact-β memo map per fingerprint (defaults to the
    ``REPRO_MEMO_CAP`` environment variable, then
    :data:`MAX_EXACT_PER_ENTRY`).

    *shared* plugs in a memo store shared between solvers — any object
    with ``fetch(digests, tenant=...) -> {digest: entry}`` and
    ``publish(updates, tenant=...)`` (a federation shard's
    :class:`~repro.federation.memo.MemoState`).  Both carry the solver's
    own solution objects and exact rationals, never a serialised form.
    The store is spoken to at most twice per :meth:`solve`: one ``fetch``
    at the top, for the in-window fingerprints that appeared since the
    last solve and have no local entry (lookups then read the local cache
    only), and one ``publish`` at the end carrying every solution computed
    on the way, each sent once.  A fingerprint is never asked about again,
    so a store entry that gains a new β later is not seen by a solver that
    already knows the fingerprint.  *tenant* labels this solver's traffic for the
    store's cross-tenant accounting.

    *like* is the template fast path: when the supplied *tree* compares
    equal to another solver's working tree, fingerprints, digests and memo
    entries are inherited instead of recomputed from scratch — the
    federation onboarding path for tenants cloned from a template (see
    :meth:`clone`).  A *like* solver with a different tree falls back to a
    full fingerprint pass.
    """

    def __init__(self, tree: Tree, telemetry=None, memo_cap: Optional[int] = None,
                 shared=None, tenant: Optional[str] = None,
                 shared_min_size: int = SHARED_MIN_SIZE,
                 shared_max_size: Optional[int] = SHARED_MAX_SIZE,
                 like: Optional["IncrementalSolver"] = None):
        self._tree = tree.copy()
        self._telemetry = telemetry
        if memo_cap is None:
            memo_cap = _default_memo_cap()
        elif memo_cap < 1:
            raise ScheduleError(f"memo_cap must be >= 1 (got {memo_cap})")
        self._memo_cap = memo_cap
        self._shared = shared
        self._tenant = tenant
        self._shared_min_size = shared_min_size
        self._shared_max_size = shared_max_size
        self._snapshot: Optional[Tree] = None  # result-tree copy, lazily built
        self._cache: Dict[int, _Entry] = {}
        self.last_evals = 0  # misses of the most recent solve()
        self.stats: Dict[str, int] = {
            "solves": 0, "evals": 0, "evals_saved": 0,
            "hits_absorbed": 0, "hits_saturated": 0, "hits_exact": 0,
            "hits_shared": 0, "shared_fetches": 0, "shared_publishes": 0,
            "misses": 0, "invalidations": 0, "evictions": 0, "lookups": 0,
        }
        self._builder = None  # lazily-built IncrementalScheduleBuilder
        self._eviction_warned = False
        # shared-store bookkeeping; a solver without a store keeps none.
        # _unasked: (node, fingerprint) pairs interned since the last solve;
        # _outbox: (digest, β | None, threshold | None, solution) computed
        # by the running solve; _shared_published: their (fingerprint, β)
        # keys, so each solution is published once
        self._unasked: Optional[List[Tuple[Hashable, int]]] = None
        self._outbox: list = []
        self._shared_published: set = set()
        if like is not None and like._tree == self._tree:
            self._intern = dict(like._intern)
            self._fp = dict(like._fp)
            self._key_of = dict(like._key_of)
            self._kids_cache = dict(like._kids_cache)
            self._rate_cache = dict(like._rate_cache)
            self._digest_of = dict(like._digest_of)
            self._size_of = dict(like._size_of)
            self._cache = {fp: entry.copy(self._memo_cap)
                           for fp, entry in like._cache.items()}
        else:
            self._intern: Dict[tuple, int] = {}
            self._fp: Dict[Hashable, int] = {}
            self._key_of: Dict[int, tuple] = {}  # reverse of _intern
            self._kids_cache: Dict[Hashable, Tuple[Hashable, ...]] = {}
            self._rate_cache: Dict[Hashable, Tuple[int, int]] = {}
            self._digest_of: Dict[int, str] = {}  # fp → content digest (lazy)
            self._size_of: Dict[int, int] = {}  # fp → subtree node count (lazy)
            self._fingerprint_all()
        if shared is not None:
            self._unasked = list(self._fp.items())

    def clone(self, telemetry=None, memo_cap: Optional[int] = None,
              shared=None, tenant: Optional[str] = None) -> "IncrementalSolver":
        """A detached solver over an equal tree, reusing this solver's
        fingerprints, digests and memo entries (solutions are immutable, so
        sharing the objects is safe; the caches themselves are copied, so
        the clone's mutations never disturb this solver).

        This is the federation onboarding fast path: cloning a warmed
        template solver for a new tenant skips both the full fingerprint
        pass and every solve the template already answered.
        """
        return IncrementalSolver(
            self._tree, telemetry=telemetry,
            memo_cap=self._memo_cap if memo_cap is None else memo_cap,
            shared=self._shared if shared is None else shared,
            tenant=tenant, shared_min_size=self._shared_min_size,
            shared_max_size=self._shared_max_size, like=self,
        )

    # ------------------------------------------------------------------
    # fingerprints
    # ------------------------------------------------------------------
    def _kids(self, node: Hashable) -> Tuple[Hashable, ...]:
        kids = self._kids_cache.get(node)
        if kids is None:
            kids = tuple(self._tree.children_by_bandwidth(node))
            self._kids_cache[node] = kids
        return kids

    def _rate(self, node: Hashable) -> Tuple[int, int]:
        """``r = 1/w`` as a reduced pair (``0/1`` for a switch)."""
        rate = self._rate_cache.get(node)
        if rate is None:
            w = self._tree.w(node)
            rate = (0, 1) if is_infinite(w) else (w.denominator, w.numerator)
            self._rate_cache[node] = rate
        return rate

    def _capacity(self, node: Hashable) -> Tuple[int, int]:
        """*node*'s subtree ``t_max``: ``r`` plus the fastest child link's
        bandwidth (the first child's in bandwidth order), ``r`` for a leaf
        — :func:`~repro.core.bwfirst.root_proposal` at the root, and the
        saturation threshold of a saturated solution."""
        rate_n, rate_d = self._rate(node)
        kids = self._kids(node)
        if not kids:
            return rate_n, rate_d
        c = self._tree.edge_cost(node, kids[0])
        return pair_add(rate_n, rate_d, c.denominator, c.numerator)

    def _compute_fp(self, node: Hashable) -> int:
        tree = self._tree
        key = (tree.w(node),
               tuple((tree.c(child), self._fp[child])
                     for child in self._kids(node)))
        fp = self._intern.get(key)
        if fp is None:
            fp = len(self._intern)
            self._intern[key] = fp
            self._key_of[fp] = key
            if self._unasked is not None:
                self._unasked.append((node, fp))
        self._fp[node] = fp
        return fp

    def digest(self, node: Hashable) -> str:
        """The content digest of *node*'s subtree: a 128-bit blake2b over
        the canonical ``(w, (c, child-digest)…)`` rendering, in bandwidth
        order.

        Unlike the interned fingerprint (an id local to this solver), the
        digest is stable across processes and solver lifetimes — the key of
        the federation memo store.  Computed lazily and memoized per
        fingerprint; iterative, so arbitrarily deep chains are fine.
        """
        return self._fp_digest(self._fp[node])

    def _fp_digest(self, fp: int) -> str:
        memo = self._digest_of
        got = memo.get(fp)
        if got is not None:
            return got
        key_of = self._key_of
        stack = [fp]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            w, kids = key_of[cur]
            pending = [child_fp for _, child_fp in kids if child_fp not in memo]
            if pending:
                stack.extend(pending)
                continue
            parts = [format_fraction(w)]
            for c, child_fp in kids:
                parts.append(format_fraction(c))
                parts.append(memo[child_fp])
            preimage = "|".join(parts).encode("ascii")
            memo[cur] = blake2b(preimage, digest_size=16).hexdigest()
            stack.pop()
        return memo[fp]

    def _fp_size(self, fp: int) -> int:
        """Node count of the subtree behind *fp* (lazy, iterative): the
        shared-store break-even check (see :data:`SHARED_MIN_SIZE`)."""
        memo = self._size_of
        got = memo.get(fp)
        if got is not None:
            return got
        key_of = self._key_of
        stack = [fp]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            _, kids = key_of[cur]
            pending = [child_fp for _, child_fp in kids if child_fp not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[cur] = 1 + sum(memo[child_fp] for _, child_fp in kids)
            stack.pop()
        return memo[fp]

    def _fingerprint_all(self) -> None:
        for node in reversed(list(self._tree.nodes())):  # children first
            self._compute_fp(node)

    def _refingerprint_path(self, nodes) -> None:
        """Recompute fingerprints along a root-ward dirty path, nearest first."""
        count = 0
        for node in nodes:
            old = self._fp.get(node)
            if self._compute_fp(node) != old:
                count += 1
        self.stats["invalidations"] += count
        self._count("incr.invalidations", count)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        self._snapshot = None

    def prune(self, *names: Hashable) -> List[Hashable]:
        """Remove each named node's whole subtree (crash semantics).

        Names swallowed by an earlier removal in the same call are skipped,
        matching :meth:`~repro.platform.tree.Tree.without_subtrees`.
        Returns all removed nodes.
        """
        tree = self._tree
        for name in names:
            if name == tree.root:
                raise PlatformError("cannot remove the root's subtree")
            if name not in tree:
                raise PlatformError(f"unknown node {name!r}")
        removed: List[Hashable] = []
        for name in names:
            if name not in tree:  # inside an already-removed subtree
                continue
            parent = tree.parent(name)
            path = [parent] + tree.ancestors(parent) if parent is not None else []
            gone = tree.remove_subtree(name)
            removed.extend(gone)
            for node in gone:
                self._fp.pop(node, None)
                self._kids_cache.pop(node, None)
                self._rate_cache.pop(node, None)
            self._kids_cache.pop(parent, None)
            self._refingerprint_path(path)
        self._touch()
        return removed

    def graft(self, parent: Hashable, c, subtree: Tree) -> None:
        """Graft *subtree* under *parent* through an edge of cost *c*."""
        tree = self._tree
        tree.add_subtree(parent, c, subtree)
        for node in reversed(tree.descendants(subtree.root)):
            self._compute_fp(node)
        self._kids_cache.pop(parent, None)
        self._refingerprint_path([parent] + tree.ancestors(parent))
        self._touch()

    def failover(self, new_root: Hashable) -> Hashable:
        """Re-root under *new_root* after the master died; return the old
        root.

        Mirrors :meth:`~repro.platform.tree.Tree.failover_root`.  Every
        former sibling of *new_root* keeps its subtree fingerprint — only
        the node that gained children needs recomputing, so the whole
        surviving platform below the new root is solved from cache.
        """
        tree = self._tree
        old = tree.root
        tree.failover_root(new_root)
        self._fp.pop(old, None)
        self._kids_cache.pop(old, None)
        self._rate_cache.pop(old, None)
        self._kids_cache.pop(new_root, None)
        self._refingerprint_path([new_root])
        self._touch()
        return old

    def set_w(self, name: Hashable, w) -> None:
        """Change a node's processing weight."""
        tree = self._tree
        tree.set_w(name, w)
        self._rate_cache.pop(name, None)
        self._refingerprint_path([name] + tree.ancestors(name))
        self._touch()

    def set_c(self, name: Hashable, c) -> None:
        """Change the communication cost of the edge into *name*.

        The incoming edge enters the *parent's* fingerprint (it is the
        parent's decision input), so only the ancestors are dirty.
        """
        tree = self._tree
        tree.set_c(name, c)
        parent = tree.parent(name)
        self._kids_cache.pop(parent, None)
        self._refingerprint_path([parent] + tree.ancestors(parent))
        self._touch()

    def apply_platform(self, actual: Tree) -> int:
        """Diff the internal tree against *actual* (same topology) and apply
        every ``w``/``c`` change.  Returns the number of changes applied."""
        tree = self._tree
        if set(tree.nodes()) != set(actual.nodes()):
            raise PlatformError("apply_platform needs an identical topology")
        for node in actual.nodes():
            if actual.parent(node) != tree.parent(node):
                raise PlatformError("apply_platform needs an identical topology")
        changes = 0
        for node in actual.nodes():
            if actual.w(node) != tree.w(node):
                self.set_w(node, actual.w(node))
                changes += 1
            if actual.parent(node) is not None and actual.c(node) != tree.c(node):
                self.set_c(node, actual.c(node))
                changes += 1
        return changes

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if amount and self._telemetry is not None:
            self._telemetry.counter(name).inc(amount)

    def _lookup(self, node: Hashable, beta_n: int, beta_d: int):
        """A cached answer for (*node*, β), or ``None`` on a miss.

        Returns ``(sol, θ_n, θ_d)``: the solution to replay and the
        acknowledgment the parent should close with (for a saturated hit θ
        is shifted to the offered λ; the replayed internals are identical by
        the saturation property, and so is the accepted rate).
        """
        self.stats["lookups"] += 1
        rate_n, rate_d = self._rate(node)
        if beta_n * rate_d <= rate_n * beta_d:
            self.stats["hits_absorbed"] += 1
            self.stats["evals_saved"] += 1
            self._count("incr.hit.absorbed")
            return _Sol(beta_n, beta_d, beta_n, beta_d, 0, 1, 1, 1, (), 1), 0, 1
        entry = self._cache.get(self._fp[node])
        if entry is not None:
            sat = entry.sat
            if sat is not None:
                thr_n, thr_d = entry.sat_threshold
                if beta_n * thr_d >= thr_n * beta_d:
                    self._hit(entry, "saturated", sat)
                    return (sat, *pair_sub(beta_n, beta_d,
                                           sat.acc_n, sat.acc_d))
            sol = entry.exact.get((beta_n, beta_d))
            if sol is not None:
                self._hit(entry, "exact", sol)
                return sol, sol.theta_n, sol.theta_d
        self.stats["misses"] += 1
        self._count("incr.miss")
        return None

    def _hit(self, entry: _Entry, regime: str, sol: _Sol) -> None:
        if entry.shared:
            regime = "shared"
        self.stats["hits_" + regime] += 1
        self.stats["evals_saved"] += sol.evals
        self._count("incr.hit." + regime)

    def _shared_eligible(self, fp: int) -> bool:
        """Is this subtree inside the shared-store size window?  Below the
        minimum asking costs more than solving; above the maximum a
        payload costs more than it saves (see :data:`SHARED_MIN_SIZE` /
        :data:`SHARED_MAX_SIZE`).  The window gates fetch and publish
        symmetrically, so out-of-window digests are provably absent and
        are never asked for."""
        size = self._fp_size(fp)
        if size < self._shared_min_size:
            return False
        return self._shared_max_size is None or size <= self._shared_max_size

    def _ask_store(self) -> None:
        """The solve's one question to the shared store: every in-window
        fingerprint interned since the last solve that is still live and
        has no local entry.  What comes back becomes the local entry."""
        unasked, self._unasked = self._unasked, []
        wanted = {}
        for node, fp in unasked:
            if (self._fp.get(node) == fp and fp not in self._cache
                    and self._shared_eligible(fp)):
                wanted[self._fp_digest(fp)] = fp
        if not wanted:
            return
        self.stats["shared_fetches"] += len(wanted)
        self._count("incr.shared.fetch", len(wanted))
        found = self._shared.fetch(list(wanted), tenant=self._tenant)
        if not isinstance(found, dict):
            raise ScheduleError(f"malformed shared-memo reply {found!r}")
        for digest, payload in found.items():
            fp = wanted.get(digest)
            if fp is not None:
                self._cache[fp] = _Entry.from_store(payload, self._memo_cap)

    def _queue_publish(self, fp: int, beta: Optional[Tuple[int, int]],
                       threshold: Optional[Tuple[int, int]], sol: _Sol) -> None:
        """Queue *sol* for the end-of-solve publish, once per (fp, β); the
        store holds β and the threshold as ``Fraction``s."""
        key = (fp, beta)
        if key not in self._shared_published and self._shared_eligible(fp):
            self._shared_published.add(key)
            self._outbox.append((
                self._fp_digest(fp),
                None if beta is None else Fraction(*beta),
                None if threshold is None else Fraction(*threshold), sol))

    def _store(self, frame: _IFrame, sol: _Sol) -> None:
        fp = self._fp[frame.node]
        entry = self._cache.get(fp)
        if entry is None:
            entry = self._cache[fp] = _Entry()
        if frame.saturated:
            # every child decision was port-limited, so the loop ended on
            # exhausted children or τ = 0 (δ reaching 0 at a port-limited
            # open takes τ to 0 with it): above the subtree's t_max the
            # internals are constant and θ(λ) = λ − C
            entry.sat = sol
            entry.sat_threshold = self._capacity(frame.node)
            if self._shared is not None:
                self._queue_publish(fp, None, entry.sat_threshold, sol)
        else:
            if len(entry.exact) >= self._memo_cap:
                entry.exact.clear()
                self.stats["evictions"] += 1
                self._count("incr.evictions")
                self._count("incr.memo_evictions")
                # a cache that evicts on most lookups is churning, not
                # caching — surface it once so the run can be re-tuned
                if (not self._eviction_warned and self._telemetry is not None
                        and 2 * self.stats["evictions"] > self.stats["lookups"]):
                    self._eviction_warned = True
                    self._telemetry.warn(
                        "incr: per-β memo eviction rate exceeds 50% of "
                        f"lookups ({self.stats['evictions']} evictions / "
                        f"{self.stats['lookups']} lookups) — proposal "
                        "diversity is defeating the exact-hit cache"
                    )
            beta = (frame.lam_n, frame.lam_d)
            entry.exact[beta] = sol
            if self._shared is not None:
                self._queue_publish(fp, beta, None, sol)

    # ------------------------------------------------------------------
    # replay (cache hit → outcomes + renumbered transactions, no arithmetic)
    # ------------------------------------------------------------------
    def _emit(self, node: Hashable, sol: _Sol, lam: Fraction, theta: Fraction,
              outcomes: Dict, log: List) -> None:
        """Replay *sol* (answering λ = *lam* with θ = *theta*) from *node*
        down into *outcomes* and *log*, building one ``Fraction`` per
        distinct value."""
        made = _Exact()
        stack = [[node, sol, lam, theta, 0, []]]
        while stack:
            top = stack[-1]
            cur, cur_sol, cur_lam, cur_theta, i, collected = top
            if i < len(cur_sol.txns):
                top[4] = i + 1
                beta_n, beta_d, th_n, th_d, child_sol = cur_sol.txns[i]
                beta, th = made[beta_n, beta_d], made[th_n, th_d]
                child = self._kids(cur)[i]
                txn = Transaction(index=len(log), parent=cur, child=child,
                                  proposal=beta, ack=th)
                log.append(txn)
                collected.append(txn)
                stack.append([child, child_sol, beta, th, 0, []])
            else:
                outcomes[cur] = NodeOutcome(
                    node=cur, lam=cur_lam,
                    alpha=made[cur_sol.alpha_n, cur_sol.alpha_d],
                    theta=cur_theta, tau=made[cur_sol.tau_n, cur_sol.tau_d],
                    transactions=tuple(collected),
                )
                stack.pop()

    # ------------------------------------------------------------------
    # solve
    # ------------------------------------------------------------------
    @property
    def tree(self) -> Tree:
        """The solver's working platform (treat as read-only; mutate through
        the solver so fingerprints stay consistent)."""
        return self._tree

    def _result_tree(self) -> Tree:
        if self._snapshot is None:
            self._snapshot = self._tree.copy()
        return self._snapshot

    def fingerprint(self, node: Hashable) -> int:
        """The hash-consed fingerprint of *node*'s current subtree.

        Two nodes (across any sequence of mutations of this solver) share a
        fingerprint iff their subtrees have identical shape, weights and
        edge costs — the invariant the schedule-fragment cache keys on.
        """
        return self._fp[node]

    def schedule_builder(self):
        """The fragment-caching schedule builder attached to this solver.

        Lazily constructed and cached so its fragment memo stays warm
        across mutations; see
        :class:`~repro.schedule.incremental.IncrementalScheduleBuilder`.
        """
        if self._builder is None:
            from ..schedule.incremental import IncrementalScheduleBuilder
            self._builder = IncrementalScheduleBuilder(self)
        return self._builder

    def solve(self, proposal: Optional[Fraction] = None) -> BWFirstResult:
        """Run BW-First on the current tree, answering from cache wherever a
        clean subtree allows; exactly equal to ``bw_first`` on this tree."""
        lam_root, sol, theta_n, theta_d = self._solve_root(proposal)
        theta_root = Fraction(theta_n, theta_d)
        outcomes: Dict[Hashable, NodeOutcome] = {}
        log: List[Transaction] = []
        self._emit(self._tree.root, sol, lam_root, theta_root, outcomes, log)
        return BWFirstResult(
            tree=self._result_tree(), t_max=lam_root,
            throughput=lam_root - theta_root,
            outcomes=outcomes, transactions=tuple(log),
        )

    def rate(self, proposal: Optional[Fraction] = None) -> Tuple[Fraction, Fraction]:
        """``(t_max, throughput)`` of the current tree: the loop of
        :meth:`solve` — same misses, cache and store traffic, same
        :attr:`last_evals` — without replaying outcomes and transactions
        or snapshotting the tree."""
        lam_root, _, theta_n, theta_d = self._solve_root(proposal)
        return lam_root, Fraction(*pair_sub(lam_root.numerator,
                                            lam_root.denominator,
                                            theta_n, theta_d))

    def _solve_root(self, proposal: Optional[Fraction]) -> Tuple[Fraction, _Sol, int, int]:
        """The one loop behind :meth:`solve` and :meth:`rate`: build (or
        find) the root's cached solution; returns ``(λ_root, sol, θ_n,
        θ_d)``.  Only λ_root is a ``Fraction``: Algorithm 1 runs on the
        reduced int pairs of :class:`_IFrame`."""
        tree = self._tree
        if proposal is None:  # the virtual parent's t_max
            lam_n, lam_d = self._capacity(tree.root)
            lam_root = Fraction(lam_n, lam_d)
        else:
            lam_root = Fraction(proposal)
            if lam_root < 0:
                raise ScheduleError(
                    f"root proposal must be non-negative (got {lam_root})")
            lam_n, lam_d = lam_root.numerator, lam_root.denominator

        self.stats["solves"] += 1
        if self._unasked:
            self._ask_store()

        hit = self._lookup(tree.root, lam_n, lam_d)
        if hit is not None:
            self.last_evals = 0
            return (lam_root, *hit)

        edge_cost = tree.edge_cost
        lookup = self._lookup
        stack = [_IFrame(tree.root, lam_n, lam_d, *self._rate(tree.root),
                         self._kids(tree.root))]
        evals = 1
        returned: Optional[_Sol] = None  # the solution of the frame just popped

        while stack:
            frame = stack[-1]

            if frame.pending is not None:
                (c_n, c_d), frame.pending = frame.pending, None
                frame.close(returned.lam_n, returned.lam_d, returned.theta_n,
                            returned.theta_d, returned, c_n, c_d)
                returned = None

            opened = False
            node, kids = frame.node, frame.kids
            while frame.delta_n > 0 and frame.tau_n > 0 and frame.next_i < len(kids):
                child = kids[frame.next_i]
                frame.next_i += 1
                c = edge_cost(node, child)
                c_n, c_d = c.numerator, c.denominator
                # cap = τ·b = τ / c
                n, d = frame.tau_n * c_d, frame.tau_d * c_n
                g = gcd(n, d)
                cap_n, cap_d = n // g, d // g
                delta_n, delta_d = frame.delta_n, frame.delta_d
                if delta_n * cap_d < cap_n * delta_d:
                    frame.saturated = False
                    beta_n, beta_d = delta_n, delta_d
                else:
                    beta_n, beta_d = cap_n, cap_d
                hit = lookup(child, beta_n, beta_d)
                if hit is None:
                    frame.pending = (c_n, c_d)
                    stack.append(_IFrame(child, beta_n, beta_d, *self._rate(child),
                                         self._kids(child)))
                    evals += 1
                    opened = True
                    break
                sol, theta_n, theta_d = hit
                frame.close(beta_n, beta_d, theta_n, theta_d, sol, c_n, c_d)
            if opened:
                continue

            # node done: cache the solution, ack the parent
            returned = _Sol(frame.lam_n, frame.lam_d, frame.alpha_n, frame.alpha_d,
                            frame.delta_n, frame.delta_d, frame.tau_n, frame.tau_d,
                            tuple(frame.txns), frame.evals)
            self._store(frame, returned)
            stack.pop()

        self.last_evals = evals
        self.stats["evals"] += evals
        self._count("incr.evals", evals)
        if self._outbox:
            updates, self._outbox = self._outbox, []
            self.stats["shared_publishes"] += len(updates)
            self._count("incr.shared.publish", len(updates))
            self._shared.publish(updates, tenant=self._tenant)
        return lam_root, returned, returned.theta_n, returned.theta_d

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def memoised_betas(self, node: Hashable) -> Dict[str, object]:
        """What the local cache can already answer for *node*'s subtree.

        Returns ``{"saturated_above": Fraction | None, "exact": [β, …]}``:
        any proposal ≥ ``saturated_above`` (plus any β in ``exact``, plus
        any β ≤ the node's rate, which absorbs in closed form) replays
        without arithmetic.  This is the cache-aware proposal planner's
        oracle (see :func:`repro.protocol.planner.plan_proposal`).
        """
        entry = self._cache.get(self._fp[node])
        if entry is None:
            return {"saturated_above": None, "exact": []}
        return {
            "saturated_above": (Fraction(*entry.sat_threshold)
                                if entry.sat is not None else None),
            "exact": sorted(Fraction(n, d) for n, d in entry.exact),
        }

    def cache_info(self) -> Dict[str, int]:
        """A snapshot of cache size and traffic (see also :attr:`stats`)."""
        info = dict(self.stats)
        info["fingerprints"] = len(self._intern)
        info["entries"] = len(self._cache)
        info["exact_memos"] = sum(len(e.exact) for e in self._cache.values())
        info["saturated_memos"] = sum(
            1 for e in self._cache.values() if e.sat is not None)
        info["memo_cap"] = self._memo_cap
        return info

    def clear_cache(self) -> None:
        """Drop every memoized solution (fingerprints are kept)."""
        self._cache.clear()


def resolve_solver(
    solver: Optional[IncrementalSolver],
    tree: Tree,
    telemetry=None,
) -> IncrementalSolver:
    """Normalise a ``solver=`` argument of the re-negotiation entry points.

    ``None`` builds a fresh :class:`IncrementalSolver` on *tree*; an
    existing solver instance is used as-is — its working tree must equal
    *tree*, so a caller-managed cache survives across calls.  Anything
    else raises :class:`~repro.exceptions.ScheduleError`.
    """
    if solver is None:
        return IncrementalSolver(tree, telemetry=telemetry)
    if not isinstance(solver, IncrementalSolver):
        raise ScheduleError(f"unknown solver {solver!r} "
                            "(expected None or an IncrementalSolver)")
    if solver.tree != tree:
        raise ScheduleError(
            "the supplied IncrementalSolver's tree differs from the "
            "platform being solved")
    return solver

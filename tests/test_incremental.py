"""Tests for the incremental BW-First solver (subtree solution caching).

The contract under test is *exact* equivalence: after any sequence of
mutations, :meth:`IncrementalSolver.solve` must reproduce a fresh
``bw_first`` run outcome by outcome and transaction by transaction — same
rational throughput, same visited set, same Figure 4(b) indices — while
evaluating only the dirty part of the tree.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bwfirst import bw_first, root_proposal
from repro.core.incremental import IncrementalSolver, _Sol, resolve_solver
from repro.exceptions import PlatformError, ProtocolError, ScheduleError
from repro.extensions.dynamic import adapt, perturb
from repro.extensions.online import online_renegotiation
from repro.faults import FaultPlan, NodeCrash, NodeRejoin, resilient_run
from repro.federation.memo import MemoState
from repro.platform.examples import paper_figure4_tree
from repro.platform.generators import random_tree, smooth_tree
from repro.platform.tree import Tree
from repro.protocol.runner import run_protocol
from repro.telemetry.core import Registry

from .conftest import RATIONAL_COSTS, RATIONAL_WEIGHTS, rational_trees

F = Fraction


def assert_exact_equal(solver, tree, tag=""):
    """solve() must equal bw_first() on every observable, not just rate."""
    ref = bw_first(tree)
    got = solver.solve()
    assert got.throughput == ref.throughput, tag
    assert got.t_max == ref.t_max, tag
    assert got.visited == ref.visited, tag
    assert got.outcomes == ref.outcomes, tag
    assert got.transactions == ref.transactions, tag
    assert got.tree == tree, tag


def suite_tree(seed, rng):
    """The mutation suite's platform for *seed*, drawn from *rng*."""
    return random_tree(
        rng.randrange(5, 45), seed=seed,
        max_children=rng.choice([2, 3, 4]),
        w_numerator_range=(1, 40), c_numerator_range=(1, 6),
        switch_probability=0.15 if seed % 4 == 0 else 0.0,
    )


def twin_rngs(seed):
    """Two generators in the same state: the same draws for two solvers."""
    rng = random.Random(seed)
    twin = random.Random()
    twin.setstate(rng.getstate())
    return rng, twin


def cache_state(solver):
    """Every memoised answer, by fingerprint: what a later solve can hit."""
    return ({fp: (entry.sat_threshold if entry.sat is not None else None,
                  sorted(entry.exact))
             for fp, entry in solver._cache.items()},
            solver.stats["evictions"])


def random_mutation(solver, rng, salt):
    """Apply one random mutation through the solver; returns its kind."""
    tree = solver.tree
    nonroot = [n for n in tree.nodes() if n != tree.root]
    op = rng.choice(["prune", "graft", "set_w", "set_c"])
    if op == "prune" and len(nonroot) > 1:
        solver.prune(rng.choice(nonroot))
    elif op == "graft":
        sub = random_tree(rng.randrange(2, 7), seed=salt,
                          w_numerator_range=(1, 30), c_numerator_range=(1, 5))
        sub = sub.relabel({n: f"g{salt}_{n}" for n in sub.nodes()})
        solver.graft(rng.choice(list(tree.nodes())),
                     F(rng.randrange(1, 5), rng.choice([1, 2, 3])), sub)
    elif op == "set_w" and nonroot:
        solver.set_w(rng.choice(nonroot),
                     F(rng.randrange(1, 40), rng.choice([1, 2, 3])))
    elif op == "set_c" and nonroot:
        solver.set_c(rng.choice(nonroot),
                     F(rng.randrange(1, 6), rng.choice([1, 2, 3])))
    return op


class TestExactEquality:
    def test_paper_tree(self):
        tree = paper_figure4_tree()
        assert_exact_equal(IncrementalSolver(tree), tree)

    def test_single_node(self):
        tree = Tree("solo", w=3)
        assert_exact_equal(IncrementalSolver(tree), tree)

    def test_proposal_override_matches(self):
        tree = paper_figure4_tree()
        solver = IncrementalSolver(tree)
        for p in (F(0), F(1, 2), F(3), bw_first(tree).t_max * 2):
            ref = bw_first(tree, proposal=p)
            got = solver.solve(proposal=p)
            assert got.outcomes == ref.outcomes
            assert got.transactions == ref.transactions
            assert got.throughput == ref.throughput

    def test_negative_proposal_rejected(self):
        solver = IncrementalSolver(paper_figure4_tree())
        with pytest.raises(ScheduleError):
            solver.solve(proposal=F(-1))

    def test_property_random_trees_and_mutation_sequences(self):
        """~50 random trees × random mutation sequences: exact equality
        after *every* step (the ISSUE's cache-correctness property)."""
        for seed in range(50):
            rng = random.Random(seed)
            tree = suite_tree(seed, rng)
            solver = IncrementalSolver(tree)
            assert_exact_equal(solver, solver.tree, f"seed {seed} initial")
            assert_exact_equal(solver, solver.tree, f"seed {seed} warm")
            for step in range(6):
                random_mutation(solver, rng, salt=1000 * seed + step)
                assert_exact_equal(
                    solver, solver.tree, f"seed {seed} step {step}")


class TestRate:
    """``rate()`` is ``solve()``'s loop without the replay: the same
    answer, the same misses and the same cache it leaves behind."""

    def test_rate_matches_bw_first_on_the_mutation_suite(self):
        for seed in range(50):
            rng, twin = twin_rngs(seed)
            tree = suite_tree(seed, rng)
            assert suite_tree(seed, twin) == tree
            by_rate, by_solve = IncrementalSolver(tree), IncrementalSolver(tree)
            for step in range(-1, 6):
                if step >= 0:
                    random_mutation(by_rate, rng, salt=1000 * seed + step)
                    random_mutation(by_solve, twin, salt=1000 * seed + step)
                ref = bw_first(by_rate.tree)
                tag = f"seed {seed} step {step}"
                assert by_rate.rate() == (ref.t_max, ref.throughput), tag
                assert by_solve.solve().throughput == ref.throughput, tag
                assert by_rate.last_evals == by_solve.last_evals, tag
                assert by_rate.stats == by_solve.stats, tag
                assert cache_state(by_rate) == cache_state(by_solve), tag

    def test_proposal_override(self):
        tree = paper_figure4_tree()
        solver = IncrementalSolver(tree)
        for p in (F(0), F(1, 2), F(3), bw_first(tree).t_max * 2):
            ref = bw_first(tree, proposal=p)
            assert solver.rate(proposal=p) == (p, ref.throughput)
        with pytest.raises(ScheduleError):
            solver.rate(proposal=F(-1))

    @pytest.mark.parametrize("order", ["rate", "solve", "rate+solve",
                                       "solve+rate", "rate+rate", "random"])
    def test_interleaving_leaves_the_same_cache(self, order):
        """Whatever mix of ``rate()`` and ``solve()`` runs between two
        mutations, the next ``solve()`` equals ``bw_first`` and the cache
        (entries, thresholds, exact memos, evictions) equals that of a
        solver that only ever called ``solve()`` — with a memo cap of 2 so
        evictions happen."""
        for seed in range(50):
            rng, twin = twin_rngs(seed)
            tree = suite_tree(seed, rng)
            suite_tree(seed, twin)  # keep the twin's draws in step
            mixed = IncrementalSolver(tree, memo_cap=2)
            plain = IncrementalSolver(tree, memo_cap=2)
            calls = random.Random(-seed)
            for step in range(-1, 6):
                if step >= 0:
                    random_mutation(mixed, rng, salt=1000 * seed + step)
                    random_mutation(plain, twin, salt=1000 * seed + step)
                plan = (order if order != "random" else "+".join(
                    calls.choice(["rate", "solve"])
                    for _ in range(calls.randrange(1, 4)))).split("+")
                for call in plan:
                    getattr(mixed, call)()
                plain.solve()
                tag = f"seed {seed} step {step} {plan}"
                assert cache_state(mixed) == cache_state(plain), tag
                assert_exact_equal(mixed, mixed.tree, tag)
                assert cache_state(mixed) == cache_state(plain), tag


_OPS = st.one_of(
    st.tuples(st.just("set_w"), st.integers(0, 99),
              st.sampled_from(RATIONAL_WEIGHTS)),
    st.tuples(st.just("set_c"), st.integers(0, 99),
              st.sampled_from(RATIONAL_COSTS)),
    st.tuples(st.just("prune"), st.integers(0, 99)),
    st.tuples(st.just("graft"), st.integers(0, 99),
              st.sampled_from(RATIONAL_COSTS), st.sampled_from(RATIONAL_WEIGHTS)),
    st.tuples(st.just("propose"),
              st.sampled_from(["rate", "threshold", "below", "above", "zero"])),
    st.tuples(st.just("propose"), st.just("scaled"),
              st.sampled_from([F(1, 3), F(1, 2), F(5, 7), F(9, 7), F(2)])),
)


def _proposal(solver, kind, scale=None):
    """A root proposal at, just below or just above the root's absorption
    bound or memoised saturation threshold, or *scale* × ``t_max``
    (``None``: the default)."""
    tree = solver.tree
    rate = tree.rate(tree.root)
    threshold = solver.memoised_betas(tree.root)["saturated_above"]
    if kind == "default":
        return None
    if kind == "rate":
        return rate
    if kind == "zero":
        return F(0)
    if kind == "scaled":
        return scale * root_proposal(tree)
    if threshold is None:
        return None
    if kind == "threshold":
        return threshold
    if kind == "below":
        return max(threshold - F(1, 7), F(0))
    return threshold + F(1, 7)


def _apply(solver, op, graft_no):
    """Apply *op* (drawn from ``_OPS``) through *solver*; its indices wrap."""
    tree = solver.tree
    nonroot = [n for n in tree.nodes() if n != tree.root]
    kind = op[0]
    if kind == "set_w":
        nodes = list(tree.nodes())
        solver.set_w(nodes[op[1] % len(nodes)], op[2])
    elif kind == "set_c" and nonroot:
        solver.set_c(nonroot[op[1] % len(nonroot)], op[2])
    elif kind == "prune" and nonroot:
        solver.prune(nonroot[op[1] % len(nonroot)])
    elif kind == "graft":
        nodes = list(tree.nodes())
        sub = Tree(f"g{graft_no}", op[3])
        sub.add_node(f"g{graft_no}x", F(5, 3), parent=f"g{graft_no}", c=op[2])
        solver.graft(nodes[op[1] % len(nodes)], op[2], sub)


class TestIntPairDifferential:
    """The solver's loop runs on int pairs; ``bw_first`` stays on
    ``Fraction`` and is the oracle.  Non-integer rates and costs, switches,
    ties and proposals exactly at the thresholds, through mutations,
    ``clone()`` and a shared store."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tree=rational_trees(), ops=st.lists(_OPS, max_size=10))
    def test_equal_to_bw_first(self, tree, ops):
        store = MemoState()
        by_solve = IncrementalSolver(tree)
        by_rate = IncrementalSolver(tree)
        sharing = [IncrementalSolver(tree, shared=store, tenant=tenant,
                                     shared_min_size=1, shared_max_size=None)
                   for tenant in ("a", "b")]
        by_solve.solve()
        by_rate.rate()
        cloned = by_solve.clone(memo_cap=2)
        solvers = [by_solve, by_rate, cloned, *sharing]
        proposal = None
        for step, op in enumerate([("propose", "default"), *ops]):
            if op[0] == "propose":
                proposal = _proposal(by_solve, *op[1:])
            else:
                for solver in solvers:
                    _apply(solver, op, step)
            current = by_solve.tree
            ref = bw_first(current, proposal=proposal)
            tag = f"step {step} {op} proposal {proposal}"
            assert by_rate.rate(proposal) == (ref.t_max, ref.throughput), tag
            for solver in solvers[:1] + solvers[2:]:
                assert solver.tree == current, tag
                got = solver.solve(proposal)
                assert got.t_max == ref.t_max, tag
                assert got.throughput == ref.throughput, tag
                assert got.outcomes == ref.outcomes, tag
                assert got.transactions == ref.transactions, tag
            assert by_rate.last_evals == by_solve.last_evals, tag

    def test_exact_memos_are_keyed_by_reduced_pairs(self):
        """Proposals that share a numerator (or a denominator) are distinct
        exact memos — locally and after a round trip through a store."""
        tree = Tree("m")  # a switch: every proposal below t_max = 7/2 is
        tree.add_node("a", F(5, 3), parent="m", c=F(2, 7))  # an exact memo
        tree.add_node("b", F(1, 2), parent="m", c=F(7, 4))
        proposals = [F(2, 3), F(2, 5), F(3, 5), F(4, 5), F(2, 3), F(2, 5)]
        store = MemoState()
        first, second = (IncrementalSolver(tree, shared=store, tenant=tenant,
                                           shared_min_size=1)
                         for tenant in ("a", "b"))
        for solver in (first, second):
            for proposal in proposals:
                ref = bw_first(tree, proposal=proposal)
                got = solver.solve(proposal)
                assert got.outcomes == ref.outcomes, proposal
                assert got.transactions == ref.transactions, proposal
        assert first.stats["hits_exact"] == 2
        assert second.stats["hits_shared"] == len(proposals)


def _fractions_in(sol, seen):
    """Every slot of every solution reachable from *sol* that holds a
    ``Fraction`` (each solution visited once)."""
    found, stack = [], [sol]
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        for slot in _Sol.__slots__:
            value = getattr(cur, slot)
            if slot == "txns":
                for txn in value:
                    found += [v for v in txn[:4] if not isinstance(v, int)]
                    stack.append(txn[4])
            elif not isinstance(value, int):
                found.append((slot, value))
    return found


class TestIntegerLoop:
    """What keeps the int-pair loop an int-pair loop: a warmed ``rate()``
    builds no ``Fraction`` but its two answers, and nothing cached is
    one."""

    @pytest.mark.parametrize("tree", [smooth_tree(240, 1),
                                      random_tree(80, seed=7),
                                      paper_figure4_tree()])
    def test_rate_builds_no_fraction_beyond_its_answers(self, tree,
                                                        monkeypatch):
        """Every ``Fraction`` built during the call is counted — by
        ``repro.core.incremental`` or by ``fractions`` itself on behalf of
        an arithmetic operator — through a patched constructor."""
        solver = IncrementalSolver(tree)
        solver.solve()
        leaf = tree.leaves()[-1]
        solver.set_w(leaf, tree.w(leaf) * F(3, 2))
        built = []
        construct = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return construct(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        answer = solver.rate()
        monkeypatch.undo()
        ref = bw_first(solver.tree)
        assert answer == (ref.t_max, ref.throughput)
        assert solver.last_evals > 0
        assert len(built) <= 2, built

    def test_no_cached_value_is_a_fraction(self):
        tree = random_tree(60, seed=4, switch_probability=0.2)
        solver = IncrementalSolver(tree, memo_cap=3)
        for proposal in (None, F(7, 3), F(1, 9)):
            solver.solve(proposal)
        leaf = tree.leaves()[0]
        solver.set_c(leaf, F(2, 7))
        solver.rate()
        seen = set()
        pairs = list(solver._rate_cache.values())
        for entry in solver._cache.values():
            pairs += entry.exact
            if entry.sat is not None:
                pairs.append(entry.sat_threshold)
                assert _fractions_in(entry.sat, seen) == []
            for sol in entry.exact.values():
                assert _fractions_in(sol, seen) == []
        assert seen
        assert all(type(n) is int and type(d) is int and d > 0
                   for n, d in pairs), pairs


class TestFingerprints:
    def test_differing_w_never_collides(self):
        # ids are interned per solver over exact-rational keys, so within
        # one interner a w change — however tiny — must move the root id,
        # and restoring the value must restore the exact same id
        base = random_tree(12, seed=7)
        solver = IncrementalSolver(base)
        for node in base.nodes():
            before = solver._fp[base.root]
            old_w = solver.tree.w(node)
            solver.set_w(node, old_w + F(1, 1_000_000_007))
            assert solver._fp[base.root] != before, node
            solver.set_w(node, old_w)
            assert solver._fp[base.root] == before, node

    def test_differing_c_never_collides(self):
        base = random_tree(12, seed=7)
        solver = IncrementalSolver(base)
        for node in base.nodes():
            if node == base.root:
                continue
            before = solver._fp[base.root]
            old_c = solver.tree.c(node)
            solver.set_c(node, old_c + F(1, 1_000_000_007))
            assert solver._fp[base.root] != before, node
            solver.set_c(node, old_c)
            assert solver._fp[base.root] == before, node

    def test_equal_trees_share_fingerprints(self):
        a = IncrementalSolver(random_tree(20, seed=3))
        b = IncrementalSolver(random_tree(20, seed=3))
        # interner ids are per-solver, but within one solver two structurally
        # identical subtrees must share an id
        tree = Tree("r", w=10)
        for branch in ("x", "y"):
            tree.add_node(branch, 4, parent="r", c=1)
            tree.add_node(f"{branch}1", 6, parent=branch, c=2)
        solver = IncrementalSolver(tree)
        assert solver._fp["x"] == solver._fp["y"]
        assert solver._fp["x1"] == solver._fp["y1"]
        del a, b

    def test_incoming_edge_is_parents_business(self):
        # changing a child's incoming c dirties the parent's fingerprint,
        # not the child's own (θ(β) does not depend on the incoming edge)
        tree = paper_figure4_tree()
        solver = IncrementalSolver(tree)
        fp_before = dict(solver._fp)
        child = "P4"
        solver.set_c(child, tree.c(child) + F(1, 7))
        assert solver._fp[child] == fp_before[child]
        assert solver._fp[tree.parent(child)] != fp_before[tree.parent(child)]


class TestCacheBehaviour:
    def test_warm_resolve_costs_zero_evals(self):
        solver = IncrementalSolver(random_tree(60, seed=11))
        solver.solve()
        first = solver.last_evals
        assert first > 0
        solver.solve()
        assert solver.last_evals == 0
        assert solver.stats["hits_saturated"] + solver.stats["hits_absorbed"] \
            + solver.stats["hits_exact"] > 0
        info = solver.cache_info()
        # hash-consing: identical subtrees share ids, so unique fingerprints
        # can only be fewer than nodes, never more
        assert 0 < info["fingerprints"] <= len(solver.tree)
        assert info["entries"] > 0

    def test_single_leaf_prune_beats_full(self):
        tree = random_tree(200, seed=5, max_children=4,
                           w_numerator_range=(2000, 6000),
                           c_numerator_range=(1, 2))
        solver = IncrementalSolver(tree)
        solver.solve()
        victim = [n for n in tree.leaves() if n != tree.root][0]
        solver.prune(victim)
        got = solver.solve()
        full_evals = len(bw_first(solver.tree).outcomes)
        assert got.throughput == bw_first(solver.tree).throughput
        assert 0 < solver.last_evals < full_evals

    def test_telemetry_counters_mirrored(self):
        registry = Registry()
        solver = IncrementalSolver(random_tree(40, seed=2), telemetry=registry)
        solver.solve()
        solver.solve()
        names = {m.name for m in registry.counters()}
        assert any(n.startswith("incr.hit.") for n in names)
        assert registry.value("incr.evals") == solver.stats["evals"]

    def test_clear_cache_forces_full_resolve(self):
        solver = IncrementalSolver(random_tree(30, seed=9))
        solver.solve()
        solver.clear_cache()
        solver.solve()
        assert solver.last_evals > 0

    def test_rejoin_restores_cached_fingerprints(self):
        tree = random_tree(80, seed=13, max_children=4,
                           w_numerator_range=(2000, 6000),
                           c_numerator_range=(1, 2))
        solver = IncrementalSolver(tree)
        solver.solve()
        victim = [n for n in solver.tree.nodes()
                  if solver.tree.parent(n) == tree.root][0]
        branch = solver.tree.subtree(victim)
        cost = solver.tree.c(victim)
        parent = solver.tree.parent(victim)
        solver.prune(victim)
        solver.solve()
        solver.graft(parent, cost, branch)  # exact rejoin
        got = solver.solve()
        # the rejoined structure re-interns to its old fingerprints, so the
        # pre-crash cache answers and only the root path re-evaluates
        assert solver.last_evals <= solver.tree.depth(victim) + 1
        assert_exact_equal(solver, solver.tree, "rejoin")
        del got


class TestMutators:
    def test_prune_root_rejected(self):
        solver = IncrementalSolver(paper_figure4_tree())
        with pytest.raises(PlatformError):
            solver.prune("P0")

    def test_prune_unknown_rejected(self):
        solver = IncrementalSolver(paper_figure4_tree())
        with pytest.raises(PlatformError):
            solver.prune("nope")

    def test_prune_nested_names_match_without_subtrees(self):
        tree = paper_figure4_tree()
        solver = IncrementalSolver(tree)
        solver.prune("P4", "P6")  # P6 may sit inside P4's subtree or not
        assert solver.tree == tree.without_subtrees({"P4", "P6"})

    def test_tree_remove_subtree_matches_without_subtrees(self):
        tree = paper_figure4_tree()
        removed = tree.copy()
        gone = removed.remove_subtree("P2")
        assert removed == tree.without_subtrees({"P2"})
        assert set(gone) == set(tree.nodes()) - set(removed.nodes())

    def test_tree_copy_is_independent(self):
        tree = paper_figure4_tree()
        dup = tree.copy()
        assert dup == tree
        dup.set_w("P1", 99)
        assert dup != tree

    def test_apply_platform_topology_mismatch(self):
        solver = IncrementalSolver(paper_figure4_tree())
        other = Tree("P0", w=3)
        with pytest.raises(PlatformError):
            solver.apply_platform(other)

    def test_result_tree_is_a_snapshot(self):
        solver = IncrementalSolver(paper_figure4_tree())
        result = solver.solve()
        before = result.tree.copy()
        solver.prune("P4")
        assert result.tree == before  # later mutations cannot corrupt it


class TestResolveSolver:
    def test_defaults_and_strings(self):
        """None builds a fresh solver; the retired strings are rejected."""
        tree = paper_figure4_tree()
        assert isinstance(resolve_solver(None, tree), IncrementalSolver)
        for name in ("full", "incremental"):
            with pytest.raises(ScheduleError, match=repr(name)):
                resolve_solver(name, tree)

    def test_instance_passthrough_and_mismatch(self):
        tree = paper_figure4_tree()
        solver = IncrementalSolver(tree)
        assert resolve_solver(solver, tree) is solver
        with pytest.raises(ScheduleError):
            resolve_solver(solver, perturb(tree, node_factors={"P1": 2}))

    def test_unknown_value_rejected(self):
        with pytest.raises(ScheduleError):
            resolve_solver("turbo", paper_figure4_tree())


class TestWiringParity:
    """Every re-negotiation entry point solves incrementally; each answer
    must equal a from-scratch ``bw_first`` of the platform it describes."""

    def small_tree(self):
        t = Tree("root", w=2)
        t.add_node("a", 2, parent="root", c=F(1, 2))
        t.add_node("b", 3, parent="root", c=1)
        t.add_node("a1", 2, parent="a", c=1)
        t.add_node("b1", 3, parent="b", c=1)
        return t

    @pytest.mark.parametrize("entry", ["resilient_run", "online", "adapt"])
    def test_retired_full_solver_rejected(self, entry):
        tree = self.small_tree()
        call = {
            "resilient_run": lambda: resilient_run(
                tree, FaultPlan(crashes=(NodeCrash("a", F(5)),)),
                solver="full"),
            "online": lambda: online_renegotiation(tree, tree, solver="full"),
            "adapt": lambda: adapt(tree, tree, solver="full"),
        }[entry]
        with pytest.raises(ScheduleError, match="'full'"):
            call()

    def test_resilient_run_parity(self):
        tree = self.small_tree()
        plan = FaultPlan(crashes=(NodeCrash("a", F(5)), NodeCrash("b1", F(9))),
                         rejoins=(NodeRejoin("a", F(30)),), seed=1)
        report = resilient_run(tree, plan)
        assert report.old_optimum == bw_first(tree).throughput
        platforms = [tree.without_subtrees({"a"}),
                     tree.without_subtrees({"a", "b1"}),
                     tree.without_subtrees({"b1"})]
        assert [e.kind for e in report.epochs] == ["prune", "prune", "rejoin"]
        for epoch, platform in zip(report.epochs, platforms):
            assert epoch.optimum == bw_first(platform).throughput
        assert set(report.survivors.nodes()) == set(platforms[-1].nodes())
        assert report.rate_after == report.new_optimum == report.epochs[-1].optimum

    def test_resilient_run_accepts_caller_managed_solver(self):
        tree = self.small_tree()
        plan = FaultPlan(crashes=(NodeCrash("a", F(5)),), seed=1)
        solver = IncrementalSolver(tree)
        report = resilient_run(tree, plan, solver=solver)
        assert report.new_optimum == bw_first(
            tree.without_subtrees({"a"})).throughput
        assert "a" not in solver.tree  # pruned in place

    def test_online_renegotiation_parity(self):
        believed = paper_figure4_tree()
        actual = perturb(believed, edge_factors={"P1": 3},
                         node_factors={"P8": 2})
        report = online_renegotiation(believed, actual)
        assert report.old_optimum == bw_first(believed).throughput
        assert report.new_optimum == bw_first(actual).throughput
        assert report.rate_recovered == report.new_optimum

    def test_adapt_parity_and_single_solve(self, monkeypatch):
        from repro.extensions import dynamic

        calls = []
        monkeypatch.setattr(dynamic, "bw_first",
                            lambda tree: calls.append(tree) or bw_first(tree))
        believed = paper_figure4_tree()
        actual = perturb(believed, edge_factors={"P2": 2})
        report = adapt(believed, actual)
        assert calls == []  # both platforms solved by the one solver
        assert report.old_throughput == bw_first(believed).throughput
        assert report.new_throughput == bw_first(actual).throughput
        assert report.renegotiation.throughput == report.new_throughput
        assert report.degraded_throughput == dynamic.degraded_rate(
            believed, actual)
        calls.clear()
        # a drifted topology: the incremental solver refuses, one full solve
        grown = actual.copy()
        grown.add_node("P12", 2, parent="P3", c=1)
        report = adapt(believed, grown)
        assert calls == [grown]
        assert report.new_throughput == bw_first(grown).throughput


class TestRunProtocolReference:
    def test_reference_skips_nothing_observable(self):
        tree = paper_figure4_tree()
        reference = bw_first(tree)
        result = run_protocol(tree, reference=reference)
        assert result.throughput == reference.throughput

    def test_reference_mismatch_raises(self):
        tree = paper_figure4_tree()
        wrong = bw_first(tree, proposal=F(1, 2))
        with pytest.raises(ProtocolError):
            run_protocol(tree, reference=wrong)

    def test_reference_still_catches_divergence(self):
        tree = paper_figure4_tree()
        good = bw_first(tree)
        # a tampered reference must make verification fail loudly
        bad = type(good)(
            tree=good.tree, t_max=good.t_max,
            throughput=good.throughput + 1,
            outcomes=good.outcomes, transactions=good.transactions,
        )
        with pytest.raises(ProtocolError):
            run_protocol(tree, reference=bad)

"""E26: incremental BW-First — subtree caching beats full re-solves.

The re-negotiation paths (crash recovery, rejoin, drift) used to re-run
``bw_first`` on the whole tree after every platform change.
:class:`~repro.core.incremental.IncrementalSolver` re-fingerprints only the
dirty root-to-change path and answers every clean subtree from cache, so a
single-leaf mutation of a 1000-node tree costs a small fraction of the
node evaluations — with *exactly* equal rational throughput, outcomes and
transaction log (asserted at every step).

The acceptance bar (ISSUE 4): on the 1000-node E26 family, a single-leaf
prune + re-solve must evaluate **≥5× fewer** nodes than full ``bw_first``
on average.  ``test_e26_perf_smoke_gate`` is the coarse CI gate on a small
tree: strictly fewer evals, no wall-clock threshold.  The recorded
baselines live in ``BENCH_e26_incremental.json`` (see
``benchmarks/record_baseline.py`` and ``docs/perf.md``).

``test_e26_rate_over_solve_ratio_gate`` is the same-run ratio gate of
``IncrementalSolver.rate()``: the solve's loop without the replay, timed
against ``solve()`` on churn-shaped mutation batches of a 240-node smooth
tree, at equal answers and equal misses.
``test_e26_rate_per_eval_gate`` prices one node evaluation of that loop,
which runs on int pairs, against one of ``bw_first_fraction``, the
``Fraction`` walk kept as the oracle in ``tests/fraction_oracles.py``, on
the same batches in the same run.
``test_e26_spliced_allocation_ratio_gate`` holds ``from_bw_first`` on a
solver's result, which rebuilds only the nodes that changed since the
previous allocation, against ``from_bw_first`` on ``bw_first``'s, which
rebuilds every node, on the same batches.
"""

import gc
import random
import time

from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.core.incremental import IncrementalSolver
from repro.platform.generators import random_tree, smooth_tree
from repro.util.text import render_table

from tests.fraction_oracles import bw_first_fraction

from .conftest import emit

#: the E26 platform family: communication-rich trees (large w, small c)
#: where the optimal schedule uses essentially every node, so the full
#: solver has no visit economy left to hide behind
E26_PARAMS = dict(max_children=4, w_numerator_range=(2000, 6000),
                  c_numerator_range=(1, 2))
E26_NODES = 1000
E26_SEED = 1
E26_MUTATIONS = 20


def e26_tree(nodes=E26_NODES, seed=E26_SEED):
    return random_tree(nodes, seed=seed, **E26_PARAMS)


def prune_churn(solver, mutations, rng):
    """Prune *mutations* random leaves; yield (victim, full_evals, incr_evals)
    asserting exact equality against a fresh ``bw_first`` at every step."""
    for _ in range(mutations):
        victim = rng.choice(
            [n for n in solver.tree.leaves() if n != solver.tree.root])
        solver.prune(victim)
        got = solver.solve()
        ref = bw_first(solver.tree)
        assert got.throughput == ref.throughput
        assert got.outcomes == ref.outcomes
        assert got.transactions == ref.transactions
        yield victim, len(ref.outcomes), solver.last_evals


def test_e26_single_leaf_prune_1000_nodes():
    """The acceptance criterion: ≥5× fewer node evals at exact equality."""
    tree = e26_tree()
    solver = IncrementalSolver(tree)
    full = bw_first(tree)
    assert len(full.outcomes) == E26_NODES  # the family visits everything
    solver.solve()

    rng = random.Random(E26_SEED)
    rows, ratios = [], []
    for victim, full_evals, incr_evals in prune_churn(
            solver, E26_MUTATIONS, rng):
        assert incr_evals < full_evals  # never worse, on any single step
        ratio = full_evals / max(incr_evals, 1)
        ratios.append(ratio)
        rows.append([str(victim), str(full_evals), str(incr_evals),
                     f"{ratio:.1f}x"])
    mean = sum(ratios) / len(ratios)
    emit(
        f"E26: single-leaf prunes of a {E26_NODES}-node tree "
        f"(seed {E26_SEED})",
        render_table(["pruned", "full evals", "incr evals", "ratio"], rows)
        + f"\nmean reduction: {mean:.1f}x (bar: >=5x)",
    )
    assert mean >= 5, f"mean eval reduction {mean:.1f}x below the 5x bar"


def test_e26_crash_rejoin_churn():
    """Crash/rejoin churn: a rejoined branch re-interns to its pre-crash
    fingerprints, so the cache answers almost everything."""
    tree = e26_tree(nodes=500, seed=2)
    solver = IncrementalSolver(tree)
    solver.solve()
    rng = random.Random(2)
    total_full, total_incr = 0, 0
    for round_no in range(6):
        candidates = [n for n in solver.tree.nodes()
                      if solver.tree.parent(n) == solver.tree.root]
        victim = rng.choice(candidates)
        branch = solver.tree.subtree(victim)
        cost = solver.tree.c(victim)
        parent = solver.tree.parent(victim)

        solver.prune(victim)  # crash …
        got = solver.solve()
        ref = bw_first(solver.tree)
        assert got.outcomes == ref.outcomes
        total_full += len(ref.outcomes)
        total_incr += solver.last_evals

        solver.graft(parent, cost, branch)  # … and rejoin
        got = solver.solve()
        ref = bw_first(solver.tree)
        assert got.outcomes == ref.outcomes
        total_full += len(ref.outcomes)
        total_incr += solver.last_evals
        # the rejoin restores the original structure: only the root path
        # (plus any forced re-proposals) can miss
        assert solver.last_evals < len(ref.outcomes) // 2
    emit("E26: crash/rejoin churn (500 nodes, 6 rounds)",
         f"aggregate node evals: full={total_full} incremental={total_incr} "
         f"({total_full / max(total_incr, 1):.1f}x)")
    assert total_incr * 5 <= total_full


def test_e26_rate_drift_churn():
    """w/c drift: a changed rate dirties one root path; everything else
    answers from cache."""
    tree = e26_tree(nodes=500, seed=3)
    solver = IncrementalSolver(tree)
    solver.solve()
    rng = random.Random(3)
    for _ in range(10):
        node = rng.choice([n for n in solver.tree.nodes()
                           if n != solver.tree.root])
        if rng.random() < 0.5:
            solver.set_w(node, solver.tree.w(node) * rng.choice([2, 3]))
        else:
            solver.set_c(node, solver.tree.c(node) * rng.choice([2, 3]))
        got = solver.solve()
        ref = bw_first(solver.tree)
        assert got.outcomes == ref.outcomes
        assert got.transactions == ref.transactions
        assert solver.last_evals < len(ref.outcomes)


def test_e26_perf_smoke_gate():
    """The CI regression gate: on a small tree, a single-leaf prune must
    cost strictly fewer node evaluations than a full solve — no wall-clock
    thresholds, so it cannot flake on slow runners."""
    tree = e26_tree(nodes=120, seed=E26_SEED)
    solver = IncrementalSolver(tree)
    solver.solve()
    victim = [n for n in solver.tree.leaves() if n != solver.tree.root][0]
    solver.prune(victim)
    got = solver.solve()
    ref = bw_first(solver.tree)
    assert got.throughput == ref.throughput
    assert got.outcomes == ref.outcomes
    assert solver.last_evals < len(ref.outcomes), (
        f"node_evals(incremental)={solver.last_evals} must be < "
        f"node_evals(full)={len(ref.outcomes)}")


#: the churn workload's shape: four ops a batch, mostly leaf weights drawn
#: from the smooth pool, the rest edge costs
CHURN_WEIGHTS = (2048, 3072, 4096, 6144)
CHURN_BATCHES = 24
#: rate() must cost at most this share of solve(): eight runs on a shared
#: 2-core x86-64 container read 0.62–0.72 (0.69, 0.67, 0.67, 0.72, 0.66,
#: 0.62, 0.69, 0.69) with the loop on Fraction, 0.32–0.34 on int pairs, and
#: 0.41–0.43 once solve()'s replay splices the subtrees that did not change
#: (a cheaper solve() moves the ratio up, towards the bar)
RATE_OVER_SOLVE = 0.8


def churn_batches(tree, batches=CHURN_BATCHES, seed=E26_SEED):
    """Seeded four-op batches (``(method, node, value)``) valid on *tree*."""
    rng = random.Random(seed)
    mirror = tree.copy()
    out = []
    for _ in range(batches):
        batch = []
        for _ in range(4):
            if rng.random() < 0.8:
                node = rng.choice([n for n in mirror.leaves()
                                   if n != mirror.root])
                op = ("set_w", node, rng.choice(CHURN_WEIGHTS))
            else:
                node = rng.choice([n for n in mirror.nodes()
                                   if n != mirror.root])
                op = ("set_c", node, rng.choice((1, 2)))
            getattr(mirror, op[0])(op[1], op[2])
            batch.append(op)
        out.append(batch)
    return out


def test_e26_rate_over_solve_ratio_gate():
    """Best-of-5 ``rate()`` over a churn stream ≤ 0.8 × best-of-5
    ``solve()`` over the same stream, with every ``rate()`` equal to the
    paired ``solve()``'s ``(t_max, throughput)`` at the same
    ``last_evals``.  The two solvers take turns batch by batch, so host
    noise lands on both."""
    tree = smooth_tree(240, E26_SEED)
    batches = churn_batches(tree)
    best = {"rate": None, "solve": None}
    for _ in range(5):
        solvers = {"rate": IncrementalSolver(tree),
                   "solve": IncrementalSolver(tree)}
        for solver in solvers.values():
            solver.solve()
        spent = dict.fromkeys(solvers, 0.0)
        for batch in batches:
            answers = {}
            for how, solver in solvers.items():
                for method, node, value in batch:
                    getattr(solver, method)(node, value)
                gc.collect()
                gc.disable()
                try:
                    t0 = time.process_time()
                    answers[how] = getattr(solver, how)()
                    spent[how] += time.process_time() - t0
                finally:
                    gc.enable()
            result = answers["solve"]
            assert answers["rate"] == (result.t_max, result.throughput)
            assert solvers["rate"].last_evals == solvers["solve"].last_evals
        for how, seconds in spent.items():
            best[how] = seconds if best[how] is None else min(best[how], seconds)
    ratio = best["rate"] / best["solve"]
    emit("E26: rate() vs solve() on churn batches (smooth_tree(240))",
         f"best-of-5 over {len(batches)} batches: rate {best['rate'] * 1e3:.1f} "
         f"ms, solve {best['solve'] * 1e3:.1f} ms (ratio {ratio:.2f}, "
         f"bar <= {RATE_OVER_SOLVE})")
    assert ratio <= RATE_OVER_SOLVE, (
        f"rate() costs {ratio:.2f} x solve() (bar {RATE_OVER_SOLVE})")


#: one node evaluation of rate() must cost at most this share of one of
#: bw_first_fraction (Algorithm 1 on ``Fraction``, the oracle kept in
#: ``tests/fraction_oracles.py``, which the bar was set against): the
#: int-pair loop read 0.39–0.46 on a shared 2-core x86-64 container, the
#: Fraction loop it replaced 1.26–1.47
RATE_PER_EVAL_OVER_BW_FIRST = 0.7


def test_e26_rate_per_eval_gate():
    """Best-of-5 ``rate()`` µs per node evaluation ≤ 0.7 × best-of-5
    ``bw_first_fraction`` µs per node evaluation, over the same churn
    stream of ``smooth_tree(240)`` in the same run, with every ``rate()``
    equal to the oracle's ``(t_max, throughput)``.  A ``rate()`` evaluation
    is a miss (``last_evals``), an oracle one a visited node; the calls
    take turns batch by batch, so host noise lands on all.  Production
    ``bw_first``, on the same int-pair step as ``rate()``, is timed
    alongside and its ratio printed, not gated."""
    tree = smooth_tree(240, E26_SEED)
    batches = churn_batches(tree)
    best = {"rate": None, "bw_first_fraction": None, "bw_first": None}
    for _ in range(5):
        solver = IncrementalSolver(tree)
        solver.solve()
        mirror = tree.copy()
        spent = dict.fromkeys(best, 0.0)
        evals = dict.fromkeys(best, 0)
        for batch in batches:
            for method, node, value in batch:
                getattr(solver, method)(node, value)
                getattr(mirror, method)(node, value)
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                answer = solver.rate()
                t1 = time.process_time()
                ref = bw_first_fraction(mirror)
                t2 = time.process_time()
                production = bw_first(mirror)
                t3 = time.process_time()
            finally:
                gc.enable()
            assert answer == (ref.t_max, ref.throughput)
            assert (production.t_max, production.throughput) == answer
            spent["rate"] += t1 - t0
            spent["bw_first_fraction"] += t2 - t1
            spent["bw_first"] += t3 - t2
            evals["rate"] += solver.last_evals
            evals["bw_first_fraction"] += len(ref.outcomes)
            evals["bw_first"] += len(production.outcomes)
        for how, seconds in spent.items():
            best[how] = seconds if best[how] is None else min(best[how], seconds)
    per_eval = {how: best[how] / evals[how] * 1e6 for how in best}
    ratio = per_eval["rate"] / per_eval["bw_first_fraction"]
    over_production = per_eval["rate"] / per_eval["bw_first"]
    emit("E26: rate() vs bw_first per node evaluation (smooth_tree(240))",
         f"best-of-5 over {len(batches)} batches: rate {per_eval['rate']:.1f} "
         f"us x {evals['rate']} evals, bw_first_fraction "
         f"{per_eval['bw_first_fraction']:.1f} us x "
         f"{evals['bw_first_fraction']} evals (ratio {ratio:.2f}, "
         f"bar <= {RATE_PER_EVAL_OVER_BW_FIRST}), bw_first "
         f"{per_eval['bw_first']:.1f} us (ratio {over_production:.2f})")
    assert ratio <= RATE_PER_EVAL_OVER_BW_FIRST, (
        f"a rate() evaluation costs {ratio:.2f} x a bw_first_fraction one "
        f"(bar {RATE_PER_EVAL_OVER_BW_FIRST})")


#: from_bw_first on a solver's result must cost at most this share of
#: from_bw_first on bw_first's: 0.27-0.39 on a shared 2-core x86-64
#: container, where the spliced call copies the previous allocation's maps
#: and checks the constraints around the changed nodes only
SPLICED_ALLOCATION_OVER_COLD = 0.5


def test_e26_spliced_allocation_ratio_gate():
    """Best-of-5 ``from_bw_first(solver.solve())`` over a churn stream ≤
    0.5 × best-of-5 ``from_bw_first(bw_first(tree))`` over the same
    stream, each spliced allocation ``==`` the cold one.  The solver's
    result carries what changed since the previous result, so the spliced
    call starts from the previous allocation; ``bw_first``'s carries
    nothing.  The two calls take turns batch by batch, so host noise lands
    on both; the solves themselves are not timed."""
    tree = smooth_tree(240, E26_SEED)
    batches = churn_batches(tree)
    best = {"spliced": None, "cold": None}
    for _ in range(5):
        solver = IncrementalSolver(tree)
        from_bw_first(solver.solve())
        mirror = tree.copy()
        spent = dict.fromkeys(best, 0.0)
        for batch in batches:
            for method, node, value in batch:
                getattr(solver, method)(node, value)
                getattr(mirror, method)(node, value)
            results = {"spliced": solver.solve(), "cold": bw_first(mirror)}
            allocations = {}
            for how, result in results.items():
                gc.collect()
                gc.disable()
                try:
                    t0 = time.process_time()
                    allocations[how] = from_bw_first(result)
                    spent[how] += time.process_time() - t0
                finally:
                    gc.enable()
            assert allocations["spliced"] == allocations["cold"]
        for how, seconds in spent.items():
            best[how] = seconds if best[how] is None else min(best[how], seconds)
    ratio = best["spliced"] / best["cold"]
    emit("E26: from_bw_first spliced vs cold on churn batches (smooth_tree(240))",
         f"best-of-5 over {len(batches)} batches: spliced "
         f"{best['spliced'] * 1e3:.1f} ms, cold {best['cold'] * 1e3:.1f} ms "
         f"(ratio {ratio:.2f}, bar <= {SPLICED_ALLOCATION_OVER_COLD})")
    assert ratio <= SPLICED_ALLOCATION_OVER_COLD, (
        f"spliced from_bw_first costs {ratio:.2f} x the cold one "
        f"(bar {SPLICED_ALLOCATION_OVER_COLD})")

"""Exactness properties of the scaled-integer timeline kernel.

The tentpole claim of :mod:`repro.core.timeline` is that the production
``"array"`` simulation kernel is a *pure speedup*: every observable — the
full trace (segments, completions, arrivals, buffer deltas, releases),
the end time, the scaled period quantities — is ``==`` to the
``Fraction`` reference simulator, including under mid-run rescales,
crashes, re-joins and online reconfiguration.  These tests pin that claim
on 25 seeded random trees, and pin the reference itself to trace digests
recorded before it was separated from the production class.

Also covered here: the fragment-caching incremental schedule builder
(equal to a full rebuild across prune/graft/set_w/set_c), the
``global_period`` blow-up guard and the solver's memo-eviction warning.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.core.incremental import IncrementalSolver, _IFrame, _Sol
from repro.core.rates import is_infinite
from repro.core.timeline import IntTimeline, denominator_lcm, timeline_for
from repro.exceptions import ScheduleError, SimulationError
from repro.platform.tree import Tree
from repro.schedule.eventdriven import build_schedules
from repro.schedule.periods import MAX_PERIOD_BITS, global_period, tree_periods
from repro.sim import KERNELS, ReferenceSimulation
from repro.sim.base import Controller
from repro.sim.simulator import Simulation, simulate
from repro.telemetry import Registry
from repro.telemetry.core import NULL

from .fraction_oracles import tree_periods_fraction

SEEDS = list(range(25))

#: every kernel that must be bit-identical to the Fraction reference
ALL_KERNELS = tuple(KERNELS)

W_CHOICES = [Fraction(2), Fraction(3), Fraction(4), Fraction(6),
             Fraction(8), Fraction(5, 2), Fraction(7, 2)]
C_CHOICES = [Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2)]


def random_tree(seed: int, size: int = 12) -> Tree:
    """A small random platform with mixed rate denominators."""
    rng = random.Random(seed)
    tree = Tree("n0", w=rng.choice(W_CHOICES))
    names = ["n0"]
    for i in range(1, size):
        name = f"n{i}"
        tree.add_node(name, rng.choice(W_CHOICES),
                      parent=rng.choice(names), c=rng.choice(C_CHOICES))
        names.append(name)
    return tree


def solved(tree: Tree):
    allocation = from_bw_first(bw_first(tree))
    periods = tree_periods(allocation)
    schedules = build_schedules(allocation, periods=periods)
    return allocation, periods, schedules


def assert_traces_equal(a, b) -> None:
    assert a.segments == b.segments
    assert a.completions == b.completions
    assert a.arrivals == b.arrivals
    assert a.buffer_deltas == b.buffer_deltas
    assert a.releases == b.releases
    assert a.end_time == b.end_time


# ----------------------------------------------------------------------
# kernel equivalence on 25 seeded random trees
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_trace_bit_identical(self, seed):
        tree = random_tree(seed)
        _, periods, schedules = solved(tree)
        horizon = Fraction(global_period(periods)) * Fraction(3, 2)
        results = {}
        for kernel in ALL_KERNELS:
            results[kernel] = simulate(tree, horizon=horizon, kernel=kernel)
        assert_traces_equal(results["array"].trace, results["fraction"].trace)
        assert results["array"].released == results["fraction"].released
        assert results["array"].stop_time == results["fraction"].stop_time

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scaled_periods_equal_fraction_periods(self, seed):
        tree = random_tree(seed)
        allocation, periods, _ = solved(tree)
        assert periods == tree_periods_fraction(allocation)

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_lean_trace_end_time_matches(self, seed):
        tree = random_tree(seed)
        _, periods, _ = solved(tree)
        horizon = Fraction(global_period(periods))
        full = simulate(tree, horizon=horizon, kernel="fraction")
        lean = simulate(tree, horizon=horizon, kernel="array",
                        record_segments=False, record_buffers=False)
        assert lean.trace.completions == full.trace.completions
        assert lean.trace.end_time == full.trace.end_time

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_crash_traces_identical(self, seed):
        tree = random_tree(seed)
        rng = random.Random(1000 + seed)
        victim = rng.choice([n for n in tree.nodes() if n != tree.root])
        _, periods, schedules = solved(tree)
        t = Fraction(global_period(periods))
        results = {}
        for kernel in ALL_KERNELS:
            sim = KERNELS[kernel](tree, dict(schedules), dict(periods),
                                  horizon=2 * t)
            sim.schedule_failure(victim, t * Fraction(2, 3))
            results[kernel] = sim.run()
        assert_traces_equal(results["array"].trace, results["fraction"].trace)
        assert results["array"].tasks_lost == results["fraction"].tasks_lost
        assert results["array"].failed_at == results["fraction"].failed_at

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_crash_then_rejoin_reconfigure_identical(self, seed):
        """Crash a subtree, then reconfigure onto the survivors' schedule —
        the recovery scenario — identically on both kernels."""
        tree = random_tree(seed)
        rng = random.Random(2000 + seed)
        victim = rng.choice([n for n in tree.nodes() if n != tree.root])
        _, periods, schedules = solved(tree)
        survivors = tree.without_subtrees([victim])
        _, new_periods, new_schedules = solved(survivors)
        t = Fraction(global_period(periods))
        t_crash, t_switch = t * Fraction(1, 2), t
        results = {}
        for kernel in ALL_KERNELS:
            sim = KERNELS[kernel](tree, dict(schedules), dict(periods),
                                  horizon=2 * t)
            sim.schedule_failure(victim, t_crash)
            sim.engine.schedule_at(
                t_switch, lambda s=sim: s.reconfigure(new_schedules, new_periods))
            results[kernel] = sim.run()
        assert_traces_equal(results["array"].trace, results["fraction"].trace)
        assert results["array"].tasks_lost == results["fraction"].tasks_lost

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_midrun_rescale_equivalence(self, seed):
        """A control job with a foreign denominator forces the tick kernel
        to rescale mid-run; the trace must stay bit-identical."""
        tree = random_tree(seed)
        _, periods, schedules = solved(tree)
        t = Fraction(global_period(periods))
        node = next(iter(schedules))
        results = {}
        for kernel in ALL_KERNELS:
            sim = KERNELS[kernel](tree, dict(schedules), dict(periods),
                                  horizon=2 * t)
            sim.engine.schedule_at(
                t * Fraction(1, 3),
                lambda s=sim: s.inject_control(node, Fraction(1, 7)))
            sim.engine.schedule_at(
                t * Fraction(2, 3),
                lambda s=sim: s.inject_control(node, Fraction(1, 11)))
            results[kernel] = sim.run()
        assert_traces_equal(results["array"].trace, results["fraction"].trace)


# ----------------------------------------------------------------------
# the oracle, pinned: trace digests recorded from the Fraction kernel at
# the commit *before* the reference was split out of the production class
# ----------------------------------------------------------------------
DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "sim_trace_digests.json").read_text())

SCENARIOS = ("plain", "crash", "rejoin", "rescale", "buffered")


def trace_digest(result) -> str:
    """SHA-256 over every observable of a fully-recorded run, in one
    canonical text form (rationals as ``n/d``, node names as ``str``)."""
    trace = result.trace
    canonical = (
        [(str(s.node), s.kind, str(s.start), str(s.end), str(s.peer))
         for s in trace.segments],
        [(str(t), str(n)) for t, n in trace.completions],
        [(str(t), str(n)) for t, n in trace.arrivals],
        [(str(t), str(n)) for t, n in trace.releases],
        [(str(t), str(n), d) for t, n, d in trace.buffer_deltas],
        result.released, str(result.stop_time), result.tasks_lost,
        sorted((str(n), str(t)) for n, t in result.failed_at.items()),
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def run_scenario(scenario: str, seed: int, kernel: str):
    """One of the five pinned stories on ``random_tree(seed)``."""
    tree = random_tree(seed)
    _, periods, schedules = solved(tree)
    t = Fraction(global_period(periods))
    if scenario == "plain":
        return simulate(tree, horizon=t * Fraction(3, 2), kernel=kernel)
    if scenario == "buffered":
        return simulate(tree, horizon=2 * t, kernel=kernel,
                        compute_during_startup=False)
    sim = KERNELS[kernel](tree, dict(schedules), dict(periods), horizon=2 * t)
    at = sim.engine.schedule_at
    if scenario == "rescale":
        # control jobs with foreign denominators: the tick kernel rescales
        node = next(iter(schedules))
        at(t / 3, lambda: sim.inject_control(node, Fraction(1, 7)))
        at(t * Fraction(2, 3),
           lambda: sim.inject_control(node, Fraction(1, 11)))
        return sim.run()
    victim = random.Random(1000 + seed).choice(
        [n for n in tree.nodes() if n != tree.root])
    sim.schedule_failure(victim, t / 3)
    if scenario == "rejoin":
        # crash → switch to the survivors → repair → switch back: the
        # victim's subtree drains by retired orders, then is routed again
        _, new_periods, new_schedules = solved(
            tree.without_subtrees([victim]))
        at(t / 2, lambda: sim.reconfigure(new_schedules, new_periods))
        at(t * Fraction(3, 4), lambda: sim.revive_node(victim))
        at(t, lambda: sim.reconfigure(schedules, periods))
    return sim.run()


class TestPinnedOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_both_kernels_reproduce_the_recorded_digests(self, seed):
        for scenario in SCENARIOS:
            for kernel in KERNELS:
                got = trace_digest(run_scenario(scenario, seed, kernel))
                assert got == DIGESTS[scenario][str(seed)], (
                    f"{kernel} kernel diverged from the pinned oracle on "
                    f"{scenario!r}, seed {seed}")


# ----------------------------------------------------------------------
# kernel selection: two names, one mapping, typed errors for the rest
# ----------------------------------------------------------------------
class TestKernelSelection:
    def test_mapping_names_the_two_classes(self):
        assert KERNELS == {"array": Simulation,
                           "fraction": ReferenceSimulation}

    def test_removed_and_unknown_names_raise_naming_the_accepted(self):
        from repro.faults import FaultPlan, NodeCrash, resilient_run

        tree = random_tree(0)
        _, periods, schedules = solved(tree)
        plan = FaultPlan(crashes=(NodeCrash("n1", Fraction(2)),))
        with pytest.raises(SimulationError, match="'array', 'fraction'"):
            simulate(tree, horizon=Fraction(5), kernel="int")
        with pytest.raises(SimulationError, match="'array', 'fraction'"):
            resilient_run(tree, plan, kernel="int")
        with pytest.raises(SimulationError, match="'array'.*Reference"):
            Simulation(tree, schedules, periods, horizon=Fraction(5),
                       kernel="fraction")

    def test_positional_kernel_builds_the_production_class(self):
        tree = random_tree(0)
        _, periods, schedules = solved(tree)
        sim = Simulation(tree, schedules, periods, None, Fraction(5), None,
                         None, "even", True, True, True, 5_000_000, None,
                         "array")
        assert type(sim) is Simulation
        assert sim.run().completed > 0


class TestRetiredSchedules:
    def test_fresh_controller_has_retired_nothing(self):
        _, _, schedules = solved(random_tree(0))
        assert Controller(schedules).retired == {}

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_node_retired_two_switches_ago_drains_by_its_old_order(
            self, kernel):
        """Two reconfigurations in a row while a transfer to ``a`` is on
        the wire: ``a`` left the schedules at the first switch, yet the
        task landing afterwards is still routed by a's original order."""
        tree = Tree("root", w=Fraction(2))
        tree.add_node("a", Fraction(2), parent="root", c=Fraction(1, 2))
        tree.add_node("b", Fraction(3), parent="root", c=Fraction(1))
        tree.add_node("a1", Fraction(2), parent="a", c=Fraction(1))
        _, periods, schedules = solved(tree)
        _, new_periods, new_schedules = solved(tree.without_subtrees(["a"]))
        horizon = Fraction(global_period(periods)) * 2
        plain = KERNELS[kernel](tree, dict(schedules), dict(periods),
                                horizon=horizon).run()
        wire = [s for s in plain.trace.segments_for("root", "send")
                if s.peer == "a" and s.start > 0][0]
        t_switch = (wire.start + wire.end) / 2

        sim = KERNELS[kernel](tree, dict(schedules), dict(periods),
                              horizon=horizon)
        for _ in range(2):
            sim.engine.schedule_at(
                t_switch,
                lambda: sim.reconfigure(new_schedules, new_periods))
        result = sim.run()
        assert set(sim.controller.retired) >= {"a", "a1"}
        landed = [t for t, n in result.trace.arrivals if n == "a"]
        assert landed[-1] > t_switch
        old_order = [schedules["a"].destination(i) for i in range(len(landed))]
        by_node = result.trace.completions_by_node()
        assert by_node["a"] == old_order.count("a")
        assert by_node["a1"] == old_order.count("a1")


# ----------------------------------------------------------------------
# array-kernel specifics: exact int durations, counts-only mode
# ----------------------------------------------------------------------
#: both kernels on one tree in a fresh interpreter that cannot import numpy
NO_NUMPY_RUN = """
import json, sys
sys.modules["numpy"] = None  # every `import numpy` now raises ImportError
from fractions import Fraction
from repro.platform.serialization import tree_from_dict
from repro.sim.simulator import simulate
tree, horizon = tree_from_dict(json.loads(sys.argv[1])), Fraction(sys.argv[2])
a, f = (simulate(tree, horizon=horizon, kernel=k).trace
        for k in ("array", "fraction"))
print(all(getattr(a, name) == getattr(f, name) for name in (
    "segments", "completions", "arrivals", "buffer_deltas", "releases",
    "end_time")))
"""


class TestArrayKernel:
    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_no_numpy_fallback_bit_identical(self, seed):
        """The simulator needs no numpy and has no fallback: on a host
        without it the array kernel still equals the Fraction reference."""
        import os
        import subprocess
        import sys

        import repro
        from repro.platform.serialization import tree_to_dict

        tree = random_tree(seed)
        _, periods, _ = solved(tree)
        horizon = Fraction(global_period(periods))
        src = str(Path(repro.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c", NO_NUMPY_RUN,
             json.dumps(tree_to_dict(tree)), str(horizon)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "True"

    def test_duration_tables_are_exact_int_lists(self):
        """The tick tables are plain lists of Python ints: a rescale
        multiplies them in place, so the compiled handlers keep reading
        the current values."""
        tree = random_tree(0)
        _, periods, schedules = solved(tree)
        sim = Simulation(tree, schedules, periods, horizon=Fraction(5))
        w_ticks, cost_ticks = sim._w_ticks, sim._cost_ticks
        sim._units(Fraction(1, 7919))  # a foreign denominator: rescale
        assert sim._w_ticks is w_ticks and sim._cost_ticks is cost_ticks
        scale = sim._timeline.scale
        assert scale % 7919 == 0
        for name in tree.nodes():
            i = sim._index[name]
            assert type(w_ticks[i]) is int and type(cost_ticks[i]) is int
            if not is_infinite(tree.w(name)):
                assert w_ticks[i] == tree.w(name) * scale
            if tree.parent(name) is not None:
                assert cost_ticks[i] == tree.c(name) * scale

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_counts_only_matches_full(self, seed):
        """record_events=False keeps only the completion counter and end
        time — both must equal the fully-recorded Fraction run."""
        tree = random_tree(seed)
        _, periods, _ = solved(tree)
        horizon = Fraction(global_period(periods)) * Fraction(3, 2)
        full = simulate(tree, horizon=horizon, kernel="fraction")
        lean = simulate(tree, horizon=horizon, kernel="array",
                        record_segments=False, record_buffers=False,
                        record_events=False)
        assert lean.trace.completions == []
        assert lean.trace.completed == full.trace.completed
        assert lean.trace.end_time == full.trace.end_time

    def test_counts_only_requires_lean_trace(self):
        tree = random_tree(0)
        with pytest.raises(Exception, match="counts-only"):
            simulate(tree, horizon=Fraction(5), kernel="array",
                     record_events=False)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_custom_controller_path_bit_identical(self, seed):
        """A non-default controller (buffered start overrides may_compute)
        must route through the generic path with identical results."""
        tree = random_tree(seed)
        _, periods, _ = solved(tree)
        horizon = Fraction(global_period(periods)) * 2
        ra = simulate(tree, horizon=horizon, kernel="array",
                      compute_during_startup=False)
        rf = simulate(tree, horizon=horizon, kernel="fraction",
                      compute_during_startup=False)
        assert_traces_equal(ra.trace, rf.trace)

    @pytest.mark.parametrize("no_numpy", [False, True])
    def test_int64_overflow_falls_back_exactly(self, no_numpy, monkeypatch):
        """A mid-run rescale past 2^64 ticks is plain int arithmetic, so
        there is nothing to fall back to: no warning, no numpy needed
        (``no_numpy`` blocks its import for the run), and the trace
        equals the Fraction reference."""
        import sys
        import warnings

        if no_numpy:
            monkeypatch.setitem(sys.modules, "numpy", None)
        tree = random_tree(3)
        _, periods, schedules = solved(tree)
        t = Fraction(global_period(periods))
        huge = Fraction(1, (1 << 64) + 13)
        node = next(iter(schedules))
        sims, results = {}, {}
        for kernel in ("array", "fraction"):
            sim = sims[kernel] = KERNELS[kernel](
                tree, dict(schedules), dict(periods), horizon=2 * t,
                telemetry=Registry())
            sim.engine.schedule_at(
                t * Fraction(1, 3),
                lambda s=sim: s.inject_control(node, huge))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                results[kernel] = sim.run()
        assert min(sims["array"]._w_ticks) > 1 << 64
        assert_traces_equal(results["array"].trace,
                            results["fraction"].trace)

    def test_live_gauges_flow(self):
        """The dashboard's ``sim.events_processed``/``sim.clock`` gauges
        stream from the array kernel's compiled handlers too."""
        tree = random_tree(4)
        _, periods, schedules = solved(tree)
        t = Fraction(global_period(periods))
        registry = Registry()
        sim = Simulation(tree, dict(schedules), dict(periods),
                         horizon=2 * t, kernel="array", telemetry=registry)
        sim.run()
        assert registry.value("sim.events_processed") == sim.engine.processed
        assert sim.engine.processed > 0
        # sim.clock is refreshed per completion; the last one lands at or
        # before the engine's final clock
        assert 0 < registry.value("sim.clock") <= sim.engine.now


# ----------------------------------------------------------------------
# incremental schedule reconstruction == full rebuild, across mutations
# ----------------------------------------------------------------------
class TestIncrementalBuilder:
    def check_build(self, inc, builder):
        allocation = from_bw_first(inc.solve())
        periods, schedules = builder.build(allocation)
        assert periods == tree_periods(allocation)
        assert schedules == build_schedules(allocation, periods=periods)
        return allocation

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_equal_across_mutations(self, seed):
        tree = random_tree(seed, size=16)
        rng = random.Random(3000 + seed)
        inc = IncrementalSolver(tree)
        builder = inc.schedule_builder()
        self.check_build(inc, builder)

        # crash: prune a random leaf, remember it for the re-join
        leaves = [n for n in inc.tree.nodes()
                  if not list(inc.tree.children(n)) and n != inc.tree.root]
        victim = rng.choice(leaves)
        parent = inc.tree.parent(victim)
        w, c = inc.tree.w(victim), inc.tree.c(victim)
        inc.prune(victim)
        self.check_build(inc, builder)

        # re-join: graft the crashed leaf back
        inc.graft(parent, c, Tree(victim, w=w))
        self.check_build(inc, builder)

        # platform drift: perturb one w and one c
        nodes = list(inc.tree.nodes())
        inc.set_w(rng.choice(nodes), rng.choice(W_CHOICES))
        self.check_build(inc, builder)
        non_root = [n for n in nodes if n != inc.tree.root]
        inc.set_c(rng.choice(non_root), rng.choice(C_CHOICES))
        self.check_build(inc, builder)

    def test_leaf_mutation_recomputes_only_root_path(self):
        tree = random_tree(0, size=60)
        inc = IncrementalSolver(tree)
        builder = inc.schedule_builder()
        self.check_build(inc, builder)
        assert builder.last_recomputed == len(list(inc.tree.nodes()))

        leaves = [n for n in inc.tree.nodes() if not list(inc.tree.children(n))]
        inc.prune(leaves[-1])
        self.check_build(inc, builder)
        n = len(list(inc.tree.nodes()))
        # the ≥5× bar of E27, on a deliberately small tree
        assert builder.last_recomputed * 5 <= n
        assert builder.last_spliced == n - builder.last_recomputed

    def test_rejects_foreign_allocation(self):
        inc = IncrementalSolver(random_tree(1))
        inc.solve()
        foreign = from_bw_first(bw_first(random_tree(1)))
        with pytest.raises(ScheduleError, match="latest solve"):
            inc.schedule_builder().build(foreign)

    def test_stale_allocation_rejected_after_mutation(self):
        inc = IncrementalSolver(random_tree(2, size=10))
        stale = from_bw_first(inc.solve())
        leaves = [n for n in inc.tree.nodes() if not list(inc.tree.children(n))]
        inc.prune(leaves[-1])
        inc.solve()
        with pytest.raises(ScheduleError, match="latest solve"):
            inc.schedule_builder().build(stale)

    def test_builder_is_cached_on_solver(self):
        inc = IncrementalSolver(random_tree(3))
        assert inc.schedule_builder() is inc.schedule_builder()

    def test_telemetry_counters(self):
        registry = Registry()
        tree = random_tree(4, size=20)
        inc = IncrementalSolver(tree, telemetry=registry)
        builder = inc.schedule_builder()
        self.check_build(inc, builder)
        n = len(list(inc.tree.nodes()))
        assert registry.value("sched.periods_recomputed") == n
        leaves = [x for x in inc.tree.nodes() if not list(inc.tree.children(x))]
        inc.prune(leaves[-1])
        self.check_build(inc, builder)
        assert registry.value("sched.fragments_spliced") == builder.last_spliced
        assert builder.last_spliced > 0


# ----------------------------------------------------------------------
# the IntTimeline itself
# ----------------------------------------------------------------------
class TestIntTimeline:
    def test_ensure_and_roundtrip(self):
        tl = IntTimeline(6)
        assert tl.ensure(Fraction(1, 2)) == 3
        assert tl.ensure(Fraction(5, 3)) == 10
        assert tl.to_fraction(10) == Fraction(5, 3)
        assert tl.scale == 6

    def test_ensure_grows_scale(self):
        tl = IntTimeline(6)
        fired = []
        tl.on_rescale(fired.append)
        assert tl.ensure(Fraction(1, 4)) == 3  # scale 6 → 12
        assert tl.scale == 12
        assert fired == [2]
        assert tl.rescales == 1

    def test_ensure_all_grows_once(self):
        tl = IntTimeline(1)
        fired = []
        tl.on_rescale(fired.append)
        tl.ensure_all([Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)])
        assert tl.scale == 60
        assert fired == [60]  # one joint growth, not three

    def test_denominator_lcm(self):
        assert denominator_lcm([]) == 1
        assert denominator_lcm([Fraction(1, 6), Fraction(3, 4)]) == 12

    def test_timeline_for_covers_upfront_rates(self):
        """The initial scale covers every duration converted up front: node
        weights, edge costs, the *root* grid and the horizon.  Non-root
        consumption periods are deliberately excluded (clock-free nodes
        never convert them; including 10k of them blows up every tick
        value) — they are covered adaptively if a reconfiguration ever
        promotes them."""
        tree = random_tree(5)
        _, periods, schedules = solved(tree)
        tl = timeline_for(tree, schedules.values(), horizon=Fraction(7, 3))
        root_p = periods[tree.root]
        bunch = schedules[tree.root].bunch
        assert (Fraction(root_p.t_consume) * tl.scale).denominator == 1
        assert (Fraction(root_p.t_consume, bunch) * tl.scale).denominator == 1
        for n in tree.nodes():
            if not is_infinite(tree.w(n)):
                assert (tree.w(n) * tl.scale).denominator == 1
            if tree.parent(n) is not None:
                assert (tree.c(n) * tl.scale).denominator == 1
        assert (Fraction(7, 3) * tl.scale).denominator == 1


# ----------------------------------------------------------------------
# satellite: the global-period blow-up guard
# ----------------------------------------------------------------------
class TestGlobalPeriodGuard:
    def test_default_cap_admits_normal_trees(self):
        _, periods, _ = solved(random_tree(6))
        assert global_period(periods) == global_period(periods, max_bits=None)

    def test_blow_up_raises_with_node(self):
        tree = random_tree(6)
        _, periods, _ = solved(tree)
        with pytest.raises(ScheduleError, match="astronomically long"):
            global_period(periods, max_bits=0)

    def test_blow_up_names_root_path(self):
        tree = random_tree(6)
        _, periods, _ = solved(tree)
        with pytest.raises(ScheduleError, match="n0"):
            global_period(periods, max_bits=0, tree=tree)

    def test_period_bits_gauge(self):
        registry = Registry()
        _, periods, _ = solved(random_tree(7))
        t = global_period(periods, telemetry=registry)
        assert registry.value("sched.period_bits") == t.bit_length()
        assert t.bit_length() <= MAX_PERIOD_BITS


# ----------------------------------------------------------------------
# satellite: memo-eviction telemetry + warning
# ----------------------------------------------------------------------
class TestEvictionWarning:
    def _force_evictions(self, inc, count=1):
        """Drive the per-β memo of the root entry over its cap."""
        sol = _Sol(1, 1, 1, 1, 0, 1, 1, 1, (), 1)
        stores = 0
        root = inc.tree.root
        while inc.stats["evictions"] < count:
            stores += 1
            frame = _IFrame(root, stores, 997, 1, 2, ())
            frame.saturated = False
            inc._store(frame, sol)

    def test_memo_evictions_counter_and_warning(self):
        registry = Registry()
        inc = IncrementalSolver(Tree("n0", w=Fraction(2)), telemetry=registry)
        self._force_evictions(inc)
        assert registry.value("incr.memo_evictions") == 1
        assert len(registry.warnings) == 1
        assert "eviction rate" in registry.warnings[0]

    def test_warning_emitted_once(self):
        registry = Registry()
        inc = IncrementalSolver(Tree("n0", w=Fraction(2)), telemetry=registry)
        self._force_evictions(inc, count=3)
        assert registry.value("incr.memo_evictions") == 3
        assert len(registry.warnings) == 1

    def test_no_warning_below_rate(self):
        registry = Registry()
        inc = IncrementalSolver(Tree("n0", w=Fraction(2)), telemetry=registry)
        inc.stats["lookups"] = 10_000  # plenty of lookups: 2·evictions ≤ lookups
        self._force_evictions(inc)
        assert registry.value("incr.memo_evictions") == 1
        assert registry.warnings == []

    def test_registry_warn_deduplicates(self):
        registry = Registry()
        registry.warn("once")
        registry.warn("once")
        registry.warn("twice")
        assert registry.warnings == ["once", "twice"]

    def test_null_registry_warn_is_noop(self):
        NULL.warn("dropped")
        assert not hasattr(NULL, "warnings") or not NULL.warnings

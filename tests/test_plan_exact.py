"""The integer planning chain reproduces the rational one, output for output.

``from_bw_first`` → ``tree_periods`` → ``build_schedules`` run on integer
numerators and denominators; the rational bodies they replaced live on in
:mod:`tests.fraction_oracles`.  Three kinds of evidence that no output
moved:

* **pinned digests** — ``tests/data/plan_digests.json`` holds a SHA-256
  over the canonical text of every period quantity and every bunch order
  for 25 seeds × five platform families, recorded by running this module
  (``PYTHONPATH=<parent checkout>/src python -m tests.test_plan_exact``)
  against the commit *before* the chain changed;
* **differential properties** — the interleave, ``scaled_integer``, the
  per-node periods and ``Allocation.check`` against their oracles on
  seeded random inputs, ties and degenerate cases included;
* **fail-closed cases** — hand-broken allocations ``Allocation.check``,
  which decides every constraint on integers over one common
  denominator, must still reject with the oracle's message (a hypothesis
  property adds perturbed random allocations).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation, from_bw_first
from repro.core.bwfirst import bw_first
from repro.core.incremental import IncrementalSolver
from repro.core.rates import scaled_integer
from repro.exceptions import ScheduleError
from repro.platform.examples import paper_figure4_tree
from repro.platform.generators import fork, random_tree, smooth_tree
from repro.platform.tree import Tree
from repro.schedule.eventdriven import build_schedules
from repro.schedule.local import interleaved_order, is_palindromic
from repro.schedule.periods import tree_periods

from .fraction_oracles import (
    check_fraction,
    interleaved_order_fraction,
    scaled_integer_fraction,
    tree_periods_fraction,
)

F = Fraction
SEEDS = list(range(25))
DIGEST_FILE = Path(__file__).parent / "data" / "plan_digests.json"


# ----------------------------------------------------------------------
# the five pinned platform families
# ----------------------------------------------------------------------
def wide_fork(seed: int) -> Tree:
    """Twelve cheap-link children of two speeds under a computing root:
    children of one speed get equal ψ, so every mark is a tie."""
    rng = random.Random(seed)
    cost = rng.choice([F(1, 16), F(1, 32)])
    return fork([rng.choice([8, 16]) for _ in range(12)], [cost] * 12,
                root_w=rng.choice([8, 16]))


def scale_factor(seed: int) -> Fraction:
    return F(2 * seed + 1, seed % 3 + 1)


def figure4_scaled(seed: int) -> Tree:
    """The paper's Figure 4 tree with every ``w`` and ``c`` times ``k``
    (seed 0 is the tree itself): the ``scale_weights`` covariance case."""
    k = scale_factor(seed)
    return paper_figure4_tree().scale_weights(k, k)


FAMILIES = {
    "smooth": lambda seed: smooth_tree(300, seed),
    "random": lambda seed: random_tree(24, seed),
    "fork": wide_fork,
    "switches": lambda seed: random_tree(30, seed, switch_probability=0.4),
    "figure4_scaled": figure4_scaled,
}


def plan(tree: Tree):
    allocation = from_bw_first(bw_first(tree))
    periods = tree_periods(allocation)
    return allocation, periods, build_schedules(allocation, periods=periods)


def plan_digest(periods, schedules) -> str:
    """SHA-256 over every output of the chain in one canonical text form
    (rationals as ``n/d``, node names as ``str``, mappings in iteration
    order)."""
    def items(mapping):
        return [(str(k), v) for k, v in mapping.items()]

    canonical = (
        [(str(n), p.t_send, p.t_compute, p.t_receive, p.t_full,
          str(p.t_consume), items(p.phi_children), p.rho, p.phi_in,
          p.chi_in, p.chi_compute, items(p.chi_children), p.psi_self,
          items(p.psi_children))
         for n, p in periods.items()],
        [(str(n), items(s.quantities), [str(d) for d in s.order])
         for n, s in schedules.items()],
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


class TestPinnedPlans:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chain_reproduces_the_recorded_digests(self, seed):
        recorded = json.loads(DIGEST_FILE.read_text())
        for family, make in FAMILIES.items():
            _, periods, schedules = plan(make(seed))
            assert plan_digest(periods, schedules) == recorded[family][str(seed)], (
                f"the planning chain diverged from the pinned outputs on "
                f"{family!r}, seed {seed}")

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_chain_equals_the_fraction_oracles(self, seed):
        for make in FAMILIES.values():
            allocation, periods, schedules = plan(make(seed))
            check_fraction(allocation)
            assert periods == tree_periods_fraction(allocation)
            assert schedules == build_schedules(
                allocation, policy=interleaved_order_fraction, periods=periods)

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_incremental_builder_equals_the_chain(self, seed):
        for make in FAMILIES.values():
            solver = IncrementalSolver(make(seed))
            allocation = from_bw_first(solver.solve())
            periods, schedules = solver.schedule_builder().build(allocation)
            assert periods == tree_periods(allocation)
            assert schedules == build_schedules(allocation, periods=periods)

    def test_the_families_exercise_what_they_claim(self):
        _, periods, schedules = plan(FAMILIES["switches"](0))
        assert any(p.psi_self == 0 and p.bunch > 0 for p in periods.values())
        _, periods, schedules = plan(wide_fork(0))
        assert len(set(schedules["P0"].quantities.values())) <= 2
        assert len(schedules["P0"].quantities) == 13
        _, periods, schedules = plan(smooth_tree(300, 0))
        assert len(schedules) == 300

    @pytest.mark.parametrize("seed", SEEDS[1:])
    def test_scale_weights_covariance(self, seed):
        """Scaling every w and c by k leaves ψ and every bunch order alone
        and dilates the consumption period by exactly k."""
        _, base_periods, base_schedules = plan(paper_figure4_tree())
        _, periods, schedules = plan(figure4_scaled(seed))
        k = scale_factor(seed)
        assert {n: s.order for n, s in schedules.items()} == {
            n: s.order for n, s in base_schedules.items()}
        for node, p in periods.items():
            base = base_periods[node]
            assert (p.psi_self, p.psi_children) == (base.psi_self, base.psi_children)
            if p.bunch:  # idle nodes keep the trivial period 1
                assert p.t_consume == k * base.t_consume


# ----------------------------------------------------------------------
# the interleave against its oracle
# ----------------------------------------------------------------------
def random_bunch(rng: random.Random):
    """``(quantities, priority)`` with ties, zeros and ψ = 1 over-sampled."""
    dests = [f"d{i}" for i in range(rng.randint(1, 7))]
    shape = rng.random()
    if shape < 0.2:
        pool = [rng.randint(1, 12)]          # every ψ equal: ties on every mark
    elif shape < 0.4:
        pool = [1, 2, 3, 5, 11]              # ψ+1 share factors: many ties
    elif shape < 0.5:
        pool = [rng.randint(1, 5000) for _ in dests]
    else:
        pool = list(range(0, 40))            # zero-count destinations
    quantities = {d: rng.choice(pool) for d in dests}
    priority = list(dests)
    rng.shuffle(priority)
    return quantities, priority


class TestInterleaveOracle:
    @pytest.mark.parametrize("seed", range(100))
    def test_equal_to_the_fraction_marks(self, seed):
        quantities, priority = random_bunch(random.Random(seed))
        assert (interleaved_order(quantities, priority)
                == interleaved_order_fraction(quantities, priority))

    def test_large_psi(self):
        quantities = {"a": 5000, "b": 4999, "c": 2500, "d": 1}
        priority = ["d", "a", "c", "b"]
        assert (interleaved_order(quantities, priority)
                == interleaved_order_fraction(quantities, priority))

    @pytest.mark.parametrize("quantities", [
        {"a": 1}, {"a": 7}, {"a": 0}, {"a": 0, "b": 0}, {"a": 1, "b": 1},
        {"a": 1, "b": 1, "c": 1}, {"a": 0, "b": 5}, {},
    ])
    def test_degenerate_bunches(self, quantities):
        priority = list(quantities)
        assert (interleaved_order(quantities, priority)
                == interleaved_order_fraction(quantities, priority))

    def test_non_string_destinations(self):
        quantities = {(0, "x"): 3, 7: 2, None: 2}
        priority = [None, 7, (0, "x")]
        assert (interleaved_order(quantities, priority)
                == interleaved_order_fraction(quantities, priority))

    def test_paper_example(self):
        order = interleaved_order({"P0": 1, "P1": 2, "P2": 4}, ["P0", "P1", "P2"])
        assert order == ("P2", "P1", "P2", "P0", "P2", "P1", "P2")

    @pytest.mark.parametrize("seed", range(40))
    def test_tie_free_orders_are_palindromes(self, seed):
        # pairwise coprime ψ+1 put no two marks at one position
        rng = random.Random(seed)
        primes = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23], rng.randint(1, 5))
        quantities = {f"d{i}": p - 1 for i, p in enumerate(primes)}
        priority = list(quantities)
        rng.shuffle(priority)
        assert is_palindromic(interleaved_order(quantities, priority))

    @pytest.mark.parametrize("quantities,priority", [
        ({"a": 1}, ["a", "b"]),
        ({"a": 1, "b": 1}, ["a", "a", "b"]),
        ({"a": -1}, ["a"]),
    ])
    def test_same_validation_errors(self, quantities, priority):
        with pytest.raises(ScheduleError) as new:
            interleaved_order(quantities, priority)
        with pytest.raises(ScheduleError) as old:
            interleaved_order_fraction(quantities, priority)
        assert str(new.value) == str(old.value)


class TestScaledIntegerOracle:
    @pytest.mark.parametrize("seed", range(50))
    def test_equal_or_same_error(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            value = F(rng.randint(-3, 60), rng.randint(1, 24))
            period = rng.choice([
                rng.randint(1, 48), F(rng.randint(1, 48), rng.randint(1, 6))])
            try:
                expected = scaled_integer_fraction(value, period)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    scaled_integer(value, period)
                assert str(got.value) == str(exc)
            else:
                result = scaled_integer(value, period)
                assert result == expected and type(result) is int

    def test_message_shapes(self):
        with pytest.raises(ValueError, match=r"^1/3 \* 4 = 4/3 is not an integer$"):
            scaled_integer(F(1, 3), 4)
        with pytest.raises(ValueError, match=r"^-1/2 \* 2 = -1 is negative$"):
            scaled_integer(F(-1, 2), 2)

    def test_fraction_period(self):
        assert scaled_integer(F(4, 9), F(9, 2)) == 2
        with pytest.raises(ValueError, match="not an integer"):
            scaled_integer(F(4, 9), F(9, 4) / 2)

    def test_huge_operands_stay_exact(self):
        big = 10 ** 40 + 1
        assert scaled_integer(F(3, big), big * 7) == 21


# ----------------------------------------------------------------------
# Allocation.check stays fail-closed
# ----------------------------------------------------------------------
def depth3_tree() -> Tree:
    """root → a → b → {x, y}, plus an idle branch root → idle → leaf."""
    t = Tree("root", w=4)
    t.add_node("a", w=4, parent="root", c=1)
    t.add_node("b", w=4, parent="a", c=1)
    t.add_node("x", w=4, parent="b", c=1)
    t.add_node("y", w=4, parent="b", c=1)
    t.add_node("idle", w=4, parent="root", c=1)
    t.add_node("leaf", w=4, parent="idle", c=1)
    return t


def good_rates():
    """A feasible allocation of :func:`depth3_tree` that leaves
    ``idle``/``leaf`` at zero."""
    q = F(1, 8)
    alpha = {"root": q, "a": q, "b": q, "x": q, "y": q,
             "idle": F(0), "leaf": F(0)}
    eta_in = {"root": F(0), "a": 4 * q, "b": 3 * q, "x": q, "y": q,
              "idle": F(0), "leaf": F(0)}
    eta_out = {("root", "a"): 4 * q, ("a", "b"): 3 * q, ("b", "x"): q,
               ("b", "y"): q, ("root", "idle"): F(0), ("idle", "leaf"): F(0)}
    return alpha, eta_in, eta_out


def broken(**edits) -> Allocation:
    alpha, eta_in, eta_out = good_rates()
    rates = {"alpha": alpha, "eta_in": eta_in, "eta_out": eta_out}
    for name, changes in edits.items():
        rates[name].update(changes)
    return Allocation(tree=depth3_tree(), **rates)


def rejected_alike(allocation: Allocation, match: str) -> None:
    with pytest.raises(ScheduleError, match=match) as new:
        allocation.check()
    with pytest.raises(ScheduleError) as old:
        check_fraction(allocation)
    assert str(new.value) == str(old.value)
    assert not allocation.is_feasible()


class TestCheckFailsClosed:
    def test_the_unbroken_allocation_passes(self):
        allocation = broken()
        allocation.check()
        check_fraction(allocation)
        assert allocation.throughput == F(5, 8)

    def test_conservation_off_by_a_seventh_at_depth_3(self):
        rejected_alike(broken(alpha={"x": F(1, 8) - F(1, 7) / 8}),
                       "conservation violated at 'x'")

    def test_edge_mismatch_below_an_all_zero_parent(self):
        # `idle` computes, receives and sends nothing, yet its child
        # claims to receive: the edge test must run for idle nodes too
        rejected_alike(
            broken(eta_in={"leaf": F(1, 8)}, alpha={"leaf": F(1, 8)}),
            "edge 'idle'->'leaf': parent sends 0 but child receives 1/8")

    def test_send_from_an_otherwise_all_zero_parent(self):
        rejected_alike(
            broken(eta_out={("idle", "leaf"): F(1, 8)}),
            "edge 'idle'->'leaf': parent sends 1/8 but child receives 0")

    def test_zero_receiver_that_forwards(self):
        # α = η_in = 0 but a matching non-zero edge below: conservation
        rejected_alike(
            broken(eta_out={("idle", "leaf"): F(1, 8)},
                   eta_in={"leaf": F(1, 8)}, alpha={"leaf": F(1, 8)}),
            "conservation violated at 'idle'")

    def test_send_port_at_one_plus_epsilon(self):
        eps = F(1, 10 ** 9)
        t = Tree("m", w=1)
        t.add_node("a", w=F(1, 2), parent="m", c=1)
        t.add_node("b", w=1, parent="a", c=1)
        rate = 1 + eps
        allocation = Allocation(
            tree=t,
            alpha={"m": F(0), "a": F(0), "b": F(0)},
            eta_in={"m": F(0), "a": F(0), "b": F(0)},
            eta_out={("m", "a"): F(0), ("a", "b"): F(0)},
        )
        allocation.check()
        over = Allocation(
            tree=t,
            alpha={"m": F(1), "a": rate, "b": F(0)},
            eta_in={"m": F(0), "a": rate, "b": F(0)},
            eta_out={("m", "a"): rate, ("a", "b"): F(0)},
        )
        rejected_alike(over, "port")
        exactly = Allocation(
            tree=t,
            alpha={"m": F(1), "a": F(1), "b": F(0)},
            eta_in={"m": F(0), "a": F(1), "b": F(0)},
            eta_out={("m", "a"): F(1), ("a", "b"): F(0)},
        )
        exactly.check()

    def test_negative_rates_on_zero_looking_nodes(self):
        rejected_alike(broken(alpha={"leaf": F(-1, 8)}), "negative activity")
        rejected_alike(broken(eta_out={("idle", "leaf"): F(-1, 8)}),
                       "negative send rate")

    def test_missing_entries_read_as_zero(self):
        alpha, eta_in, eta_out = good_rates()
        for mapping in (alpha, eta_in):
            del mapping["idle"], mapping["leaf"]
        del eta_out[("root", "idle")], eta_out[("idle", "leaf")]
        allocation = Allocation(depth3_tree(), alpha, eta_in, eta_out)
        allocation.check()
        check_fraction(allocation)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_single_faults_agree_with_the_oracle(self, seed):
        """One random rate of a solved tree nudged (or zeroed, or negated):
        production and oracle raise the same error, or both pass."""
        rng = random.Random(seed)
        tree = random_tree(14, seed, switch_probability=0.2)
        good = from_bw_first(bw_first(tree))
        rates = {"alpha": dict(good.alpha), "eta_in": dict(good.eta_in),
                 "eta_out": dict(good.eta_out)}
        mapping = rates[rng.choice(sorted(rates))]
        key = rng.choice(list(mapping))
        mapping[key] = rng.choice([
            mapping[key] + F(1, 7), F(0), -mapping[key] - F(1, 3), F(5)])
        allocation = Allocation(tree=tree, **rates)
        try:
            check_fraction(allocation)
        except ScheduleError as exc:
            with pytest.raises(ScheduleError) as got:
                allocation.check()
            assert str(got.value) == str(exc)
        else:
            allocation.check()


#: a prime-free denominator far beyond any machine word
HUGE = 10 ** 40 + 1


def verdict(check, allocation):
    """``None`` when *check* passes, else the exact error message."""
    try:
        check(allocation)
    except ScheduleError as exc:
        return str(exc)
    return None


@st.composite
def perturbed_allocations(draw):
    """A solved random tree — edge costs over denominators 1..6, switches,
    optionally one weight over ``10**40 + 1`` — plus an idle branch, with
    either one rate replaced or a conserved flow routed through the idle
    branch up to (or just past) its receive and send ports."""
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    tree = random_tree(draw(st.integers(min_value=1, max_value=14)), seed,
                       switch_probability=draw(st.sampled_from([0.0, 0.3])))
    if draw(st.booleans()):
        node = draw(st.sampled_from(sorted(tree.nodes())))
        if not tree.is_switch(node):
            tree.set_w(node, tree.w(node) * F(HUGE, HUGE - 1))
    good = from_bw_first(bw_first(tree))
    tree = tree.copy()
    parent = draw(st.sampled_from(sorted(tree.nodes())))
    # idle receives at most 2/7 (c = 7/2); it and idle.leaf share 1/4 on
    # the idle -> idle.leaf link (c = 4)
    tree.add_node("idle", w=F(5, 3), parent=parent, c=F(7, 2))
    tree.add_node("idle.leaf", w=F(1, 5), parent="idle", c=4)
    tree.add_node("idle.switch", w=float("inf"), parent="idle", c=1)
    rates = {"alpha": dict(good.alpha), "eta_in": dict(good.eta_in),
             "eta_out": dict(good.eta_out)}
    idle = ("idle", "idle.leaf", "idle.switch")
    edges = ((parent, "idle"), ("idle", "idle.leaf"), ("idle", "idle.switch"))
    if draw(st.booleans()):  # the idle branch spelled out, or left missing
        rates["alpha"].update(dict.fromkeys(idle, F(0)))
        rates["eta_in"].update(dict.fromkeys(idle, F(0)))
        rates["eta_out"].update(dict.fromkeys(edges, F(0)))
    name = draw(st.sampled_from(["none", "alpha", "eta_in", "eta_out", "flow"]))
    if name == "flow":
        x = draw(st.sampled_from([F(1, 4), F(2, 7), F(2, 7) + F(1, HUGE)]))
        y = draw(st.sampled_from([F(0), F(1, 4), F(1, 4) + F(1, HUGE), x]))
        rates["alpha"][parent] = rates["alpha"].get(parent, F(0)) - x
        rates["eta_out"][edges[0]] = rates["eta_in"]["idle"] = x
        rates["alpha"]["idle"] = x - y
        rates["eta_out"][edges[1]] = rates["eta_in"]["idle.leaf"] = y
        rates["alpha"]["idle.leaf"] = y
    elif name != "none":
        mapping = rates[name]
        keys = sorted(mapping, key=repr) + (
            list(idle) if name != "eta_out" else list(edges))
        key = draw(st.sampled_from(keys))
        old = mapping.get(key, F(0))
        mapping[key] = draw(st.sampled_from([
            old + F(1, 7), F(0), -old - F(1, 3), F(5), old + F(1, HUGE),
            old - F(1, HUGE), old * F(HUGE, HUGE - 1), F(1, HUGE),
        ]))
    return Allocation(tree=tree, **rates)


class TestIntegerCheck:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(allocation=perturbed_allocations())
    def test_verdict_and_message_equal_the_oracle(self, allocation):
        assert verdict(Allocation.check, allocation) == verdict(
            check_fraction, allocation)


class TestSmallFixes:
    def test_throughput_is_summed_once(self):
        class CountingDict(dict):
            reads = 0

            def values(self):
                CountingDict.reads += 1
                return super().values()

        alpha, eta_in, eta_out = good_rates()
        allocation = Allocation(depth3_tree(), CountingDict(alpha), eta_in, eta_out)
        assert allocation.throughput == allocation.throughput == F(5, 8)
        assert CountingDict.reads == 1

    def test_policy_order_with_wrong_counts_names_both_sides(self):
        allocation = from_bw_first(bw_first(paper_figure4_tree()))

        def swapped(quantities, priority):
            order = list(interleaved_order(quantities, priority))
            if len(set(order)) > 1:
                order[order.index(priority[-1])] = priority[0]
            return tuple(order)

        with pytest.raises(ScheduleError, match=r"does not respect the ψ "
                           r"quantities at .*: \{.*\} != \{.*\}"):
            build_schedules(allocation, policy=swapped)


def record() -> None:
    """Rewrite the digest file from whatever ``repro`` is importable —
    meant to be run against the commit before a change to the chain."""
    digests = {
        family: {str(seed): plan_digest(*plan(make(seed))[1:]) for seed in SEEDS}
        for family, make in FAMILIES.items()
    }
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()

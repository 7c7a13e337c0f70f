"""One statement of Algorithm 1's local rule: :class:`repro.core.step.Step`.

``bw_first_fraction`` (``tests/fraction_oracles.py``) runs the rule on
``Fraction`` and is the oracle; the step is checked against every outcome
it records.  The structural tests keep the step the only place in ``src/``
where δ and τ are computed, and keep the four walks that run it —
``bw_first``, the incremental solver, the actors and the infinite-tree
walk — free of pair arithmetic of their own.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.step import Fractions, Step, accepted

from .conftest import rational_trees
from .fraction_oracles import bw_first_fraction

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the one module that may compute δ and τ
HOMES = {"core/step.py"}
#: the modules that drive a step
CONSUMERS = ("core/bwfirst.py", "core/incremental.py", "protocol/actor.py",
             "extensions/infinite.py")
STATE = {"delta", "delta_n", "delta_d", "tau", "tau_n", "tau_d",
         "_dn", "_dd", "_tn", "_td"}


def _pair(value):
    value = Fraction(value)
    return value.numerator, value.denominator


def _replay(tree, outcome):
    """Drive a :class:`Step` through one oracle outcome: open on λ,
    check each offer is the recorded β, close on the recorded answer."""
    step = Step()
    step.open(*_pair(outcome.lam), *_pair(tree.rate(outcome.node)))
    kids = tree.children_by_bandwidth(outcome.node)
    for kid, txn in zip(kids, outcome.transactions):
        assert txn.child == kid
        c = _pair(tree.c(kid))
        assert step.offer(*c) == _pair(txn.proposal)
        step.close(*accepted(*_pair(txn.proposal), *_pair(txn.ack)), *c)
    rest = kids[len(outcome.transactions):]
    if rest:  # BW-First stopped early: δ or τ is spent
        assert step.offer(*_pair(tree.c(rest[0]))) is None
    return step


class TestStep:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tree=rational_trees(max_nodes=8),
           scale=st.sampled_from([None, F(0), F(1, 3), F(1), F(7, 5)]))
    def test_replays_every_bw_first_outcome(self, tree, scale):
        proposal = None if scale is None else scale * tree.root_capacity()
        result = bw_first_fraction(tree, proposal=proposal)
        for outcome in result.outcomes.values():
            step = _replay(tree, outcome)
            assert (step.lam_n, step.lam_d) == _pair(outcome.lam)
            assert (step.alpha_n, step.alpha_d) == _pair(outcome.alpha)
            assert (step.delta_n, step.delta_d) == _pair(outcome.theta)
            assert (step.tau_n, step.tau_d) == _pair(outcome.tau)

    def test_offer_and_close(self):
        step = Step()
        step.open(5, 2, 1, 2)  # λ = 5/2 on r = 1/2: α = 1/2, δ = 2
        assert (step.alpha_n, step.alpha_d, step.delta_n, step.delta_d) \
            == (1, 2, 2, 1)
        assert step.offer(3, 1) == (1, 3)  # τ/c = 1/3 < δ: port-limited
        assert step.saturated
        step.close(1, 3, 3, 1)  # accepted all of it: τ = 0
        assert (step.delta_n, step.delta_d, step.tau_n) == (5, 3, 0)
        assert step.offer(1, 1) is None
        step.open(1, 1, 2, 1)  # λ ≤ r: absorbed, nothing to offer
        assert (step.alpha_n, step.delta_n, step.tau_n) == (1, 0, 1)
        assert step.offer(1, 1) is None
        step.open(3, 1, 0, 1)  # a switch: δ = λ
        assert step.offer(1, 4) == (3, 1) and not step.saturated

    def test_fractions_builds_each_value_once(self):
        made = Fractions()
        half = made[1, 2]
        assert half == F(1, 2) and type(half) is Fraction
        assert made[1, 2] is half and len(made) == 1
        later = Fractions(made)  # takes what the older map built
        assert later[1, 2] is half and later[3, 1] == 3
        assert (3, 1) not in made

    def test_accepted(self):
        assert accepted(3, 4, 0, 1) == (3, 4)
        assert accepted(3, 4, 1, 4) == (1, 2)
        assert accepted(3, 4, 3, 4)[0] == 0


def _module(rel):
    return ast.parse((SRC / rel).read_text(encoding="utf-8"), filename=rel)


def _assigned_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _assigned_names(target.value)


def _copied(value):
    """A value that computes nothing: a name, a constant, or a tuple of
    them (a record copying its arguments)."""
    if isinstance(value, (ast.Name, ast.Constant)):
        return True
    return isinstance(value, ast.Tuple) and all(map(_copied, value.elts))


class TestOneStatement:
    def test_no_module_outside_the_step_computes_delta_or_tau(self):
        found = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel in HOMES:
                continue
            for node in ast.walk(_module(rel)):
                if isinstance(node, ast.AugAssign):
                    targets, value = [node.target], None
                elif isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if value is not None and _copied(value):
                    continue
                for target in targets:
                    names = STATE.intersection(_assigned_names(target))
                    if names:
                        found.append(f"{rel}:{node.lineno} {sorted(names)}")
        assert found == []

    def test_the_consumers_hold_no_pair_arithmetic_of_their_own(self):
        for rel in CONSUMERS:
            tree = _module(rel)
            imported = {alias.name for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        for alias in node.names}
            called = {node.func.id for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)}
            assert "gcd" not in imported, rel
            assert "min" not in called, rel
            assert "Step" in imported, rel
        for rel in ("protocol/actor.py", "extensions/infinite.py"):
            imported = {alias.name for node in ast.walk(_module(rel))
                        if isinstance(node, ast.ImportFrom)
                        for alias in node.names}
            assert "pair_sub" not in imported, rel

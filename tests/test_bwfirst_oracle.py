"""``bw_first`` on int pairs against ``bw_first_fraction``, the oracle.

Production ``bw_first`` runs Algorithm 1 through :class:`repro.core.step.Step`
on reduced int pairs and builds ``Fraction`` values only for its result; the
oracle in ``tests/fraction_oracles.py`` is the same walk on ``Fraction``.
Small rational trees — rates like 5/3 and 2/7, bandwidth ties, switches —
and proposals below, at and above ``t_max`` are where such rewrites break,
so every result is compared whole: outcomes in their order, transactions,
``t_max`` and throughput, each value a ``Fraction`` and each distinct value
one object.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bwfirst import bw_first
from repro.exceptions import ScheduleError
from repro.platform.generators import chain, random_tree, smooth_tree

from .conftest import rational_trees
from .fraction_oracles import bw_first_fraction

F = Fraction
SCALES = [None, F(0), F(1, 3), F(1), F(7, 5)]


def _values(result):
    yield result.t_max
    yield result.throughput
    for outcome in result.outcomes.values():
        yield from (outcome.lam, outcome.alpha, outcome.theta, outcome.tau)
    for txn in result.transactions:
        yield from (txn.proposal, txn.ack)


def assert_same(tree, proposal):
    got = bw_first(tree, proposal=proposal)
    want = bw_first_fraction(tree, proposal=proposal)
    assert got.t_max == want.t_max
    assert got.throughput == want.throughput
    assert list(got.outcomes.items()) == list(want.outcomes.items())
    assert got.transactions == want.transactions
    assert got.tree is tree
    objects = {}
    for value in _values(got):
        assert type(value) is Fraction
        assert objects.setdefault(value, value) is value  # one object a value
    return got


class TestAgainstTheOracle:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tree=rational_trees(max_nodes=8), scale=st.sampled_from(SCALES))
    def test_rational_trees(self, tree, scale):
        proposal = None if scale is None else scale * tree.root_capacity()
        assert_same(tree, proposal)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("scale", SCALES)
    def test_generated_trees(self, seed, scale):
        for tree in (random_tree(40, seed=seed), smooth_tree(300, seed)):
            proposal = None if scale is None else scale * tree.root_capacity()
            assert_same(tree, proposal)

    def test_a_chain_deeper_than_the_recursion_limit(self):
        tree = chain(3000, w=F(5, 3), c=F(2, 7), root_w=F(2, 7))
        assert_same(tree, None)
        assert_same(tree, F(9, 2))

    def test_the_proposal_is_reported_as_given(self):
        tree = random_tree(20, seed=3)
        proposal = F(11, 7)
        got = assert_same(tree, proposal)
        assert got.t_max is proposal
        assert got.outcomes[tree.root].lam is proposal

    def test_a_negative_proposal_is_refused_alike(self):
        tree = random_tree(10, seed=1)
        messages = []
        for solve in (bw_first, bw_first_fraction):
            with pytest.raises(ScheduleError) as caught:
                solve(tree, proposal=F(-1, 3))
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

"""Unit tests for the Tree platform model."""

import random
from fractions import Fraction

import pytest

from repro.core.rates import INFINITY
from repro.exceptions import PlatformError
from repro.platform.generators import random_tree, smooth_tree
from repro.platform.tree import Tree, validate_tree

from .fraction_oracles import children_by_bandwidth_fraction


@pytest.fixture
def tree() -> Tree:
    t = Tree("P0", w=3)
    t.add_node("P1", w=3, parent="P0", c=1)
    t.add_node("P2", w=18, parent="P0", c=2)
    t.add_node("P4", w=9, parent="P1", c="18/5")
    return t


class TestConstruction:
    def test_root_only(self):
        t = Tree("solo", w=5)
        assert t.root == "solo"
        assert len(t) == 1

    def test_root_default_is_switch(self):
        t = Tree("m")
        assert t.is_switch("m")

    def test_add_node(self, tree):
        assert len(tree) == 4
        assert tree.parent("P4") == "P1"

    def test_duplicate_rejected(self, tree):
        with pytest.raises(PlatformError):
            tree.add_node("P1", w=1, parent="P0", c=1)

    def test_unknown_parent_rejected(self, tree):
        with pytest.raises(PlatformError):
            tree.add_node("X", w=1, parent="nope", c=1)

    def test_bad_weight_rejected(self, tree):
        with pytest.raises(PlatformError):
            tree.add_node("X", w=0, parent="P0", c=1)

    def test_bad_cost_rejected(self, tree):
        with pytest.raises(PlatformError):
            tree.add_node("X", w=1, parent="P0", c=0)

    def test_string_fraction_weights(self, tree):
        assert tree.w("P4") == Fraction(9)
        assert tree.c("P4") == Fraction(18, 5)

    def test_add_subtree(self, tree):
        sub = Tree("S", w=2)
        sub.add_node("S1", w=4, parent="S", c=3)
        tree.add_subtree("P2", c=5, subtree=sub)
        assert tree.parent("S") == "P2"
        assert tree.c("S") == 5
        assert tree.parent("S1") == "S"
        assert tree.c("S1") == 3

    def test_add_subtree_name_collision(self, tree):
        sub = Tree("P1", w=1)
        with pytest.raises(PlatformError):
            tree.add_subtree("P2", c=1, subtree=sub)


class TestAccessors:
    def test_w_unknown(self, tree):
        with pytest.raises(PlatformError):
            tree.w("nope")

    def test_rate(self, tree):
        assert tree.rate("P0") == Fraction(1, 3)

    def test_rate_of_switch_is_zero(self):
        t = Tree("m", w=INFINITY)
        assert t.rate("m") == 0

    def test_parent_of_root_is_none(self, tree):
        assert tree.parent("P0") is None

    def test_parent_unknown(self, tree):
        with pytest.raises(PlatformError):
            tree.parent("nope")

    def test_children_order(self, tree):
        assert tree.children("P0") == ("P1", "P2")

    def test_c_of_root_rejected(self, tree):
        with pytest.raises(PlatformError):
            tree.c("P0")

    def test_edge_cost(self, tree):
        assert tree.edge_cost("P0", "P2") == 2

    def test_edge_cost_missing(self, tree):
        with pytest.raises(PlatformError):
            tree.edge_cost("P0", "P4")

    def test_bandwidth(self, tree):
        assert tree.bandwidth("P2") == Fraction(1, 2)

    def test_is_leaf(self, tree):
        assert tree.is_leaf("P4")
        assert not tree.is_leaf("P0")

    def test_contains(self, tree):
        assert "P1" in tree
        assert "nope" not in tree

    def test_unhashable(self, tree):
        with pytest.raises(TypeError):
            hash(tree)


class TestTraversals:
    def test_nodes_preorder(self, tree):
        assert list(tree.nodes()) == ["P0", "P1", "P4", "P2"]

    def test_iter(self, tree):
        assert list(iter(tree)) == list(tree.nodes())

    def test_leaves(self, tree):
        assert tree.leaves() == ["P4", "P2"]

    def test_edges(self, tree):
        edges = list(tree.edges())
        assert ("P0", "P1", Fraction(1)) in edges
        assert len(edges) == 3

    def test_children_by_bandwidth(self):
        t = Tree("R")
        t.add_node("slow", w=1, parent="R", c=5)
        t.add_node("fast", w=1, parent="R", c=1)
        t.add_node("mid", w=1, parent="R", c=3)
        assert t.children_by_bandwidth("R") == ["fast", "mid", "slow"]

    def test_children_by_bandwidth_tie_keeps_insertion(self):
        t = Tree("R")
        t.add_node("a", w=1, parent="R", c=2)
        t.add_node("b", w=1, parent="R", c=2)
        assert t.children_by_bandwidth("R") == ["a", "b"]

    @pytest.mark.parametrize("seed", range(40))
    def test_children_by_bandwidth_equals_the_fraction_sort(self, seed):
        """Integer keys ``c·L`` order a fork exactly as the rational keys
        did: ψ-style ties (``k/(ψ+1)`` written over many ``ψ``) beside
        unrelated denominators up to 10⁴, ties in insertion order."""
        rng = random.Random(seed)
        ratios = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(3)]
        pool = [Fraction(k * m, (psi + 1) * m)
                for k, psi in ((r.numerator, r.denominator - 1) for r in ratios)
                for m in (1, rng.randint(2, 10**4 // (psi + 1)))]
        pool += [Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4))
                 for _ in range(3)]
        t = Tree("R", w=1)
        for i in range(rng.randint(2, 60)):
            t.add_node(f"k{i}", w=1, parent="R", c=rng.choice(pool))
        assert t.children_by_bandwidth("R") \
            == children_by_bandwidth_fraction(t, "R")
        for other in (random_tree(80, seed=seed), smooth_tree(60, seed)):
            for node in other.nodes():
                assert other.children_by_bandwidth(node) \
                    == children_by_bandwidth_fraction(other, node)

    def test_ancestors(self, tree):
        assert tree.ancestors("P4") == ["P1", "P0"]
        assert tree.ancestors("P0") == []

    def test_descendants(self, tree):
        assert tree.descendants("P1") == ["P1", "P4"]

    def test_descendants_unknown(self, tree):
        with pytest.raises(PlatformError):
            tree.descendants("nope")

    def test_depth(self, tree):
        assert tree.depth("P0") == 0
        assert tree.depth("P4") == 2

    def test_height(self, tree):
        assert tree.height() == 2

    def test_height_single(self):
        assert Tree("x", w=1).height() == 0

    def test_subtree(self, tree):
        sub = tree.subtree("P1")
        assert sub.root == "P1"
        assert list(sub.nodes()) == ["P1", "P4"]
        assert sub.c("P4") == Fraction(18, 5)


class TestDerived:
    def test_total_compute_rate(self, tree):
        expected = Fraction(1, 3) + Fraction(1, 3) + Fraction(1, 18) + Fraction(1, 9)
        assert tree.total_compute_rate() == expected

    def test_root_capacity(self, tree):
        assert tree.root_capacity() == Fraction(1, 3) + 1

    def test_root_capacity_leaf_root(self):
        t = Tree("solo", w=4)
        assert t.root_capacity() == Fraction(1, 4)


class TestTransformations:
    def test_relabel(self, tree):
        out = tree.relabel({"P0": "root", "P4": "leaf"})
        assert out.root == "root"
        assert out.parent("leaf") == "P1"
        assert out.w("leaf") == 9
        # original untouched
        assert tree.root == "P0"

    def test_relabel_collision_rejected(self, tree):
        with pytest.raises(PlatformError):
            tree.relabel({"P1": "P2"})

    def test_scale_weights(self, tree):
        out = tree.scale_weights(w_factor=2, c_factor=3)
        assert out.w("P0") == 6
        assert out.c("P2") == 6

    def test_scale_keeps_switches(self):
        t = Tree("m", w=INFINITY)
        t.add_node("a", w=1, parent="m", c=1)
        out = t.scale_weights(w_factor=5)
        assert out.is_switch("m")

    def test_equality(self, tree):
        other = Tree("P0", w=3)
        other.add_node("P1", w=3, parent="P0", c=1)
        other.add_node("P2", w=18, parent="P0", c=2)
        other.add_node("P4", w=9, parent="P1", c="18/5")
        assert tree == other

    def test_inequality(self, tree):
        other = Tree("P0", w=4)
        assert tree != other

    def test_describe_mentions_weights(self, tree):
        text = tree.describe()
        assert "P4 (w=9, c=18/5)" in text
        assert text.splitlines()[0] == "P0 (w=3)"


class TestValidate:
    def test_valid(self, tree):
        validate_tree(tree)

    def test_validates_paper_fixture(self, paper_tree):
        validate_tree(paper_tree)

"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from repro.core.rates import INFINITY
from repro.platform.examples import (
    figure1_tree,
    figure2_fork,
    paper_figure4_tree,
    section9_platform,
    section9_platform_merged,
)
from repro.platform.generators import random_tree
from repro.platform.tree import Tree


@pytest.fixture
def paper_tree() -> Tree:
    """The reconstructed Section 8 / Figure 4 example tree."""
    return paper_figure4_tree()


@pytest.fixture
def fig1_tree() -> Tree:
    return figure1_tree()


@pytest.fixture
def fork_tree() -> Tree:
    return figure2_fork()


@pytest.fixture
def sec9_tree() -> Tree:
    return section9_platform()


@pytest.fixture
def sec9_merged() -> Tree:
    return section9_platform_merged()


@pytest.fixture
def two_level_tree() -> Tree:
    """A small hand-checkable two-level tree with nice denominators."""
    t = Tree("R", w=2)
    t.add_node("A", w=2, parent="R", c=1)
    t.add_node("B", w=4, parent="R", c=2)
    t.add_node("A1", w=2, parent="A", c=2)
    return t


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
#: Small positive fractions with denominators in {1..4}: keeps periods small.
small_fractions = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def random_trees(draw, max_nodes: int = 12, switch_probability: float = 0.0):
    """A random heterogeneous tree built through the seeded generator."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**30))
    max_children = draw(st.integers(min_value=1, max_value=4))
    return random_tree(
        n, seed=seed, max_children=max_children,
        switch_probability=switch_probability,
    )


@st.composite
def fork_specs(draw, max_children: int = 6):
    """(parent_rate, [(name, c, rate)]) inputs for Proposition 1."""
    k = draw(st.integers(min_value=0, max_value=max_children))
    parent_rate = draw(small_fractions)
    children = [
        (f"c{i}", draw(small_fractions), draw(small_fractions)) for i in range(k)
    ]
    return parent_rate, children


#: non-integer rationals whose reciprocals coincide with one another
#: (``w = 1/2`` computes at the bandwidth of ``c = 1/2``), so bandwidth
#: ties, ``β = r`` and proposals exactly at a saturation threshold come up
#: often on two to four nodes; ``INFINITY`` makes a switch
RATIONAL_COSTS = (Fraction(5, 3), Fraction(2, 7), Fraction(1, 2), Fraction(1),
                  Fraction(7, 4), Fraction(3, 5))
RATIONAL_WEIGHTS = (Fraction(5, 3), Fraction(2, 7), Fraction(1, 2), Fraction(2),
                    Fraction(7, 4), Fraction(3, 5), INFINITY)


@st.composite
def rational_trees(draw, max_nodes=6):
    """A tree of up to *max_nodes* nodes drawn from those pools."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    tree = Tree("n0", draw(st.sampled_from(RATIONAL_WEIGHTS)))
    for i in range(1, n):
        parent = f"n{draw(st.integers(min_value=0, max_value=i - 1))}"
        tree.add_node(f"n{i}", draw(st.sampled_from(RATIONAL_WEIGHTS)),
                      parent=parent, c=draw(st.sampled_from(RATIONAL_COSTS)))
    return tree

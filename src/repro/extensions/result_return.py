"""Returning results to the master: the Section 9 model and counterexample.

Section 9 shows that folding the result-return time into the task-send time
(as Beaumont et al. and Kreaseck et al. do) is **wrong**: it accounts for
link traffic but ignores the *receive-port* resource.  With separate flows,
a node's ports carry:

* **send port** — tasks to children *and* results to its parent;
* **receive port** — tasks from its parent *and* results from children.

At steady state the result flow up an edge equals the task flow down it
(every task delivered into a subtree is computed there), so with task flow
``s_e`` on edge ``e`` (cost ``c_e`` down, ``d_e`` up) the port constraints
of node ``i`` become::

    send(i):  Σ_children c_e·s_e  +  d_in(i)·s_in(i)         ≤ 1   (root: no d term)
    recv(i):  c_in(i)·s_in(i)     +  Σ_children d_e·s_e      ≤ 1   (root: no c term)

:func:`return_lp_throughput` maximises ``Σ α_i`` under these constraints
with the exact simplex.  On the paper's 3-node example
(``w = 1``, ``c = d = 1/2``) it yields **2 tasks per time unit**, while the
merged model (``c' = c + d = 1``) run through the bandwidth-centric
machinery yields only **1** — the counterexample, reproduced by experiment
E11.  The general two-port executor
(:func:`repro.extensions.return_sim.simulate_with_returns`) confirms the
rate 2 is actually achievable in execution, not just in the LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, List, Mapping

from ..core.bwfirst import bw_first
from ..core.rates import ONE, ZERO, as_cost
from ..core.simplex import solve_lp
from ..exceptions import PlatformError
from ..platform.tree import Tree


@dataclass(frozen=True)
class ReturnPlatform:
    """A tree platform whose edges also carry per-task result-return times.

    ``tree`` holds the downward (task) communication times ``c``;
    ``return_cost`` maps each non-root node to the upward (result) time
    ``d`` of its incoming edge.
    """

    tree: Tree
    return_cost: Mapping[Hashable, Fraction]

    def d(self, node: Hashable) -> Fraction:
        try:
            return self.return_cost[node]
        except KeyError:
            raise PlatformError(f"no return cost for node {node!r}") from None

    def merged_tree(self) -> Tree:
        """The (erroneous) merged model: one edge cost ``c + d``."""
        tree = self.tree
        merged = Tree(tree.root, tree.w(tree.root))
        for node in tree.nodes():
            if node == tree.root:
                continue
            merged.add_node(
                node,
                tree.w(node),
                parent=tree.parent(node),
                c=tree.c(node) + self.d(node),
            )
        return merged


def uniform_return_platform(tree: Tree, ratio=1) -> ReturnPlatform:
    """Wrap *tree* with return costs ``d = ratio × c`` on every edge."""
    factor = as_cost(ratio)
    costs = {
        node: tree.c(node) * factor for node in tree.nodes() if node != tree.root
    }
    return ReturnPlatform(tree=tree, return_cost=costs)


def return_lp_throughput(platform: ReturnPlatform) -> Fraction:
    """Exact optimal steady-state throughput with result returns."""
    tree = platform.tree
    nodes = list(tree.nodes())
    edges = [(p, ch) for p, ch, _ in tree.edges()]
    alpha_index = {node: i for i, node in enumerate(nodes)}
    edge_index = {edge: len(nodes) + j for j, edge in enumerate(edges)}
    num_vars = len(nodes) + len(edges)

    def zeros() -> List[Fraction]:
        return [ZERO] * num_vars

    c_obj = zeros()
    for node in nodes:
        c_obj[alpha_index[node]] = ONE

    a_ub: List[List[Fraction]] = []
    b_ub: List[Fraction] = []
    a_eq: List[List[Fraction]] = []
    b_eq: List[Fraction] = []

    for node in nodes:
        kids = tree.children(node)

        # compute capacity
        row = zeros()
        row[alpha_index[node]] = ONE
        a_ub.append(row)
        b_ub.append(tree.rate(node))

        # send port: tasks to children + results to parent
        row = zeros()
        for child in kids:
            row[edge_index[(node, child)]] += tree.c(child)
        if node != tree.root:
            row[edge_index[(tree.parent(node), node)]] += platform.d(node)
        if any(v != 0 for v in row):
            a_ub.append(row)
            b_ub.append(ONE)

        # receive port: tasks from parent + results from children
        row = zeros()
        if node != tree.root:
            row[edge_index[(tree.parent(node), node)]] += tree.c(node)
        for child in kids:
            row[edge_index[(node, child)]] += platform.d(child)
        if any(v != 0 for v in row):
            a_ub.append(row)
            b_ub.append(ONE)

        # conservation
        if node != tree.root:
            row = zeros()
            row[edge_index[(tree.parent(node), node)]] = ONE
            row[alpha_index[node]] = -ONE
            for child in kids:
                row[edge_index[(node, child)]] = -ONE
            a_eq.append(row)
            b_eq.append(ZERO)

    result = solve_lp(c_obj, a_ub, b_ub, a_eq, b_eq).require_optimal()
    return result.objective


def merged_model_throughput(platform: ReturnPlatform) -> Fraction:
    """Throughput under the merged single-cost simplification."""
    return bw_first(platform.merged_tree()).throughput


@dataclass(frozen=True)
class CounterexampleReport:
    """Both throughputs on one platform: the Section 9 comparison."""

    separate_ports: Fraction
    merged_model: Fraction

    @property
    def understatement(self) -> Fraction:
        """How much the merged model understates the true optimum."""
        if self.merged_model == 0:
            return Fraction(0)
        return self.separate_ports / self.merged_model


def section9_counterexample() -> CounterexampleReport:
    """The paper's 3-node counterexample: 2 vs 1 tasks per time unit."""
    from ..platform.examples import section9_platform

    platform = uniform_return_platform(section9_platform(), ratio=1)
    return CounterexampleReport(
        separate_ports=return_lp_throughput(platform),
        merged_model=merged_model_throughput(platform),
    )

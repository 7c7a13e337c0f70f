"""Linear-programming formulations of steady-state tree throughput.

Banino et al. (2004) showed that the maximum steady-state throughput of a
general platform graph under the single-port full-overlap model is the
optimum of a small LP.  Specialised to a tree ``T``, with variables

* ``α_i ≥ 0`` — tasks node ``i`` computes per time unit,
* ``s_e ≥ 0`` — tasks sent over edge ``e = (parent → child)`` per time unit,

the LP is::

    maximize    Σ_i α_i
    subject to  α_i ≤ r_i                       (compute capacity)
                s_in(i) = α_i + Σ_children s_e  (conservation, i ≠ root)
                Σ_children c_e · s_e ≤ 1        (send port of every node)
                c_in(i) · s_in(i) ≤ 1           (receive port, i ≠ root)

Two solvers are provided over the same matrix builder:

* :func:`lp_throughput_exact` — the in-house rational simplex
  (:mod:`repro.core.simplex`); exact, used to *prove* Proposition 2 on test
  trees;
* :func:`lp_throughput` — scipy's HiGHS; fast, used for larger platforms
  and as an independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Tuple

from ..exceptions import SolverError
from ..platform.tree import Tree
from .rates import ONE, ZERO
from .simplex import SimplexResult, solve_lp


def build_lp(tree: Tree) -> Tuple[
    List[Fraction],
    List[List[Fraction]],
    List[Fraction],
    List[List[Fraction]],
    List[Fraction],
    Dict[Hashable, int],
    Dict[Tuple[Hashable, Hashable], int],
]:
    """Build the throughput LP for *tree* in exact rational form.

    Returns ``(c, a_ub, b_ub, a_eq, b_eq, alpha_index, edge_index)`` where
    the two index maps locate each node's ``α`` variable and each edge's
    ``s`` variable inside the solution vector.
    """
    nodes = list(tree.nodes())
    edges = [(p, ch) for p, ch, _ in tree.edges()]
    alpha_index = {node: i for i, node in enumerate(nodes)}
    edge_index = {edge: len(nodes) + j for j, edge in enumerate(edges)}
    num_vars = len(nodes) + len(edges)

    def zeros() -> List[Fraction]:
        return [ZERO] * num_vars

    c = zeros()
    for node in nodes:
        c[alpha_index[node]] = ONE

    a_ub: List[List[Fraction]] = []
    b_ub: List[Fraction] = []
    a_eq: List[List[Fraction]] = []
    b_eq: List[Fraction] = []

    for node in nodes:
        # compute capacity: α_i ≤ r_i
        row = zeros()
        row[alpha_index[node]] = ONE
        a_ub.append(row)
        b_ub.append(tree.rate(node))

        # send port: Σ c_e s_e ≤ 1
        kids = tree.children(node)
        if kids:
            row = zeros()
            for child in kids:
                row[edge_index[(node, child)]] = tree.c(child)
            a_ub.append(row)
            b_ub.append(ONE)

        if node != tree.root:
            parent = tree.parent(node)
            in_var = edge_index[(parent, node)]

            # receive port: c_in · s_in ≤ 1
            row = zeros()
            row[in_var] = tree.c(node)
            a_ub.append(row)
            b_ub.append(ONE)

            # conservation: s_in − α − Σ s_out = 0
            row = zeros()
            row[in_var] = ONE
            row[alpha_index[node]] = -ONE
            for child in kids:
                row[edge_index[(node, child)]] = -ONE
            a_eq.append(row)
            b_eq.append(ZERO)

    return c, a_ub, b_ub, a_eq, b_eq, alpha_index, edge_index


def lp_throughput_exact(tree: Tree) -> Fraction:
    """Optimal steady-state throughput by exact rational simplex."""
    c, a_ub, b_ub, a_eq, b_eq, _, _ = build_lp(tree)
    result: SimplexResult = solve_lp(c, a_ub, b_ub, a_eq, b_eq).require_optimal()
    return result.objective


def lp_solution_exact(tree: Tree):
    """Exact LP optimum together with an optimal :class:`Allocation`."""
    from .allocation import Allocation

    c, a_ub, b_ub, a_eq, b_eq, alpha_index, edge_index = build_lp(tree)
    result = solve_lp(c, a_ub, b_ub, a_eq, b_eq).require_optimal()
    x = result.x
    alpha = {node: x[i] for node, i in alpha_index.items()}
    eta_out = {edge: x[i] for edge, i in edge_index.items()}
    eta_in = {tree.root: ZERO}
    for (parent, child), rate in eta_out.items():
        eta_in[child] = rate
    allocation = Allocation(tree=tree, alpha=alpha, eta_in=eta_in, eta_out=eta_out)
    allocation.check()
    return result.objective, allocation


def lp_throughput(tree: Tree) -> float:
    """Optimal steady-state throughput by scipy's HiGHS (floating point)."""
    import numpy as np
    from scipy.optimize import linprog

    c, a_ub, b_ub, a_eq, b_eq, _, _ = build_lp(tree)
    res = linprog(
        c=-np.array([float(v) for v in c]),
        A_ub=np.array([[float(v) for v in row] for row in a_ub]) if a_ub else None,
        b_ub=np.array([float(v) for v in b_ub]) if b_ub else None,
        A_eq=np.array([[float(v) for v in row] for row in a_eq]) if a_eq else None,
        b_eq=np.array([float(v) for v in b_eq]) if b_eq else None,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise SolverError(f"HiGHS failed: {res.message}")
    return -res.fun

"""BW-First on infinite trees (the Bataineh–Robertazzi discussion).

Section 5 notes that, unlike the bottom-up method (which must start from the
leaves), BW-First can evaluate the throughput of **infinite** network trees:
the traversal expands a node's children only while the parent still has
tasks (δ > 0) and port time (τ > 0) to offer.

On a platform where bandwidth saturates, the traversal terminates by
itself.  In general it may not (a fast-link infinite chain absorbs tasks at
every depth), so :func:`infinite_throughput` adds a *proposal cut-off*
``tol``: a subtree offered less than ``tol`` tasks per time unit is not
expanded.  Because any subtree consumes between nothing and everything it
is offered, treating cut subtrees as consuming 0 gives a certified **lower
bound** and treating them as consuming β gives a certified **upper bound**;
the two bracket the true infinite-tree throughput within the sum of the
cut proposals.

Trees are described lazily by an :class:`InfiniteTreeSpec`; finite
truncations for convergence studies (experiment E12) come from
:func:`truncate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from ..core.rates import ZERO, as_cost, as_fraction, as_weight, rate_of
from ..core.step import Step, accepted
from ..exceptions import ScheduleError
from ..platform.tree import Tree

#: A lazily-generated child: (name, weight w, edge cost c).
ChildSpec = Tuple[Hashable, object, object]


@dataclass(frozen=True)
class InfiniteTreeSpec:
    """A lazily-generated (possibly infinite) tree platform.

    ``root`` names the root, ``root_w`` its weight, and ``children(node)``
    returns the (possibly empty) child list of any node on demand.
    Generators must be deterministic: the same node always yields the same
    children.
    """

    root: Hashable
    root_w: object
    children: Callable[[Hashable], Sequence[ChildSpec]]


@dataclass(frozen=True)
class InfiniteThroughput:
    """Certified bracket on an infinite tree's optimal throughput."""

    lower: Fraction
    upper: Fraction
    visited: int          # nodes expanded
    cut: int              # subtrees truncated by the tolerance

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


class _Visit(Step):
    """An expanded node: its step, and its children as ``(name, w, c_n,
    c_d)`` by increasing ``c`` (ties in spec order), read as ``Tree.add_node``
    reads them.  Offered nothing, it takes its own ``t_max`` (the root)."""

    __slots__ = ("kids", "next_i", "pending")

    def __init__(self, spec: InfiniteTreeSpec, node: Hashable, weight,
                 lam: Optional[Tuple[int, int]] = None) -> None:
        kids = sorted(((as_cost(c), name, as_weight(w))
                       for name, w, c in spec.children(node)),
                      key=lambda kid: kid[0])
        self.kids = [(name, w, c.numerator, c.denominator)
                     for c, name, w in kids]
        self.next_i = 0
        self.pending: Optional[Tuple[int, int]] = None  # c of the open edge
        rate = rate_of(weight)
        if lam is None:
            t_max = rate + 1 / kids[0][0] if kids else rate
            lam = t_max.numerator, t_max.denominator
        self.open(*lam, rate.numerator, rate.denominator)


def infinite_throughput(
    spec: InfiniteTreeSpec,
    tol: Fraction = Fraction(1, 1000),
    max_nodes: int = 100_000,
) -> InfiniteThroughput:
    """Run BW-First lazily on *spec* with a proposal cut-off of *tol*.

    Returns lower/upper bounds whose gap is at most the sum of cut-off
    proposals.  Raises :class:`~repro.exceptions.ScheduleError` when more
    than *max_nodes* nodes must be expanded (tolerance too small for a
    too-absorbent tree), and :class:`~repro.exceptions.PlatformError` for
    a weight or cost a :class:`~repro.platform.tree.Tree` would refuse.
    The walk keeps its frames on an explicit stack, as ``bw_first`` does.
    """
    tol = as_fraction(tol)
    if tol <= 0:
        raise ScheduleError("tolerance must be positive")

    visited, cut = 1, 0
    slack = ZERO  # total proposal mass given away at cut subtrees
    root = _Visit(spec, spec.root, as_weight(spec.root_w))
    stack = [root]
    while stack:
        frame = stack[-1]
        kids = frame.kids
        while frame.pending is None and frame.next_i < len(kids):
            name, w, c_n, c_d = kids[frame.next_i]
            beta = frame.offer(c_n, c_d)
            if beta is None:
                break
            frame.next_i += 1
            if beta[0] * tol.denominator < tol.numerator * beta[1]:
                cut += 1  # pessimistically the cut subtree consumes nothing
                slack += Fraction(*beta)
                continue
            visited += 1
            if visited > max_nodes:
                raise ScheduleError(
                    f"expanded more than {max_nodes} nodes; raise tol or max_nodes"
                )
            frame.pending = (c_n, c_d)
            stack.append(_Visit(spec, name, w, beta))
        if frame.pending is None:  # done: its parent closes on what it took
            stack.pop()
            if stack:
                parent = stack[-1]
                parent.close(*accepted(frame.lam_n, frame.lam_d, frame.delta_n,
                                       frame.delta_d), *parent.pending)
                parent.pending = None

    lower = Fraction(*accepted(root.lam_n, root.lam_d,
                               root.delta_n, root.delta_d))
    return InfiniteThroughput(lower=lower, upper=lower + slack,
                              visited=visited, cut=cut)


def truncate(spec: InfiniteTreeSpec, depth: int) -> Tree:
    """The finite tree of all *spec* nodes within *depth* edges of the root."""
    if depth < 0:
        raise ScheduleError("depth must be non-negative")
    tree = Tree(spec.root, spec.root_w)
    frontier: List[Tuple[Hashable, int]] = [(spec.root, 0)]
    while frontier:
        node, d = frontier.pop()
        if d == depth:
            continue
        for child_name, child_w, child_c in spec.children(node):
            tree.add_node(child_name, child_w, parent=node, c=child_c)
            frontier.append((child_name, d + 1))
    return tree


# ----------------------------------------------------------------------
# ready-made infinite families
# ----------------------------------------------------------------------
def uniform_binary(w=1, c=2) -> InfiniteTreeSpec:
    """The infinite complete binary tree with identical nodes and links."""

    def children(node: Hashable) -> Sequence[ChildSpec]:
        return [(f"{node}.0", w, c), (f"{node}.1", w, c)]

    return InfiniteTreeSpec(root="R", root_w=w, children=children)


def geometric_chain(w=1, c0=1, growth=Fraction(3, 2)) -> InfiniteTreeSpec:
    """An infinite chain whose link costs grow geometrically.

    With growth > 1 the proposals shrink geometrically with depth, so the
    lazy traversal reaches any cut-off tolerance after logarithmically many
    nodes and the resulting bracket is tight.
    """

    def children(node: Hashable) -> Sequence[ChildSpec]:
        depth = node.count(".") if isinstance(node, str) else 0
        cost = Fraction(c0) * (Fraction(growth) ** depth)
        return [(f"{node}.n", w, cost)]

    return InfiniteTreeSpec(root="R", root_w=w, children=children)

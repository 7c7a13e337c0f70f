"""The heterogeneous tree platform model of the paper (Section 3).

A platform is a node-weighted, edge-weighted tree ``T = (V, E, w, c)``:

* each node ``P_i`` has a weight ``w_i`` — the time to process one task
  (``w_i = +inf`` models a switch with no computing power);
* each edge ``P_i → P_j`` has a weight ``c_ij`` — the time for the parent
  ``P_i`` to communicate one task to its child ``P_j``.

:class:`Tree` is the single platform type used by every algorithm in the
library.  It stores exact :class:`~fractions.Fraction` weights and provides
the traversals and orderings the scheduling algorithms need — in particular
:meth:`Tree.children_by_bandwidth`, the *bandwidth-centric* child order
(increasing communication time) at the heart of Proposition 1 and of the
BW-First procedure.

Node names can be any hashable value; strings such as ``"P0"`` are
conventional.  Child insertion order is preserved and used as the
deterministic tie-break when two children have equal communication times.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.rates import (
    INFINITY,
    FractionLike,
    as_cost,
    as_weight,
    format_fraction,
    is_infinite,
    rate_of,
)
from ..exceptions import PlatformError

NodeId = Hashable
Weight = Union[Fraction, float]  # Fraction, or INFINITY for switches


class Tree:
    """A rooted heterogeneous tree platform.

    Build one either through the constructor + :meth:`add_node`, through
    :class:`repro.platform.builder.TreeBuilder`, or from a nested dictionary
    with :func:`repro.platform.serialization.tree_from_dict`.

    Example
    -------
    >>> t = Tree("P0", w=3)
    >>> t.add_node("P1", w=3, parent="P0", c=1)
    >>> t.add_node("P2", w=18, parent="P0", c=2)
    >>> [str(t.w(n)) for n in t.nodes()]
    ['3', '3', '18']
    """

    def __init__(self, root: NodeId, w: FractionLike = INFINITY):
        self._root: NodeId = root
        self._weights: Dict[NodeId, Weight] = {root: as_weight(w)}
        self._parent: Dict[NodeId, NodeId] = {}
        self._children: Dict[NodeId, List[NodeId]] = {root: []}
        self._edge_cost: Dict[Tuple[NodeId, NodeId], Fraction] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: NodeId,
        w: FractionLike,
        parent: NodeId,
        c: FractionLike,
    ) -> None:
        """Attach a new node *name* with weight *w* under *parent*.

        *c* is the communication time of the new edge ``parent → name``.
        """
        if name in self._weights:
            raise PlatformError(f"duplicate node {name!r}")
        if parent not in self._weights:
            raise PlatformError(f"unknown parent {parent!r} for node {name!r}")
        self._weights[name] = as_weight(w)
        self._parent[name] = parent
        self._children[name] = []
        self._children[parent].append(name)
        self._edge_cost[(parent, name)] = as_cost(c)

    def add_subtree(self, parent: NodeId, c: FractionLike, subtree: "Tree") -> None:
        """Graft *subtree* (a complete :class:`Tree`) under *parent*.

        The subtree's root becomes a child of *parent* through an edge of
        cost *c*.  Node names must not collide with existing names.
        """
        order = list(subtree.nodes())
        for node in order:
            sub_parent = subtree.parent(node)
            if sub_parent is None:
                self.add_node(node, subtree.w(node), parent=parent, c=c)
            else:
                self.add_node(node, subtree.w(node), parent=sub_parent, c=subtree.c(node))

    # ------------------------------------------------------------------
    # in-place mutation (the incremental solver's dirty-path interface)
    # ------------------------------------------------------------------
    def remove_subtree(self, name: NodeId) -> List[NodeId]:
        """Remove *name* and its whole subtree **in place**.

        The in-place counterpart of :meth:`without_subtrees` for a single
        node, used by :class:`repro.core.incremental.IncrementalSolver` to
        mutate its working copy without rebuilding the tree.  Returns the
        removed nodes in pre-order.  The root cannot be removed.
        """
        if name == self._root:
            raise PlatformError("cannot remove the root's subtree")
        if name not in self._weights:
            raise PlatformError(f"unknown node {name!r}")
        parent = self._parent[name]
        self._children[parent].remove(name)
        removed: List[NodeId] = []
        stack = [name]
        while stack:
            node = stack.pop()
            removed.append(node)
            stack.extend(reversed(self._children[node]))
        for node in removed:
            del self._weights[node]
            del self._children[node]
            p = self._parent.pop(node)
            del self._edge_cost[(p, node)]
        return removed

    def failover_root(self, new_root: NodeId) -> NodeId:
        """Re-root the tree under *new_root* after the master died, in place.

        *new_root* must be a child of the current root.  The old root
        leaves the tree entirely (it is dead); its remaining children are
        re-parented under *new_root* at their original edge costs — the
        physical links to the former siblings did not change, only who
        owns the task supply.  Returns the removed old root.
        """
        if new_root not in self._weights:
            raise PlatformError(f"unknown node {new_root!r}")
        old = self._root
        if self._parent.get(new_root) != old:
            raise PlatformError(
                f"failover target {new_root!r} is not a child of the root"
            )
        del self._parent[new_root]
        del self._edge_cost[(old, new_root)]
        siblings = [s for s in self._children[old] if s != new_root]
        for sibling in siblings:
            self._parent[sibling] = new_root
            self._edge_cost[(new_root, sibling)] = self._edge_cost.pop(
                (old, sibling)
            )
        self._children[new_root].extend(siblings)
        del self._children[old]
        del self._weights[old]
        self._root = new_root
        return old

    def set_w(self, name: NodeId, w: FractionLike) -> None:
        """Change the processing weight of *name* in place."""
        if name not in self._weights:
            raise PlatformError(f"unknown node {name!r}")
        self._weights[name] = as_weight(w)

    def set_c(self, name: NodeId, c: FractionLike) -> None:
        """Change the communication cost of the edge into *name* in place."""
        parent = self.parent(name)
        if parent is None:
            raise PlatformError(f"the root {name!r} has no incoming edge")
        self._edge_cost[(parent, name)] = as_cost(c)

    def copy(self) -> "Tree":
        """An independent deep copy (same names, weights and child order).

        Copies the internal maps directly — the weights were validated when
        they entered this tree, so re-validating through :meth:`add_node`
        (as :meth:`subtree` does) would only burn time on the hot
        snapshot-per-solve path of the incremental solver.
        """
        out = Tree.__new__(Tree)
        out._root = self._root
        out._weights = dict(self._weights)
        out._parent = dict(self._parent)
        out._children = {node: list(kids) for node, kids in self._children.items()}
        out._edge_cost = dict(self._edge_cost)
        return out

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> NodeId:
        """The master node (the one generating / initially holding tasks)."""
        return self._root

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, name: NodeId) -> bool:
        return name in self._weights

    def __iter__(self) -> Iterator[NodeId]:
        return self.nodes()

    def w(self, name: NodeId) -> Weight:
        """Processing time of one task on *name* (may be :data:`INFINITY`)."""
        try:
            return self._weights[name]
        except KeyError:
            raise PlatformError(f"unknown node {name!r}") from None

    def rate(self, name: NodeId) -> Fraction:
        """Computing rate ``r_i = 1/w_i`` (0 for switches)."""
        return rate_of(self.w(name))

    def parent(self, name: NodeId) -> Optional[NodeId]:
        """Parent of *name*, or ``None`` for the root."""
        if name not in self._weights:
            raise PlatformError(f"unknown node {name!r}")
        return self._parent.get(name)

    def children(self, name: NodeId) -> Sequence[NodeId]:
        """Children of *name* in insertion order."""
        try:
            return tuple(self._children[name])
        except KeyError:
            raise PlatformError(f"unknown node {name!r}") from None

    def c(self, name: NodeId) -> Fraction:
        """Communication time of the edge from ``parent(name)`` to *name*."""
        parent = self.parent(name)
        if parent is None:
            raise PlatformError(f"the root {name!r} has no incoming edge")
        return self._edge_cost[(parent, name)]

    def edge_cost(self, parent: NodeId, child: NodeId) -> Fraction:
        """Communication time of the edge ``parent → child``."""
        try:
            return self._edge_cost[(parent, child)]
        except KeyError:
            raise PlatformError(f"no edge {parent!r} -> {child!r}") from None

    def bandwidth(self, name: NodeId) -> Fraction:
        """Bandwidth ``b = 1/c`` of the incoming edge of *name*."""
        return Fraction(1) / self.c(name)

    def is_leaf(self, name: NodeId) -> bool:
        """True iff *name* has no children."""
        return not self._children[name]

    def is_switch(self, name: NodeId) -> bool:
        """True iff *name* has no computing power (``w = +inf``)."""
        return is_infinite(self.w(name))

    # ------------------------------------------------------------------
    # traversals and orderings
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[NodeId]:
        """All nodes in depth-first pre-order (root first, insertion order)."""
        stack: List[NodeId] = [self._root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children[node]))

    def leaves(self) -> List[NodeId]:
        """All leaf nodes, in pre-order."""
        return [n for n in self.nodes() if self.is_leaf(n)]

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, Fraction]]:
        """All edges as ``(parent, child, cost)`` in pre-order of the child."""
        for node in self.nodes():
            parent = self._parent.get(node)
            if parent is not None:
                yield parent, node, self._edge_cost[(parent, node)]

    def children_by_bandwidth(self, name: NodeId) -> List[NodeId]:
        """Children of *name* in the bandwidth-centric order.

        That is, by increasing communication time ``c`` — the order in which
        Proposition 1 and BW-First consider children.  Ties are broken by
        insertion order, which keeps every algorithm deterministic.
        """
        kids = self._children[name]
        if len(kids) < 2:
            return list(kids)
        costs = [self._edge_cost[(name, kid)] for kid in kids]
        # each c compared exactly as the integer c·L over the common
        # denominator L: a stable sort of plain ints, ties in insertion order
        common = math.lcm(*[cost.denominator for cost in costs])
        keys = [cost.numerator * (common // cost.denominator) for cost in costs]
        return [kids[i] for i in sorted(range(len(kids)), key=keys.__getitem__)]

    def ancestors(self, name: NodeId) -> List[NodeId]:
        """Proper ancestors of *name*, nearest first (parent, …, root)."""
        result: List[NodeId] = []
        node = self.parent(name)
        while node is not None:
            result.append(node)
            node = self._parent.get(node)
        return result

    def descendants(self, name: NodeId) -> List[NodeId]:
        """All nodes of the subtree rooted at *name*, in pre-order (incl. *name*)."""
        if name not in self._weights:
            raise PlatformError(f"unknown node {name!r}")
        result: List[NodeId] = []
        stack = [name]
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(reversed(self._children[node]))
        return result

    def depth(self, name: NodeId) -> int:
        """Number of edges from the root to *name* (0 for the root)."""
        return len(self.ancestors(name))

    def height(self) -> int:
        """Number of edges on the longest root-to-leaf path (0 for one node)."""
        best = 0
        stack: List[Tuple[NodeId, int]] = [(self._root, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            stack.extend((child, d + 1) for child in self._children[node])
        return best

    def without_subtrees(self, names: Iterable[NodeId]) -> "Tree":
        """A copy of the tree with every named node's whole subtree removed.

        This is the *surviving platform* after the nodes in *names* fail
        fail-stop: a dead node takes its entire subtree with it, since its
        descendants can only be reached through it.  Names must be existing
        non-root nodes; an empty *names* returns an equal copy.
        """
        dead = frozenset(names)
        if self._root in dead:
            raise PlatformError("cannot remove the root's subtree")
        for name in dead:
            if name not in self._weights:
                raise PlatformError(f"unknown node {name!r}")
        out = Tree(self._root, self.w(self._root))
        for node in self.nodes():
            if node == self._root or node in dead:
                continue
            parent = self.parent(node)
            if parent not in out:  # an ancestor was removed
                continue
            out.add_node(node, self.w(node), parent=parent, c=self.c(node))
        return out

    def subtree(self, name: NodeId) -> "Tree":
        """A copy of the subtree rooted at *name* as a standalone :class:`Tree`."""
        sub = Tree(name, self.w(name))
        for node in self.descendants(name):
            if node == name:
                continue
            sub.add_node(node, self.w(node), parent=self.parent(node), c=self.c(node))
        return sub

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def total_compute_rate(self) -> Fraction:
        """Sum of all node computing rates — an upper bound on throughput."""
        return sum((self.rate(n) for n in self.nodes()), Fraction(0))

    def root_capacity(self) -> Fraction:
        """The proposal ``t_max`` used to seed BW-First at the root.

        Under the single-port full-overlap model the tree can never consume
        more than what the root computes plus what its send port can ship on
        its fastest link: ``t_max = r_root + max{b_i | i ∈ C_root}``.
        """
        rate = self.rate(self._root)
        kids = self._children[self._root]
        if not kids:
            return rate
        best_bandwidth = max(Fraction(1) / self._edge_cost[(self._root, k)] for k in kids)
        return rate + best_bandwidth

    # ------------------------------------------------------------------
    # transformation / comparison
    # ------------------------------------------------------------------
    def relabel(self, mapping: Dict[NodeId, NodeId]) -> "Tree":
        """Return a copy with node names replaced through *mapping*.

        Names missing from *mapping* are kept.  The new names must be unique.
        """
        def m(n: NodeId) -> NodeId:
            return mapping.get(n, n)

        new_names = [m(n) for n in self.nodes()]
        if len(set(new_names)) != len(new_names):
            raise PlatformError("relabel mapping is not injective on this tree")
        out = Tree(m(self._root), self.w(self._root))
        for node in self.nodes():
            if node == self._root:
                continue
            out.add_node(m(node), self.w(node), parent=m(self.parent(node)), c=self.c(node))
        return out

    def scale_weights(
        self,
        w_factor: FractionLike = 1,
        c_factor: FractionLike = 1,
    ) -> "Tree":
        """Return a copy with every ``w`` and ``c`` multiplied by the factors.

        Scaling both by the same factor divides the optimal throughput by that
        factor — a property exploited by the tests.
        """
        from ..core.rates import as_fraction

        wf = as_fraction(w_factor)
        cf = as_fraction(c_factor)
        out = Tree(self._root, self.w(self._root) if self.is_switch(self._root)
                   else self.w(self._root) * wf)
        for node in self.nodes():
            if node == self._root:
                continue
            weight = self.w(node)
            if not is_infinite(weight):
                weight = weight * wf
            out.add_node(node, weight, parent=self.parent(node), c=self.c(node) * cf)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return (
            self._root == other._root
            and self._weights == other._weights
            and self._parent == other._parent
            and self._children == other._children
            and self._edge_cost == other._edge_cost
        )

    def __hash__(self) -> int:  # Trees are mutable; identity hash like list would
        raise TypeError("Tree is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Tree(root={self._root!r}, nodes={len(self)})"

    def describe(self) -> str:
        """A multi-line indented rendering of the tree with its weights."""
        lines: List[str] = []

        def visit(node: NodeId, indent: int) -> None:
            label = f"{node} (w={format_fraction(self.w(node))}"
            if self._parent.get(node) is not None:
                label += f", c={format_fraction(self.c(node))}"
            label += ")"
            lines.append("  " * indent + label)
            for child in self._children[node]:
                visit(child, indent + 1)

        visit(self._root, 0)
        return "\n".join(lines)


def validate_tree(tree: Tree) -> None:
    """Run structural sanity checks on *tree*.

    The :class:`Tree` constructor maintains the invariants, so this is mostly
    useful after deserialisation from untrusted input.  Raises
    :class:`~repro.exceptions.PlatformError` on the first violation.
    """
    seen = set()
    for node in tree.nodes():
        if node in seen:
            raise PlatformError(f"node {node!r} reachable twice (cycle?)")
        seen.add(node)
        weight = tree.w(node)
        if not is_infinite(weight) and weight <= 0:
            raise PlatformError(f"node {node!r} has non-positive weight {weight}")
        parent = tree.parent(node)
        if parent is None:
            if node != tree.root:
                raise PlatformError(f"non-root node {node!r} has no parent")
        else:
            if tree.edge_cost(parent, node) <= 0:
                raise PlatformError(f"edge {parent!r}->{node!r} has non-positive cost")
    if len(seen) != len(tree):
        raise PlatformError(
            f"tree has {len(tree)} registered nodes but only {len(seen)} reachable"
        )

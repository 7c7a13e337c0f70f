"""Heterogeneous tree platform model (the paper's Section 3 substrate).

Public surface:

* :class:`~repro.platform.tree.Tree` — the platform type every algorithm
  consumes;
* :class:`~repro.platform.builder.TreeBuilder` and
  :func:`~repro.platform.builder.tree_from_nested` — construction helpers;
* :mod:`~repro.platform.generators` — synthetic platform families;
* :mod:`~repro.platform.examples` — the paper's concrete platforms;
* :mod:`~repro.platform.serialization` — JSON / DOT round-trips;
* :mod:`~repro.platform.nxinterop` — networkx conversion and overlay-tree
  extraction (needs the optional ``nx`` extra; not imported here).
"""

from .builder import TreeBuilder, tree_from_nested
from .dsl import format_tree, parse_tree
from .tree import Tree, validate_tree
from .serialization import (
    load_tree,
    save_tree,
    tree_from_dict,
    tree_to_dict,
    tree_to_dot,
)
from . import examples, generators

__all__ = [
    "Tree",
    "TreeBuilder",
    "tree_from_nested",
    "parse_tree",
    "format_tree",
    "validate_tree",
    "tree_to_dict",
    "tree_from_dict",
    "save_tree",
    "load_tree",
    "tree_to_dot",
    "examples",
    "generators",
]

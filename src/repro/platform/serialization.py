"""Serialisation of :class:`~repro.platform.tree.Tree` platforms.

Supported formats:

* plain dictionaries (:func:`tree_to_dict` / :func:`tree_from_dict`) with all
  weights rendered as exact strings (``"18/5"``, ``"inf"``) so round-trips
  lose no precision;
* JSON files (:func:`save_tree` / :func:`load_tree`) built on the dict form;
* Graphviz DOT (:func:`tree_to_dot`) for visual inspection.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from ..core.rates import format_fraction
from ..exceptions import PlatformError
from .builder import _parse_weight
from .tree import Tree

FORMAT_VERSION = 1


def tree_to_dict(tree: Tree) -> Dict:
    """Serialise *tree* to a JSON-compatible dictionary.

    Node names are converted to strings; exact weights are rendered as
    fraction strings.  The node list is in pre-order so that every parent
    precedes its children, which makes :func:`tree_from_dict` a single pass.
    """
    nodes: List[Dict] = []
    for node in tree.nodes():
        entry: Dict = {"name": str(node), "w": format_fraction(tree.w(node))}
        parent = tree.parent(node)
        if parent is not None:
            entry["parent"] = str(parent)
            entry["c"] = format_fraction(tree.c(node))
        nodes.append(entry)
    return {"format": "repro-tree", "version": FORMAT_VERSION, "nodes": nodes}


def tree_from_dict(data: Dict) -> Tree:
    """Rebuild a :class:`Tree` from the output of :func:`tree_to_dict`."""
    if not isinstance(data, dict):
        raise PlatformError(
            f"a repro-tree document is a JSON object, not {type(data).__name__}")
    if data.get("format") != "repro-tree":
        raise PlatformError("not a repro-tree document")
    version = data.get("version")
    # ``type(...) is int``: ``true`` and ``1.0`` compare equal to 1
    if type(version) is not int or version != FORMAT_VERSION:
        raise PlatformError(f"unsupported repro-tree version {version!r}")
    nodes = data.get("nodes")
    if not isinstance(nodes, list):
        raise PlatformError(
            f"repro-tree nodes are a JSON array, not {type(nodes).__name__}")
    if not nodes:
        raise PlatformError("repro-tree document has no nodes")
    tree = None
    for entry in nodes:
        if not isinstance(entry, dict):
            raise PlatformError(f"node entry {entry!r} is not an object")
        for key in ("name", "parent"):
            try:
                hash(entry.get(key))
            except TypeError:
                raise PlatformError(
                    f"node entry {entry!r}: {key} is not hashable") from None
        try:
            if tree is None:
                if "parent" in entry:
                    raise PlatformError(
                        "first node of a repro-tree document must be the root")
                tree = Tree(entry["name"], _parse_weight(entry["w"]))
            else:
                tree.add_node(entry["name"], _parse_weight(entry["w"]),
                              parent=entry["parent"], c=entry["c"])
        except KeyError as exc:
            raise PlatformError(f"node entry {entry!r} is missing field {exc}") from None
    return tree


def save_tree(tree: Tree, path: Union[str, Path]) -> None:
    """Write *tree* to *path* as JSON."""
    Path(path).write_text(json.dumps(tree_to_dict(tree), indent=2) + "\n")


def load_tree(path: Union[str, Path]) -> Tree:
    """Read a tree previously written by :func:`save_tree`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise PlatformError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PlatformError(f"{path}: invalid JSON: {exc}") from exc
    return tree_from_dict(data)


def tree_to_dot(tree: Tree, highlight: frozenset = frozenset()) -> str:
    """Render *tree* as a Graphviz DOT digraph.

    Nodes in *highlight* are filled grey — the benchmarks use this to show
    which nodes BW-First never visited.
    """
    lines = ["digraph platform {", "  rankdir=TB;"]
    for node in tree.nodes():
        label = f"{node}\\nw={format_fraction(tree.w(node))}"
        style = ' style=filled fillcolor="#cccccc"' if node in highlight else ""
        lines.append(f'  "{node}" [label="{label}"{style}];')
    for parent, child, cost in tree.edges():
        lines.append(f'  "{parent}" -> "{child}" [label="{format_fraction(cost)}"];')
    lines.append("}")
    return "\n".join(lines)

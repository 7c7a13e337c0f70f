"""One task farm — kept that way.

Until the farm core, the greedy floor, Kreaseck's protocol, the
result-return executor and a fork-only return simulator each carried
their own per-node ``_State``, ``_supply_open``, ``_pump``, ``Engine`` and
``Trace``.  These checks parse ``src/`` and fail when a second copy of
that skeleton grows back outside :mod:`repro.sim.farm`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FARM = SRC / "sim" / "farm.py"


def trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def defined(tree, kinds, name):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, kinds) and node.name == name]


def calls(tree, name):
    """Lines calling *name* itself (``Engine(...)``, not ``ArrayEngine``)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == name
                 or getattr(node.func, "attr", None) == name)]


def where(predicate):
    return {path.relative_to(SRC).as_posix()
            for path, tree in trees() if predicate(tree)}


def test_pump_and_supply_open_are_the_farms_only():
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for name in ("_pump", "_supply_open"):
        assert where(lambda t: defined(t, functions, name)) == {"sim/farm.py"}


def test_heap_engines_are_built_by_the_farm_the_oracle_and_the_network():
    assert where(lambda t: calls(t, "Engine")) == {
        "sim/farm.py", "sim/reference.py", "protocol/network.py"}


def test_traces_are_built_by_the_kernels_base_and_the_farm():
    assert where(lambda t: calls(t, "Trace")) == {"sim/base.py", "sim/farm.py"}


def test_no_policy_keeps_its_own_node_state():
    for path, tree in trees():
        if path.parent.name in ("baselines", "extensions"):
            assert not defined(tree, ast.ClassDef, "_State"), path
    assert defined(ast.parse(FARM.read_text()), ast.ClassDef, "_State")

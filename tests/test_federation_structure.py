"""The federation's memo store lives in each shard and holds solutions —
kept that way.

The store used to be a process of its own behind an ``AF_UNIX``
``multiprocessing.connection.Listener``, reached by a client class in
every shard.  Once tenants were onboarded it answered nothing a shard's
own store would not, and it cost a process.  Inside the shard it then
still held every solution in a flat-int wire form: encoded on every
publish, decoded fail-closed on every fetch, behind a locked wrapper
class — for a publisher and a fetcher that share one thread.  These
checks read ``src/repro/`` and fail when the process, its socket, its
client, the wire form or the wrapper grows back.

A shard's ``batch`` and ``onboard`` replies carry only ``throughput`` and
``t_max``, so the shard answers them with ``IncrementalSolver.rate()``:
the solve's loop without replaying outcomes and transactions into a
``BWFirstResult``.  Only the ``result`` request, which ships the whole
solution, calls ``solve()``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.core.bwfirst import bw_first
from repro.core.incremental import IncrementalSolver
from repro.federation.shard import _ShardState
from repro.platform.generators import smooth_tree
from repro.platform.serialization import tree_to_dict

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FEDERATION = SRC / "federation"

GONE = ("multiprocessing.connection", "Listener", "AF_UNIX",
        "MemoService", "SharedMemoClient")

SERIALISED = ("sol_to_wire", "sol_from_wire", "wire_updates",
              "InlineMemoStore")


def sources(root: Path = FEDERATION):
    for path in sorted(root.rglob("*.py")):
        yield path, path.read_text(encoding="utf-8")


@pytest.mark.parametrize("needle", GONE)
def test_the_memo_process_stays_gone(needle):
    for path, text in sources():
        assert needle not in text, (path.name, needle)


@pytest.mark.parametrize("needle", SERIALISED)
def test_the_store_holds_solutions_not_a_wire_form(needle):
    for path, text in sources(SRC):
        assert needle not in text, (path.relative_to(SRC), needle)


def shard_method_calls(name: str) -> set:
    """Names of the attributes ``_ShardState.<name>`` calls."""
    module = ast.parse((FEDERATION / "shard.py").read_text(encoding="utf-8"))
    state = next(node for node in module.body
                 if isinstance(node, ast.ClassDef) and node.name == "_ShardState")
    method = next(node for node in state.body
                  if isinstance(node, ast.FunctionDef) and node.name == name)
    return {node.func.attr for node in ast.walk(method)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}


@pytest.mark.parametrize("name", ["batch", "onboard"])
def test_batch_and_onboard_answer_by_rate(name):
    calls = shard_method_calls(name)
    assert "rate" in calls, name
    assert "solve" not in calls, name


def test_batch_and_onboard_build_no_result(monkeypatch):
    """Run the shard's state in-process with ``solve()`` refused: both
    requests still answer, with ``bw_first``'s rate."""
    def refused(self, proposal=None):
        raise AssertionError("a shard built a BWFirstResult")

    monkeypatch.setattr(IncrementalSolver, "solve", refused)
    tree = smooth_tree(40, seed=3)
    state = _ShardState("s0", shared=None)
    summary = state.onboard("t", tree_to_dict(tree), solve=True)
    assert summary["throughput"] == str(bw_first(tree).throughput)
    leaf = tree.leaves()[0]
    [reply] = state.batch([{"tenant": "t", "ops": [["set_w", leaf, "6144"]]}])
    tree.set_w(leaf, 6144)
    ref = bw_first(tree)
    assert (reply["throughput"], reply["t_max"]) == (str(ref.throughput),
                                                     str(ref.t_max))

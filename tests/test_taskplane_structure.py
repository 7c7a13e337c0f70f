"""One dispatcher per engine, one encoder per process, one router — kept
that way.

Until PR 24 a task-plane engine was six coroutines around an
``asyncio.Queue`` inbox, two more queues and an ``Event``, with three
polls; and every frame body built its own ``JSONEncoder``.  A payload
frame used to be a dict dumped through that encoder.  And the engine
used to route by a second mechanism beside the paper's schedule: stride
scheduling over sinks capped by token buckets, woken by a ``rate`` timer,
on a cluster clock anchored lazily for the buckets' sake.  These checks
read ``src/`` and fail when a loop, a queue, a poll, a per-frame encoder,
a dumped payload frame or that router grows back.
"""

from __future__ import annotations

import ast
import asyncio
import re
from fractions import Fraction
from pathlib import Path

from repro.taskplane import TaskLedger, TaskPlaneNode

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PLANE = SRC / "taskplane" / "plane.py"
CODEC = SRC / "runtime" / "codec.py"
FRAMES = SRC / "taskplane" / "frames.py"

OLD_NAMES = ("_router_loop", "_recv_loop", "_port_loop", "_worker_loop",
             "_sweep_loop", "_drain_loop", "_port_queue", "_worker_queue")
#: the stride router and what it needed, as words anywhere in the package
OLD_ROUTER = ("_Sink", "_pick_sink", "_next_eligible", "stride",
              "start_clock")


def dotted(node: ast.AST) -> str:
    """``a.b.c`` of an attribute chain, ``""`` for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


def test_the_plane_has_no_queue_no_sleep_and_no_waiting_loop():
    tree = ast.parse(PLANE.read_text(encoding="utf-8"))
    names = {dotted(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    assert "asyncio.Queue" not in names and "asyncio.sleep" not in names
    assert "asyncio.Event" not in names
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.While, ast.For, ast.AsyncFor)):
            waits = [node for node in ast.walk(loop)
                     if isinstance(node, ast.Await)
                     and isinstance(node.value, ast.Call)
                     and dotted(node.value.func).endswith((".wait", ".get"))]
            assert not waits, f"line {loop.lineno} waits inside a loop"
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "asyncio"
                for alias in node.names}
    assert not imported & {"Queue", "sleep", "Event"}


def test_an_engine_is_one_coroutine():
    engine = TaskPlaneNode(
        "P0", clock=lambda: 0.0, send=None, parent=None, links=[],
        all_children=[], schedule=None, rate=Fraction(1), capacity=1,
        time_scale=0.01, ledger=TaskLedger(), max_tasks=0)
    (coroutine,) = engine.loops()
    assert asyncio.iscoroutine(coroutine)
    coroutine.close()


def test_no_frame_body_builds_its_own_encoder():
    """``json.dumps(..., separators=...)`` constructs a ``JSONEncoder`` per
    call; the codec dumps every body through the one it built at import."""
    tree = ast.parse(CODEC.read_text(encoding="utf-8"))
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and dotted(call.func) == "json.dumps":
            assert "separators" not in {k.arg for k in call.keywords}, \
                f"line {call.lineno}"
    built = [call.lineno for call in ast.walk(tree)
             if isinstance(call, ast.Call)
             and dotted(call.func) == "json.JSONEncoder"]
    assert len(built) == 1


def test_a_payload_frame_is_formatted_not_dumped():
    """A payload frame's body is its kind's ``bytes`` template; the dict
    form (``to_payload``) lives on only as the oracle in
    ``tests/taskplane_oracles.py``."""
    for path in sorted(SRC.rglob("*.py")):
        assert "to_payload" not in path.read_text(encoding="utf-8"), path
    tree = ast.parse(FRAMES.read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"json", "_dump", "_ENCODE"}
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    assert "json" not in modules


def test_the_old_loops_are_gone_not_switchable():
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in OLD_NAMES:
            assert name not in text, (path, name)
    signature = ast.parse(PLANE.read_text(encoding="utf-8"))
    (init,) = [node for cls in ast.walk(signature)
               if isinstance(cls, ast.ClassDef) and cls.name == "TaskPlaneNode"
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    assert "inbox" not in {arg.arg for arg in init.args.kwonlyargs}


def test_the_stride_router_is_gone():
    """One routing mechanism: ``schedule.destination(j)``.  No sink, stride,
    bucket horizon or lazily anchored clock anywhere under
    ``src/repro/taskplane/``, and the engine arms no ``"rate"`` timer."""
    for path in sorted((SRC / "taskplane").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in OLD_ROUTER:
            assert not re.search(rf"\b{name}\b", text), (path, name)
    plane = ast.parse(PLANE.read_text(encoding="utf-8"))
    armed = {call.args[0].value for call in ast.walk(plane)
             if isinstance(call, ast.Call)
             and dotted(call.func) == "self._arm"}
    assert armed == {"port", "cpu", "sweep"}
    fields = {node.target.id for cls in ast.walk(plane)
              if isinstance(cls, ast.ClassDef) and cls.name == "ChildLink"
              for node in cls.body if isinstance(node, ast.AnnAssign)}
    assert fields == {"name", "c", "capacity"}
    init = TaskPlaneNode.__init__.__code__
    assert "alpha" not in init.co_varnames[:init.co_argcount
                                           + init.co_kwonlyargcount]


def test_plane_and_cluster_are_no_longer_than_before_the_dispatcher():
    lines = sum(len((SRC / "taskplane" / name).read_text().splitlines())
                for name in ("plane.py", "cluster.py"))
    assert lines <= 753 + 576

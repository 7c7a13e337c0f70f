"""The three task farms, pinned run for run.

The greedy floor (:func:`~repro.baselines.simulate_greedy`), Kreaseck et
al.'s demand-driven protocol (:func:`~repro.baselines.simulate_demand_driven`)
and the result-return executor
(:func:`~repro.extensions.return_sim.simulate_with_returns`) are pinned to
trace digests in ``tests/data/farm_trace_digests.json``: 25 seeded random
trees with switch nodes (``w = inf``; every fourth root a switch too), in
horizon mode and in supply mode, crossed with

* greedy at window 2 and 1;
* Kreaseck at slack 1 and 2, non-interruptible and interruptible;
* result returns, patient and impatient.

A digest covers the segments in **canonical sorted order**, then the
completions, arrivals, releases and buffer deltas in append order, then
``released``, ``end_time`` and — for every farm but greedy — ``stop_time``.
Segment order is canonicalised because no reader in ``src/`` depends on
it: the Gantt chart, the periodicity check and the SVG all sort or key
segments; only the CSV / JSONL exports list rows in append order.  A
Kreaseck run also pins ``request_messages`` and ``interruptions``, and has
a second digest with its segments in raw append order.

Re-record only from the commit *before* a change to the farms:
``PYTHONPATH=<parent checkout>/src python -m tests.test_farm``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.baselines import simulate_demand_driven, simulate_greedy
from repro.extensions.result_return import uniform_return_platform
from repro.extensions.return_sim import simulate_with_returns
from repro.platform.generators import random_tree

SEEDS = list(range(25))
DIGEST_FILE = Path(__file__).parent / "data" / "farm_trace_digests.json"
MODES = {"horizon": {"horizon": Fraction(40)}, "supply": {"supply": 30}}
RATIOS = (Fraction(1), Fraction(1, 2), Fraction(2))


def farm_tree(seed: int):
    tree = random_tree(10, seed, switch_probability=0.25)
    if seed % 4 == 0:
        tree.set_w(tree.root, "inf")
    return tree


def _greedy(window):
    return lambda tree, seed, **mode: simulate_greedy(tree, window=window,
                                                       **mode)


def _kreaseck(slack, interruptible):
    return lambda tree, seed, **mode: simulate_demand_driven(
        tree, slack=slack, interruptible=interruptible, **mode)


def _returns(patient):
    return lambda tree, seed, **mode: simulate_with_returns(
        uniform_return_platform(tree, RATIOS[seed % 3]), patient=patient,
        **mode)


RUNS = {
    "greedy/w2": _greedy(2),
    "greedy/w1": _greedy(1),
    "kreaseck/s1": _kreaseck(1, False),
    "kreaseck/s2": _kreaseck(2, False),
    "kreaseck/s1/interruptible": _kreaseck(1, True),
    "kreaseck/s2/interruptible": _kreaseck(2, True),
    "returns/patient": _returns(True),
    "returns/impatient": _returns(False),
}


def _digest(canonical) -> str:
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def farm_digests(name: str, result) -> dict:
    """The digests of one run: ``trace``, plus ``raw`` for Kreaseck."""
    trace = result.trace
    segments = [(str(s.node), s.kind, str(s.start), str(s.end), str(s.peer))
                for s in trace.segments]
    rest = [
        [(str(t), str(n)) for t, n in trace.completions],
        [(str(t), str(n)) for t, n in trace.arrivals],
        [(str(t), str(n)) for t, n in trace.releases],
        [(str(t), str(n), d) for t, n, d in trace.buffer_deltas],
        result.released, str(result.end_time),
    ]
    if not name.startswith("greedy"):
        rest.append(str(result.stop_time))
    if name.startswith("kreaseck"):
        rest += [result.request_messages, result.interruptions]
    out = {"trace": _digest((sorted(segments), rest))}
    if name.startswith("kreaseck"):
        out["raw"] = _digest((segments, rest))
    return out


def run_all(seed: int) -> dict:
    """``{run name: {mode: digests}}`` for ``farm_tree(seed)``."""
    out = {}
    for name, run in RUNS.items():
        for mode, kwargs in MODES.items():
            out[f"{name}/{mode}"] = farm_digests(
                name, run(farm_tree(seed), seed, **kwargs))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_every_farm_reproduces_the_recorded_digests(seed):
    recorded = json.loads(DIGEST_FILE.read_text())[str(seed)]
    got = run_all(seed)
    assert got.keys() == recorded.keys()
    for key, digests in got.items():
        assert digests == recorded[key], (
            f"{key} diverged from the pinned run on seed {seed}")


def test_the_trees_cover_switches_and_switch_roots():
    trees = [farm_tree(seed) for seed in SEEDS]
    assert sum(tree.rate(tree.root) == 0 for tree in trees) >= 5
    assert sum(any(tree.rate(n) == 0 for n in tree.nodes() if n != tree.root)
               for tree in trees) >= 15


def record() -> None:
    """Rewrite the digest file from whatever ``repro`` is importable —
    meant to be run against the commit before a change to the farms."""
    digests = {str(seed): run_all(seed) for seed in SEEDS}
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()

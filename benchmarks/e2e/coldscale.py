"""``coldscale`` — no cache can help: the full solver, the full Section 6
reconstruction and the array event kernel on one big tree.

One block plans the platform from nothing (``bw_first`` → ``from_bw_first``
→ ``tree_periods`` → ``build_schedules``; that wall is the ``cold_plan``
sample) and then builds and runs the counts-only array simulation for a
few global periods, whose last period must show exactly the optimum rate.

The input has a *stated size*.  BW-First visits only the nodes the
optimal schedule uses, and on smooth trees that set is decided by the
first few levels: among 10000-node trees it ranges from 1600 to 3300
nodes, the global period from 12288 to 98304 and the schedules' slots
(the bunch sizes, summed) from 90000 to 360000 — a 3× range of planning
cost and a 6× range of events per period; within one period, slots alone
still move the plan by ±6 % (correlation 0.89 over ten trees).  So the
seed picks one of ten trees of one size class (:data:`CLASS`, about one
tree in seven: searching on every run cost up to twenty seconds) and the
run checks that it still belongs; that check is input generation and is
not timed.
"""

from __future__ import annotations

from fractions import Fraction

from repro.analysis.throughput import measured_rate
from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.platform.generators import smooth_tree
from repro.schedule.eventdriven import build_schedules
from repro.schedule.periods import global_period, tree_periods
from repro.sim.simulator import Simulation

from .workloads import Workload, record_op

#: the size class: visited nodes and schedule slots (inclusive ranges),
#: global period
CLASS = {"visited": (3000, 3400), "period": 12288,
         "slots": (101000, 108000)}
SMOKE_CLASS = {"visited": (150, 2000)}

#: generator seeds of ten 10000-node trees of the class: the hits of
#: ``in_class(smooth_tree(10000, k), CLASS)`` for k = 0..44
POOL = (5, 7, 24, 25, 27, 28, 32, 34, 41, 44)

#: smoke trees are searched for: candidates tried before giving up
MAX_CANDIDATES = 200


def plan(tree, tr, op=None):
    """The cold planning chain.  Returns its four timers (one per call, so
    each is judged against the host speed right around it) and what a
    simulation needs."""
    with tr.op() as solved, tr.span("core.bw_first", op):
        result = bw_first(tree)
    with tr.op() as allocated, tr.span("core.allocation", op):
        allocation = from_bw_first(result)
    with tr.op() as timed, tr.span("schedule.tree_periods", op):
        periods = tree_periods(allocation)
    with tr.op() as built, tr.span("schedule.build_schedules", op):
        schedules = build_schedules(allocation, periods=periods)
    return ((solved, allocated, timed, built),
            result, allocation, periods, schedules)


def in_class(tree, size_class: dict) -> bool:
    result = bw_first(tree)
    lo, hi = size_class["visited"]
    if not lo <= len(result.outcomes) <= hi:
        return False
    if "period" not in size_class:
        return True
    periods = tree_periods(from_bw_first(result))
    lo, hi = size_class["slots"]
    return (global_period(periods) == size_class["period"]
            and lo <= sum(p.bunch for p in periods.values()) <= hi)


class ColdScale(Workload):
    name = "coldscale"
    exact_blocks = 1
    work_count = "sim.events"

    def inputs(self, seed: int, smoke: bool) -> dict:
        if smoke:
            nodes, size_class = 600, SMOKE_CLASS
            candidates = range(seed * 1000, seed * 1000 + MAX_CANDIDATES)
        else:
            nodes, size_class = 10000, CLASS
            candidates = (POOL[seed % len(POOL)],)
        for tree_seed in candidates:
            if in_class(smooth_tree(nodes, tree_seed), size_class):
                return {"nodes": nodes, "tree_seed": tree_seed,
                        "periods": 3 if smoke else 4}
        raise RuntimeError(
            f"no {nodes}-node smooth tree of class {size_class} among the "
            f"generator seeds {candidates} (did the generator change?)")

    def setup(self, inputs: dict, tr) -> dict:
        with tr.span("platform.generate"):
            tree = smooth_tree(inputs["nodes"], inputs["tree_seed"])
        # lazy imports and the array backend's first use belong to set-up
        with tr.span("harness.warmup"):
            small = smooth_tree(60, inputs["tree_seed"])
            _, result, _, periods, schedules = plan(small, tr)
            Simulation(small, dict(schedules), dict(periods),
                       horizon=Fraction(global_period(periods)),
                       kernel="array", record_segments=False,
                       record_buffers=False).run()
            tr.count("core.bw_first.node_evals", len(result.outcomes))
        return {"tree": tree, "periods": inputs["periods"]}

    def block(self, state: dict, tr, index: int) -> None:
        tree, op = state["tree"], f"rep{index}"
        tr.count("platform.nodes", len(tree))
        planned, result, allocation, periods, schedules = plan(tree, tr, op)
        record_op(tr, *planned, sample=True)
        tr.count("core.bw_first.node_evals", len(result.outcomes))
        period = global_period(periods)
        horizon = Fraction(period) * state["periods"]
        # a private copy per repetition, as resilient_run makes one
        with tr.span("platform.copy", op):
            private = tree.copy()
        with tr.span("sim.build", op):
            sim = Simulation(private, dict(schedules), dict(periods),
                             horizon=horizon, kernel="array",
                             root_pacing="even", record_segments=False,
                             record_buffers=False)
        with tr.op() as ran, tr.span("sim.run", op):
            outcome = sim.run()
        record_op(tr, ran, busy=True)
        tr.count("sim.events", sim.engine.processed)
        tr.count("sim.tasks_completed", outcome.completed)
        with tr.span("harness.check", op):
            rate = measured_rate(outcome.trace, horizon - period, horizon)
            tr.check(rate == allocation.throughput,
                     f"{op}: last-period rate {rate} != optimum "
                     f"{allocation.throughput}")

"""``recovery`` — the same solver and runtime used differently: structural
mutations and sockets instead of weight drift and queues.

One block is one supervised ``resilient_run`` of the dash plan on a smooth
tree: three leaf crashes at t = 2, 4, 6, the first victim rejoining at
t = 8, every re-negotiation over loopback TCP, the array kernel carrying
the supervised simulation.  The run must end at exactly the surviving
platform's optimum after the epochs ``prune, prune, prune, rejoin``.

One call is one ledger row: splitting detection, negotiation and
simulation inside it needs spans inside the program, which is a later
issue.
"""

from __future__ import annotations

from fractions import Fraction

from repro.faults.plan import FaultPlan, NodeCrash, NodeRejoin
from repro.faults.recovery import resilient_run
from repro.platform.generators import smooth_tree
from repro.runtime import negotiate

from .workloads import Workload, record_op

EPOCHS = ["prune", "prune", "prune", "rejoin"]


def dash_plan(tree, seed: int) -> FaultPlan:
    """Three spread-out leaves crash two time units apart; the first is
    repaired once its death has been declared (interval 1, timeout 1/2:
    declared at 2.5)."""
    leaves = sorted((n for n in tree.leaves() if n != tree.root), key=str)
    victims = leaves[:: max(1, len(leaves) // 3)][:3]
    crashes = tuple(NodeCrash(node, Fraction(2 + 2 * i))
                    for i, node in enumerate(victims))
    return FaultPlan(crashes=crashes,
                     rejoins=(NodeRejoin(victims[0], Fraction(8)),),
                     seed=seed)


class Recovery(Workload):
    name = "recovery"
    exact_blocks = 1
    work_count = "faults.epochs"

    def inputs(self, seed: int, smoke: bool) -> dict:
        return {"seed": seed, "nodes": 40 if smoke else 120}

    def setup(self, inputs: dict, tr) -> dict:
        with tr.span("platform.generate"):
            tree = smooth_tree(inputs["nodes"], inputs["seed"])
        plan = dash_plan(tree, inputs["seed"])
        # the first socket negotiation pays for asyncio's and the codec's
        # lazy imports; users pay that once per process, not per recovery
        with tr.span("harness.warmup"):
            negotiate(smooth_tree(12, inputs["seed"]), "tcp", verify=False)
        return {"tree": tree, "plan": plan}

    def block(self, state: dict, tr, index: int) -> None:
        op = f"rep{index}"
        tr.count("platform.nodes", len(state["tree"]))
        with tr.op() as ran, tr.span("faults.resilient_run", op):
            report = resilient_run(
                state["tree"], state["plan"], runtime="tcp", kernel="array",
                settle_periods=1, after_periods=2)
        record_op(tr, ran, sample=True, busy=True)
        tr.count("faults.epochs", len(report.epochs))
        tr.count("faults.heartbeats", report.heartbeats)
        tr.count("faults.reneg_messages", report.renegotiation_messages)
        tr.count("faults.reneg_bytes", report.renegotiation_bytes)
        tr.count("faults.retransmissions", report.retransmissions)
        tr.count("faults.tasks_lost", report.tasks_lost)
        tr.count("sim.tasks_completed", report.result.completed)
        with tr.span("harness.check", op):
            tr.check(report.rate_after == report.new_optimum,
                     f"{op}: rate_after {report.rate_after} != new optimum "
                     f"{report.new_optimum}")
            kinds = [epoch.kind for epoch in report.epochs]
            tr.check(kinds == EPOCHS, f"{op}: epochs {kinds} != {EPOCHS}")

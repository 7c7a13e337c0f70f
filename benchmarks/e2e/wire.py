"""``wire-tcp`` / ``wire-inproc`` — the solver idles, the wire works.

One block negotiates a 500-node smooth tree a few times over the
transport (each a ``negotiate_p50`` sample, each ``==`` the reference
solved once in set-up), runs the simulated protocol on the same tree as
often (the nearest baseline: same actors, no event loop, no codec), then
drives the Section 8 tree's task plane unpaced — ``time_scale=2e-5`` is an
existing public argument at which pacing sleeps vanish and the plane is
bound by per-frame cost — checking the exactly-once ledger and the
Prop. 3 buffer bound.

The two workloads are the same code with another transport string, so a
gain for sockets that costs queues (or the reverse) shows side by side,
and actor-loop gains separate from codec gains.
"""

from __future__ import annotations

import random

from repro.core.bwfirst import bw_first
from repro.platform.examples import paper_figure4_tree
from repro.platform.generators import smooth_tree
from repro.protocol import run_protocol
from repro.runtime import negotiate
from repro.taskplane import run_plane

from .workloads import Workload, record_op

#: per transport: negotiations per block, plane tasks per block — sized so
#: a block is about three seconds on either wire
SIZES = {"tcp": (4, 4000), "inproc": (16, 8000)}
SMOKE_SIZES = {"tcp": (1, 300), "inproc": (2, 600)}

TIME_SCALE = 2e-5
PAYLOAD = 64


def seeded_payloads(seed: int):
    """``task_id → 64 opaque bytes`` cut from one seeded pool."""
    pool = random.Random(seed).randbytes(4096)
    span = len(pool) - PAYLOAD

    def payload(task_id: int) -> bytes:
        at = task_id * 7 % span
        return pool[at:at + PAYLOAD]

    return payload


class Wire(Workload):
    exact_blocks = 1
    work_count = "taskplane.tasks"

    def __init__(self, transport: str):
        self.transport = transport
        self.name = f"wire-{transport}"

    def inputs(self, seed: int, smoke: bool) -> dict:
        negotiations, tasks = (SMOKE_SIZES if smoke else SIZES)[self.transport]
        return {"seed": seed, "nodes": 60 if smoke else 500,
                "negotiations": negotiations, "tasks": tasks}

    def setup(self, inputs: dict, tr) -> dict:
        with tr.span("platform.generate"):
            tree = smooth_tree(inputs["nodes"], inputs["seed"])
            plane_tree = paper_figure4_tree()
        with tr.span("core.bw_first"):
            reference = bw_first(tree)
        tr.count("core.bw_first.node_evals", len(reference.outcomes))
        # lazy imports of asyncio, the codec and the transport
        with tr.span("harness.warmup"):
            negotiate(smooth_tree(12, inputs["seed"]), self.transport,
                      verify=False)
        depth = {str(n): plane_tree.depth(n) for n in plane_tree.nodes()}
        return dict(inputs, tree=tree, plane_tree=plane_tree, depth=depth,
                    reference=reference.throughput,
                    payload=seeded_payloads(inputs["seed"]))

    def block(self, state: dict, tr, index: int) -> None:
        tree, transport = state["tree"], self.transport
        tr.count("platform.nodes", len(tree))
        for k in range(state["negotiations"]):
            op = f"rep{index}.n{k}"
            with tr.op() as ran, tr.span("runtime.negotiate", op):
                result = negotiate(tree, transport, verify=False)
            record_op(tr, ran, sample=True, name="runtime.negotiate")
            tr.count("runtime.messages", result.messages)
            tr.count("runtime.tcp_octets",
                     result.telemetry.value("runtime.tcp.octets"))
            tr.count("runtime.retransmissions", result.retransmissions)
            with tr.span("harness.check", op):
                tr.check(result.throughput == state["reference"],
                         f"{op}: negotiated {result.throughput} != "
                         f"bw_first {state['reference']}")
        for k in range(state["negotiations"]):
            op = f"rep{index}.p{k}"
            with tr.op() as ran, tr.span("protocol.run", op):
                simulated = run_protocol(tree, verify=False)
            record_op(tr, ran, name="protocol.run")
            tr.count("protocol.messages", simulated.messages)
            with tr.span("harness.check", op):
                tr.check(simulated.throughput == state["reference"],
                         f"{op}: simulated protocol {simulated.throughput} "
                         f"!= bw_first {state['reference']}")
        self._plane(state, tr, f"rep{index}.plane")

    def _plane(self, state: dict, tr, op: str) -> None:
        with tr.op() as ran, tr.span("taskplane.run", op):
            report = run_plane(state["plane_tree"], self.transport,
                               time_scale=TIME_SCALE,
                               max_tasks=state["tasks"],
                               payload_factory=state["payload"])
        record_op(tr, ran, busy=True)
        tr.count("taskplane.tasks", report.completed)
        shares = report.worker_completed
        tr.count("taskplane.hops", sum(done * state["depth"][name]
                                       for name, done in shares.items()))
        tr.count("taskplane.resends", report.resends)
        tr.count("taskplane.duplicates", report.duplicates)
        tr.count("taskplane.lost", report.lost)
        over = max(peak / report.bounds.get(node, 1)
                   for node, peak in report.peak_occupancy.items())
        tr.totals["taskplane.peak_occupancy_over_bound"] = max(
            over, tr.totals["taskplane.peak_occupancy_over_bound"])
        with tr.span("harness.check", op):
            tr.check(report.lost == 0, f"{op}: {report.lost} tasks lost")
            tr.check(report.duplicates == 0,
                     f"{op}: {report.duplicates} duplicated results")
            tr.check(report.occupancy_ok(),
                     f"{op}: buffer occupancy beyond the Prop. 3 bound")
            tr.check(sum(shares.values()) == report.completed
                     == state["tasks"],
                     f"{op}: worker shares {sum(shares.values())} / "
                     f"completed {report.completed} / asked {state['tasks']}")

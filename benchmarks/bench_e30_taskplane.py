"""E30: the task plane — real payloads at the solver's promised rate.

The acceptance experiment for ``repro.taskplane``: live planes executing
actual task payloads under the negotiated BW-First schedule must

* **converge** — measured steady-state completions/sec lands within
  tolerance of the solver's optimum ``λ−θ`` (0.3 on the shared-loop
  substrates, 0.35 on the multi-process cluster where OS scheduling
  noise is real);
* **respect the buffer analysis** — no per-node buffer occupancy ever
  exceeds the analytic bound from ``analysis/buffers.py`` (χ_in + 2);
* **account exactly** — zero lost and zero duplicated results, including
  under seeded payload faults (dropped task frames, corrupted payloads),
  on both the in-process and the multi-process TCP substrates;
* **write a burst at once** — unpaced, the Fig. 4 TCP plane makes at most
  1.6 socket writes per completed task (one per edge a burst touches,
  ≈ 1.5; a write per frame would be ≈ 4.6), counted by wrapping the
  transport's socket writes here, not by a counter in ``src/``.
"""

from fractions import Fraction

from repro.faults.chaos import data_plane_sweep
from repro.faults.plan import FaultPlan
from repro.platform.examples import paper_figure4_tree
from repro.runtime.transport import TcpTransport
from repro.taskplane import run_cluster, run_plane
from repro.util.text import render_table

from .conftest import emit

TOLERANCE = 0.3
CLUSTER_TOLERANCE = 0.35
WRITES_PER_TASK = 1.6


def _check(report, tolerance=TOLERANCE):
    assert report.lost == 0, f"{report.lost} tasks lost"
    assert report.duplicates == 0, f"{report.duplicates} results duplicated"
    assert report.occupancy_ok(), (
        f"occupancy {report.peak_occupancy} exceeds bounds {report.bounds}"
    )
    assert report.within(tolerance), (
        f"convergence {report.convergence} outside ±{tolerance}"
    )


def _row(report):
    return [report.transport, f"{report.completed}/{report.generated}",
            str(report.duplicates),
            f"{report.convergence:.3f}" if report.convergence else "—",
            "yes" if report.occupancy_ok() else "NO",
            f"{report.wall_seconds:.1f}s"]


def test_e30_taskplane_gate(benchmark, paper_tree):
    """Shared-loop substrates: in-proc queues and loopback TCP."""
    def run():
        inproc = run_plane(paper_tree, "inproc", max_tasks=200)
        tcp = run_plane(paper_tree, "tcp", max_tasks=150)
        return inproc, tcp

    inproc, tcp = benchmark.pedantic(run, rounds=1, iterations=1)
    _check(inproc)
    _check(tcp)
    assert tcp.stray_control == 0, "negotiation frames leaked into the plane"
    emit(
        "E30: task plane convergence to the solver optimum",
        render_table(
            ["substrate", "completed", "dup", "convergence", "occupancy ok",
             "wall"],
            [_row(inproc), _row(tcp)],
        ),
    )


class _WriteCountingTcp(TcpTransport):
    """Counts every socket write once the edges are connected (the
    negotiation's included: 16 on Fig. 4)."""

    writes = 0

    async def start(self, tree, mailboxes):
        await super().start(tree, mailboxes)
        for end in self._ends:
            end.write = self._counted(end.write)

    def _counted(self, write):
        def counted(data):
            self.writes += 1
            write(data)
        return counted


def test_e30_tcp_writes_per_task_gate(paper_tree):
    """A count, not a clock: the unpaced plane hands the transport its
    whole burst and TCP writes each edge's frames with one ``write``."""
    transport = _WriteCountingTcp()
    report = run_plane(paper_tree, transport, time_scale=2e-5, max_tasks=2000)
    assert report.completed == 2000 and report.lost == 0
    per_task = transport.writes / report.completed
    frames = transport.messages_sent / report.completed
    assert per_task <= WRITES_PER_TASK, (
        f"{per_task:.2f} socket writes per task (bound {WRITES_PER_TASK})")
    emit("E30: socket writes per task, unpaced Fig. 4 TCP plane",
         f"{per_task:.2f} writes for {frames:.2f} frames per task "
         f"(bound {WRITES_PER_TASK})")


def test_e30_cluster_gate(benchmark):
    """Multi-process TCP: one OS process per node, negotiation and
    payload frames on the same sockets."""
    tree = paper_figure4_tree()
    report = benchmark.pedantic(
        lambda: run_cluster(tree, max_tasks=120, deadline=90),
        rounds=1, iterations=1,
    )
    _check(report, tolerance=CLUSTER_TOLERANCE)
    # every process verified its own actor against the centralised solve
    # (a divergence raises inside the process and fails the launch), and
    # all worker shares must add up to the ledger's completions
    assert sum(report.worker_completed.values()) == report.completed
    emit(
        "E30: multi-process cluster",
        render_table(
            ["substrate", "completed", "dup", "convergence", "occupancy ok",
             "wall"],
            [_row(report)],
        ),
    )


def test_e30_faults_exact_accounting(benchmark, paper_tree):
    """Seeded payload faults on the paper tree: drops and corruptions
    recovered by retention resends and checksum naks, exactly once."""
    plan = FaultPlan(seed=7, task_drop=Fraction(1, 10),
                     task_corrupt=Fraction(1, 12))
    report = benchmark.pedantic(
        lambda: run_plane(paper_tree, "inproc", max_tasks=80, plan=plan),
        rounds=1, iterations=1,
    )
    assert report.lost == 0 and report.duplicates == 0
    assert report.injected_drops > 0 and report.injected_corruptions > 0
    assert report.resends > 0, "drops were injected but never resent"
    assert report.resend_requests > 0, "corruptions never triggered a nak"
    assert report.occupancy_ok()
    emit(
        "E30: exact accounting under payload faults",
        f"{report.completed}/{report.generated} tasks despite "
        f"{report.injected_drops} drops + {report.injected_corruptions} "
        f"corruptions ({report.resends} resends, "
        f"{report.resend_requests} naks)",
    )


def test_e30_data_plane_chaos(benchmark):
    """Random platforms × random payload-fault plans, both substrates."""
    def sweep():
        return (data_plane_sweep(cases=5, seed=0, transport="inproc"),
                data_plane_sweep(cases=3, seed=100, transport="tcp"))

    inproc, tcp = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for summary in (inproc, tcp):
        assert summary.exact_count == summary.cases
        assert summary.faults_injected > 0, "the sweep injected nothing"
    emit(
        "E30: data-plane chaos sweep",
        f"inproc {inproc.exact_count}/{inproc.cases} exact "
        f"({inproc.faults_injected} faults), "
        f"tcp {tcp.exact_count}/{tcp.cases} exact "
        f"({tcp.faults_injected} faults)",
    )

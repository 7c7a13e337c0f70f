"""E23: fault injection + self-healing re-negotiation.

The robustness experiment the paper's distributed procedure makes possible
but never runs: crash visited nodes mid-steady-state, lose and duplicate
control messages, stretch links — and measure how the platform heals.  The
sweep varies the crash set, the control-plane drop rate and the detection
timeout; in **every** cell the recovered throughput must equal the
centralised BW-First optimum of the pruned tree *exactly* (Proposition 2 on
the survivors), which is the subsystem's acceptance bar.

The last test gates what a recovery is allowed to cost, in counts that
repeat exactly: on the end-to-end benchmark's ``recovery`` inputs every
socket is dialled once (plus the one the rejoin adds), the detector
spends engine events on the deaths, not on the grid, and a re-negotiation
exchanges what its epoch changed — with the four cold negotiations of the
same platforms kept beside it as the gate they always were.
"""

from fractions import Fraction

from repro.core.bwfirst import bw_first
from repro.faults import (FaultPlan, HeartbeatMonitor, NodeCrash,
                          resilient_run)
from repro.platform.examples import paper_figure4_tree
from repro.platform.generators import smooth_tree
from repro.protocol.retry import RetryPolicy
from repro.runtime import TcpTransport, negotiate
from repro.util.text import render_table

from .conftest import emit
from .e2e.recovery import dash_plan

F = Fraction

#: Crash sets to sweep (all visited nodes of the Figure-4 negotiation,
#: P4 taking its subtree {P8, P9} with it).
CRASH_SETS = [
    ("P3",),
    ("P4",),
    ("P4", "P3"),
]
DROP_RATES = [F(0), F(1, 10), F(3, 10)]
TIMEOUTS = [F(1, 4), F(1)]


def one_cell(crashes, drop, timeout):
    tree = paper_figure4_tree()
    plan = FaultPlan(
        seed=int(drop * 100) + 17 * len(crashes),
        crashes=tuple(
            NodeCrash(node, F(5) + i) for i, node in enumerate(crashes)
        ),
        drop=drop,
        duplicate=drop / 2,
    )
    report = resilient_run(
        tree,
        plan,
        heartbeat_interval=F(1),
        detection_timeout=timeout,
        retry=RetryPolicy(max_retries=10),
    )
    return tree, report


def sweep():
    rows = []
    for crashes in CRASH_SETS:
        for drop in DROP_RATES:
            for timeout in TIMEOUTS:
                tree, report = one_cell(crashes, drop, timeout)
                pruned = tree.without_subtrees(crashes)
                reference = bw_first(pruned).throughput
                # the acceptance bar: exact recovery to the pruned optimum
                assert report.rate_after == report.new_optimum == reference
                rows.append((crashes, drop, timeout, report, reference))
    return rows


def test_fault_recovery_sweep(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = []
    for crashes, drop, timeout, report, reference in rows:
        table.append([
            "+".join(crashes),
            f"{float(drop):.0%}",
            f"{float(timeout):.2f}",
            f"{float(report.old_optimum):.3f}",
            f"{float(report.rate_during):.3f}",
            f"{float(report.rate_after):.3f}",
            "yes" if report.rate_after == reference else "NO",
            str(report.tasks_lost),
            str(report.retransmissions),
            str(report.dropped),
            f"{float(report.negotiation_wallclock):.2f}",
        ])
    emit(
        "E23: crash + lossy control plane → detect, prune, re-negotiate",
        render_table(
            ["crashes", "drop", "t/o", "before", "during", "after",
             "exact", "lost", "retx", "dropped", "reneg wall-clock"],
            table,
        ),
    )

    for crashes, drop, timeout, report, reference in rows:
        # the crash really hurt while it lasted …
        assert report.rate_during < report.old_optimum
        # … destroyed work in flight …
        assert report.tasks_lost > 0
        # … and every death was declared within one beat + timeout
        for node, declared in report.detected_at.items():
            crashed_at = next(c.time for c in
                              (NodeCrash(n, F(5) + i)
                               for i, n in enumerate(crashes)) if c.node == node)
            assert crashed_at < declared <= crashed_at + 1 + timeout
    # drops actually happened at the lossy settings and were healed by retry
    lossy = [r for _c, d, _t, r, _ref in rows if d > 0]
    assert any(r.dropped > 0 for r in lossy)
    assert all(r.rate_after == r.new_optimum for _c, _d, _t, r, _ref in rows)


def test_same_seed_reproduces_identical_run(benchmark):
    def twice():
        _tree, a = one_cell(("P4",), F(3, 10), F(1))
        _tree, b = one_cell(("P4",), F(3, 10), F(1))
        return a, b

    a, b = benchmark.pedantic(twice, rounds=1, iterations=1)
    assert a.timeline == b.timeline
    assert a.detected_at == b.detected_at
    assert a.tasks_lost == b.tasks_lost
    assert (a.retransmissions, a.dropped, a.duplicated) == (
        b.retransmissions, b.dropped, b.duplicated
    )
    assert list(a.result.trace.completions) == list(b.result.trace.completions)
    emit(
        "E23: determinism",
        f"two runs, same plan: identical traces "
        f"({len(a.result.trace.completions)} completions, "
        f"{a.retransmissions} retransmissions, {a.dropped} drops)",
    )


def epoch_platforms(tree, plan):
    """The platform after each epoch of a dash plan."""
    live, stash = tree.copy(), {}
    for crash in plan.crashes:
        node = crash.node
        stash[node] = live.parent(node), live.c(node), live.subtree(node)
        live.remove_subtree(node)
        yield live.copy()
    for rejoin in plan.rejoins:
        live.add_subtree(*stash[rejoin.node])
        yield live.copy()


def test_recovery_costs_what_the_faults_changed(monkeypatch):
    """The ``recovery`` workload of ``benchmarks/e2e`` (``smooth_tree(120,
    1)``, three leaf crashes, one rejoin, TCP re-negotiations), by counts:
    118 + 0 + 0 + 1 sockets dialled over the four epochs (468 when every
    epoch built its own transport), 49 162 heartbeat rounds reported for
    at most 2 + deaths beats on the engine, and 22 + 199 + 109 + 24
    messages, 12 of them notices, where four cold negotiations of the same
    four platforms say 238 + 236 + 234 + 236 = 944 (49 166 rounds before
    the re-negotiations were warm: the last switch comes 3.88 time units
    sooner, and the horizon with it)."""
    beats = []
    beat = HeartbeatMonitor._beat

    def counted(monitor):
        beats.append(monitor)
        beat(monitor)

    monkeypatch.setattr(HeartbeatMonitor, "_beat", counted)
    tree = smooth_tree(120, 1)
    plan = dash_plan(tree, 1)
    transport = TcpTransport()
    report = resilient_run(tree, plan, runtime=transport,
                           settle_periods=1, after_periods=2)
    assert [e.kind for e in report.epochs] == ["prune"] * 3 + ["rejoin"]
    assert report.rate_after == report.new_optimum
    assert transport.dials == 119
    assert report.heartbeats == 49_162
    assert len(beats) <= 2 + len(plan.crashes)
    assert [e.messages for e in report.epochs] == [22, 199, 109, 24]
    assert [e.bytes for e in report.epochs] == [1157, 12_044, 6640, 1299]
    assert report.renegotiation_messages == 354
    assert report.renegotiation_bytes == 21_140
    assert report.renegotiation_notices == 2 + 7 + 1 + 2
    assert (report.tasks_lost, report.result.completed) == (0, 1807)
    cold = [negotiate(platform, "tcp")
            for platform in epoch_platforms(tree, plan)]
    assert [r.messages for r in cold] == [238, 236, 234, 236]
    cold_octets = sum(r.telemetry.value("runtime.tcp.octets") for r in cold)
    assert cold_octets == 57_861
    emit(
        "E23: what a recovery costs, by counts (recovery workload)",
        render_table(
            ["epochs", "sockets dialled", "heartbeat rounds",
             "beats on the engine", "reneg messages (notices)",
             "reneg octets", "cold messages", "cold octets"],
            [[str(len(report.epochs)), str(transport.dials),
              str(report.heartbeats), str(len(beats)),
              f"{report.renegotiation_messages} "
              f"({report.renegotiation_notices})",
              str(report.renegotiation_bytes),
              str(sum(r.messages for r in cold)), str(cold_octets)]],
        ),
    )

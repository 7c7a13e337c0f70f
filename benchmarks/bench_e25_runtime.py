"""E25: the executed negotiation agrees with the simulated one — at cost.

Runs BW-First on the Figure 4 tree and on E8-style random trees through
all three negotiation paths:

* **simulated** — :func:`repro.protocol.runner.run_protocol`, one
  virtual-time event queue (the seed path);
* **inproc** — :class:`repro.runtime.Runtime` over in-process delivery:
  the same actors behind a real transport seam, no serialisation;
* **tcp** — the same fleet over loopback TCP sockets with the
  length-prefixed JSON codec.

The table reports wall-clock per negotiation and the TCP wire inflation
(real octets vs the 11-byte-per-message model).  The assertions encode
the E6 invariant across paths: identical throughput, identical visited
set, identical message/transaction tallies — Proposition 2 does not care
whether the messages are virtual.

The ratio gate holds the executed path to its nearest baseline: the same
actors exchange the same messages in both, so what an in-proc negotiation
costs beyond the simulated one is orchestration, and it is bounded as a
same-run ratio — never as an absolute wall time (ROADMAP 1b).  The TCP
gate bounds what the sockets add: a one-shot TCP negotiation of the same
tree against the in-proc one, its wire pinned by counts.  The session
gate does the same for edges that outlive a negotiation: inside a
:class:`~repro.runtime.Session` a TCP re-negotiation after a one-edge
change is bounded against the one-shot ``negotiate`` of the same tree in
the same run, and the sockets it dials are counted exactly.  The warm
gate does it for what the nodes remember: on two sessions holding the same
sockets, the one that remembers the last negotiation is bounded against
the one made to forget it, step by step, and what each exchanged is
counted exactly.
"""

import gc
import statistics
import time

from repro.core.bwfirst import bw_first
from repro.platform.examples import paper_figure4_tree
from repro.platform.generators import random_tree, smooth_tree
from repro.protocol import run_protocol
from repro.runtime import Session, TcpTransport, negotiate
from repro.telemetry import Registry
from repro.util.text import render_table

from tests.fraction_oracles import bw_first_fraction

from .conftest import emit

SIZES = (14, 50)

#: the ratio gate: the end-to-end benchmark's wire tree, best of 5 each
E25_RATIO_NODES = 500
E25_RATIO_SEED = 1
E25_RATIO_REPEATS = 5
#: in-proc negotiate / run_protocol.  One task and one queue per node sat
#: at ~1.8; one dispatcher sits at ~0.8 (no virtual-time event queue to
#: feed), so 1.3 trips on a per-message event-loop round trip coming back.
#: Both sides run the same actors, so moving their arithmetic to int pairs
#: left it at ~0.7–0.8
E25_OVER_SIMULATED = 1.3
#: in-proc negotiate / bw_first_fraction on the same tree: the distributed
#: procedure against the centralised one on ``Fraction``.  ~1.4–1.5 while
#: the actors ran Algorithm 1 on ``Fraction``; ~0.9–1.2 on int pairs, so
#: 1.25 trips when a ``Fraction`` per operation comes back into the actors,
#: the boot sort or the byte model.  The denominator is the oracle since
#: ``bw_first`` itself moved onto int pairs: the bar was set against the
#: ``Fraction`` walk
E25_INPROC_OVER_BW_FIRST = 1.25
#: one-shot TCP negotiate / in-proc negotiate on the same tree: listen,
#: pair, hello, exchange and hang up against the exchange alone.  13–17.6
#: (median ~15) while every socket was an asyncio server or connection;
#: 9–13.3 (median ~10) on raw sockets, so 15 by the margin rule — half
#: again the measured ratio — which trips on a per-edge event-loop round
#: trip or task coming back
E25_TCP_OVER_INPROC = 15.0

#: the session gate: the ``recovery`` workload's tree, one leaf pruned per
#: step.  A later negotiation inside a session / the one-shot negotiate of
#: the same tree: ~0.47 measured (nothing dialled, nothing hung up, no new
#: loop); 0.7 trips when a reconcile starts dialling edges it already has
E25_SESSION_NODES = 120
E25_SESSION_SEED = 1
E25_SESSION_STEPS = 6
E25_SESSION_REPEATS = 5
E25_SESSION_OVER_ONESHOT = 0.7

#: the warm gate, same tree, six spread-out leaves: a session that
#: remembers / one made to forget, both on kept sockets.  ~0.55 measured
#: (the steps exchange 22–181 of the cold 228–238 messages, ~105 in the
#: median; what is left is boot, the reconcile and the notices); 0.8 by the
#: margin rule of the gate above — half again the measured ratio — and
#: trips when clean subtrees are asked again
E25_WARM_OVER_COLD = 0.8


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_e25_cross_path_agreement():
    rows = []
    for label, tree in (
        ("Fig. 4", paper_figure4_tree()),
        *((f"random n={n}", random_tree(n, seed=n)) for n in SIZES),
    ):
        simulated, t_sim = timed(lambda t=tree: run_protocol(t))
        inproc, t_inproc = timed(lambda t=tree: negotiate(t))
        registry = Registry()
        tcp, t_tcp = timed(
            lambda t=tree: negotiate(t, transport="tcp", telemetry=registry)
        )

        for executed in (inproc, tcp):
            assert executed.throughput == simulated.throughput
            assert executed.throughput == bw_first(tree).throughput
            assert executed.visited == simulated.visited
            assert executed.messages == simulated.messages
            assert executed.transactions == simulated.transactions

        octets = registry.value("runtime.tcp.octets")
        rows.append([
            label,
            str(simulated.messages),
            f"{t_sim * 1e3:.2f}",
            f"{t_inproc * 1e3:.2f}",
            f"{t_tcp * 1e3:.2f}",
            f"{octets / simulated.bytes:.1f}x",
        ])
    emit(
        "E25: one negotiation, three substrates (ms wall-clock)",
        render_table(
            ["platform", "msgs", "simulated", "inproc", "tcp",
             "wire inflation"],
            rows,
        ),
    )


def test_e25_tcp_wire_of_the_ratio_tree_is_pinned():
    """The one-shot TCP negotiation of the wire tree, by counts: what the
    wire carries and how many sockets and listeners it takes.  How an edge
    is dialled and read may change; none of these may."""
    transport = TcpTransport()
    result = negotiate(smooth_tree(E25_RATIO_NODES, E25_RATIO_SEED),
                       transport, verify=False)
    assert result.messages == 1000
    assert result.telemetry.value("runtime.tcp.octets") == 62_523
    assert result.telemetry.value("runtime.tcp.dials") == 499
    assert transport.dials == 499 and len(transport.bound_ports) == 257
    assert not transport._ends and not transport._servers


def test_e25_inproc_over_simulated_ratio_gate():
    """An executed in-proc negotiation costs what its actors cost: at most
    ``E25_OVER_SIMULATED`` × the simulated run of the same tree in the same
    process (best of five each, alternated; neither side re-verifies
    against ``bw_first``, both are checked against it here)."""
    tree = smooth_tree(E25_RATIO_NODES, E25_RATIO_SEED)
    reference = bw_first(tree).throughput
    paths = {
        "simulated": lambda: run_protocol(tree, verify=False),
        "inproc": lambda: negotiate(tree, verify=False),
    }
    best = dict.fromkeys(paths, float("inf"))
    for _ in range(E25_RATIO_REPEATS):
        for path, run in paths.items():
            result, wall = timed(run)
            assert result.throughput == reference
            assert result.messages == 2 * E25_RATIO_NODES
            best[path] = min(best[path], wall)
    ratio = best["inproc"] / best["simulated"]
    emit(
        f"E25: executed over simulated, smooth_tree({E25_RATIO_NODES}, "
        f"{E25_RATIO_SEED}), best of {E25_RATIO_REPEATS}",
        render_table(
            ["simulated ms", "inproc ms", "ratio", "bar"],
            [[f"{best['simulated'] * 1e3:.2f}", f"{best['inproc'] * 1e3:.2f}",
              f"{ratio:.2f}", f"{E25_OVER_SIMULATED}"]],
        ),
    )
    assert ratio <= E25_OVER_SIMULATED, (
        f"an in-proc negotiation costs {ratio:.2f}x the simulated one "
        f"(bar {E25_OVER_SIMULATED}x)")


def test_e25_inproc_over_bw_first_ratio_gate():
    """The negotiation is as light as Section 5 says: an in-proc
    ``negotiate`` costs at most ``E25_INPROC_OVER_BW_FIRST`` ×
    ``bw_first_fraction`` — Algorithm 1 on ``Fraction``, the oracle kept in
    ``tests/fraction_oracles.py``, which the bar was set against — on the
    same tree in the same process (best of five each, alternated, the
    collector paused; the negotiation does not re-verify, every throughput
    is checked against the reference here).  Production ``bw_first``, on
    int pairs, is timed alongside and its ratio printed, not gated."""
    tree = smooth_tree(E25_RATIO_NODES, E25_RATIO_SEED)
    reference = bw_first(tree).throughput
    paths = {
        "bw_first_fraction": lambda: bw_first_fraction(tree),
        "bw_first": lambda: bw_first(tree),
        "inproc": lambda: negotiate(tree, verify=False),
    }
    best = dict.fromkeys(paths, float("inf"))
    gc.collect()
    gc.disable()
    try:
        for _ in range(E25_RATIO_REPEATS):
            for path, run in paths.items():
                result, wall = timed(run)
                assert result.throughput == reference
                best[path] = min(best[path], wall)
    finally:
        gc.enable()
    ratio = best["inproc"] / best["bw_first_fraction"]
    over_production = best["inproc"] / best["bw_first"]
    emit(
        f"E25: executed over centralised, smooth_tree({E25_RATIO_NODES}, "
        f"{E25_RATIO_SEED}), best of {E25_RATIO_REPEATS}",
        render_table(
            ["bw_first_fraction ms", "bw_first ms", "inproc ms", "ratio",
             "bar", "over bw_first"],
            [[f"{best['bw_first_fraction'] * 1e3:.2f}",
              f"{best['bw_first'] * 1e3:.2f}", f"{best['inproc'] * 1e3:.2f}",
              f"{ratio:.2f}", f"{E25_INPROC_OVER_BW_FIRST}",
              f"{over_production:.2f}"]],
        ),
    )
    assert ratio <= E25_INPROC_OVER_BW_FIRST, (
        f"an in-proc negotiation costs {ratio:.2f}x bw_first_fraction on the "
        f"same tree (bar {E25_INPROC_OVER_BW_FIRST}x)")


def test_e25_tcp_over_inproc_ratio_gate():
    """An edge costs its socket, not an event loop's machinery around it:
    a one-shot TCP ``negotiate`` of the wire tree — listen, dial, hello,
    exchange, hang up — costs at most ``E25_TCP_OVER_INPROC`` × the
    in-proc one in the same process (best of five each, alternated, the
    collector paused; both throughputs are checked here)."""
    tree = smooth_tree(E25_RATIO_NODES, E25_RATIO_SEED)
    reference = bw_first(tree).throughput
    paths = {
        "inproc": lambda: negotiate(tree, verify=False),
        "tcp": lambda: negotiate(tree, "tcp", verify=False),
    }
    best = dict.fromkeys(paths, float("inf"))
    gc.collect()
    gc.disable()
    try:
        for _ in range(E25_RATIO_REPEATS):
            for path, run in paths.items():
                result, wall = timed(run)
                assert result.throughput == reference
                assert result.messages == 2 * E25_RATIO_NODES
                best[path] = min(best[path], wall)
    finally:
        gc.enable()
    ratio = best["tcp"] / best["inproc"]
    emit(
        f"E25: one-shot TCP over in-proc, smooth_tree({E25_RATIO_NODES}, "
        f"{E25_RATIO_SEED}), best of {E25_RATIO_REPEATS}",
        render_table(
            ["inproc ms", "tcp ms", "ratio", "bar"],
            [[f"{best['inproc'] * 1e3:.2f}", f"{best['tcp'] * 1e3:.2f}",
              f"{ratio:.2f}", f"{E25_TCP_OVER_INPROC}"]],
        ),
    )
    assert ratio <= E25_TCP_OVER_INPROC, (
        f"a one-shot TCP negotiation costs {ratio:.2f}x the in-proc one "
        f"(bar {E25_TCP_OVER_INPROC}x)")


def test_e25_session_over_oneshot_ratio_gate():
    """Edges outlive a negotiation: after each of six one-leaf prunes the
    session's negotiation (reconcile + exchange) and a one-shot TCP
    ``negotiate`` of the same tree run back to back, best of five per step
    with the collector paused; the median step inside the session costs at
    most ``E25_SESSION_OVER_ONESHOT`` × the median one-shot.  Exact, per
    session: every edge dialled once by the first run, nothing after."""
    steps = range(E25_SESSION_STEPS)
    best = {"session": [float("inf")] * len(steps),
            "one-shot": [float("inf")] * len(steps)}
    for _ in range(E25_SESSION_REPEATS):
        tree = smooth_tree(E25_SESSION_NODES, E25_SESSION_SEED)
        leaves = tree.leaves()[:E25_SESSION_STEPS]
        gc.collect()
        gc.disable()
        try:
            with Session("tcp") as session:
                session.negotiate(tree, verify=False)
                for step, leaf in zip(steps, leaves):
                    tree.remove_subtree(leaf)
                    reference = bw_first(tree).throughput
                    runs = {
                        "session": lambda: session.negotiate(tree,
                                                             verify=False),
                        "one-shot": lambda: negotiate(tree, "tcp",
                                                      verify=False),
                    }
                    for side, run in runs.items():
                        result, wall = timed(run)
                        assert result.throughput == reference
                        best[side][step] = min(best[side][step], wall)
                assert session.transport.dials == E25_SESSION_NODES - 1
        finally:
            gc.enable()
    median = {side: statistics.median(walls) for side, walls in best.items()}
    ratio = median["session"] / median["one-shot"]
    emit(
        f"E25: re-negotiation inside a session over one-shot, TCP, "
        f"smooth_tree({E25_SESSION_NODES}, {E25_SESSION_SEED}) minus one "
        f"leaf per step, best of {E25_SESSION_REPEATS}",
        render_table(
            ["step", "session ms", "one-shot ms"],
            [[str(step + 1), f"{best['session'][step] * 1e3:.2f}",
              f"{best['one-shot'][step] * 1e3:.2f}"] for step in steps]
            + [["median", f"{median['session'] * 1e3:.2f}",
                f"{median['one-shot'] * 1e3:.2f}"],
               ["ratio", f"{ratio:.2f}", f"bar {E25_SESSION_OVER_ONESHOT}"]],
        ),
    )
    assert ratio <= E25_SESSION_OVER_ONESHOT, (
        f"a re-negotiation inside a session costs {ratio:.2f}x the one-shot "
        f"one (bar {E25_SESSION_OVER_ONESHOT}x)")


def test_e25_warm_over_cold_session_ratio_gate():
    """Nodes outlive a negotiation: two sessions over TCP negotiate the
    same tree after each of six one-leaf prunes, best of five per step with
    the collector paused; one remembers what its nodes answered, the other
    has its standing state emptied before every step (a test's privilege:
    there is no switch), so both reconcile the same sockets and boot the
    same actors.  The median warm step costs at most ``E25_WARM_OVER_COLD``
    × the median cold one.  Exact, per repeat: the cold side says two
    messages per edge, the warm side what the prune reached plus one
    notice per ancestor edge of the pruned leaf's parent."""
    steps = range(E25_SESSION_STEPS)
    best = {"warm": [float("inf")] * len(steps),
            "cold": [float("inf")] * len(steps)}
    counts = {}
    for _ in range(E25_SESSION_REPEATS):
        tree = smooth_tree(E25_SESSION_NODES, E25_SESSION_SEED)
        # spread over the bandwidth orders, as the recovery workload's
        # victims are: a leaf served early moves the β of everybody after
        # it, a leaf served last moves nobody's
        leaves = sorted(tree.leaves(), key=str)
        leaves = leaves[::len(leaves) // E25_SESSION_STEPS][:E25_SESSION_STEPS]
        gc.collect()
        gc.disable()
        try:
            with Session("tcp") as warm, Session("tcp") as cold:
                for session in (warm, cold):
                    session.negotiate(tree, verify=False)
                for step, leaf in zip(steps, leaves):
                    notices = tree.depth(leaf) - 1
                    tree.remove_subtree(leaf)
                    reference = bw_first(tree)
                    cold._standing.records.clear()
                    for side, session in (("cold", cold), ("warm", warm)):
                        result, wall = timed(lambda: session.negotiate(
                            tree.copy(), verify=False))
                        assert result.throughput == reference.throughput
                        assert result.visited == reference.visited
                        best[side][step] = min(best[side][step], wall)
                        counts[side, step] = result.messages
                    assert counts["cold", step] == reference.message_count
                    assert counts["warm", step] == 2 + 2 * len(
                        result.exchanged) + notices       # the warm result
                    assert len(result.notices) == notices
        finally:
            gc.enable()
    median = {side: statistics.median(walls) for side, walls in best.items()}
    ratio = median["warm"] / median["cold"]
    emit(
        f"E25: a session that remembers over one made to forget, TCP, "
        f"smooth_tree({E25_SESSION_NODES}, {E25_SESSION_SEED}) minus one "
        f"leaf per step, best of {E25_SESSION_REPEATS}",
        render_table(
            ["step", "warm ms", "warm msgs", "cold ms", "cold msgs"],
            [[str(step + 1), f"{best['warm'][step] * 1e3:.2f}",
              str(counts["warm", step]), f"{best['cold'][step] * 1e3:.2f}",
              str(counts["cold", step])] for step in steps]
            + [["median", f"{median['warm'] * 1e3:.2f}", "",
                f"{median['cold'] * 1e3:.2f}", ""],
               ["ratio", f"{ratio:.2f}", "", f"bar {E25_WARM_OVER_COLD}",
                ""]],
        ),
    )
    assert ratio <= E25_WARM_OVER_COLD, (
        f"a warm re-negotiation costs {ratio:.2f}x the same one made cold "
        f"(bar {E25_WARM_OVER_COLD}x)")

"""The workload protocol and the one run loop every workload goes through.

A run is: generate inputs from the seed (untimed), set up at least three
times (median → ``setup_s``; the last one is used), measure blocks until
``--seconds`` have passed, verify, tear down.  End-to-end numbers come
from explicit clock reads at operation boundaries, the same in traced and
untraced runs; spans are extra and exist only when tracing.
"""

from __future__ import annotations

import gc
import statistics
from typing import Dict

from . import metrics
from .harness import (MEASURE_SPAN, Tracer, clock, ledger, peak_rss_mb,
                      self_time, span_overhead_s, tail_percentile)

#: set-ups per run, whose median is ``setup_s``: at least MIN_SETUPS, and
#: cheap ones are repeated until they add up to SETUP_BUDGET_S seconds
#: (a 20 ms set-up measured three times is mostly host mood)
MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_BUDGET_S = 1.0


class Workload:
    """One set of inputs and the operations run on them.

    ``block`` is one repetition.  Around its end-to-end operations it
    opens ``tr.op()`` timers and hands them to :func:`record_op`: the
    headline operation's latency becomes an ``op_ms`` sample, the time the
    headline work took adds to ``busy_s``; the work units themselves go to
    the :attr:`work_count` count.  Everything else it records is
    per-layer.
    """

    name = ""
    #: leading blocks whose counts are mirrored into the exact tallies;
    #: a run never measures fewer blocks than this
    exact_blocks = 1
    #: the count ``work_per_s`` divides by ``busy_s``
    work_count = ""

    def inputs(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict, tr: Tracer) -> dict:
        raise NotImplementedError

    def block(self, state: dict, tr: Tracer, index: int) -> None:
        raise NotImplementedError

    def finish(self, state: dict, tr: Tracer) -> None:
        """End-of-run verification, outside the measured window."""

    def teardown(self, state: dict) -> None:
        """Stop whatever ``setup`` started; must be safe after ``finish``."""


def record_op(tr: Tracer, *timers, sample: bool = False,
              busy: bool = False, name: str = "") -> None:
    """File *timers*: their sum as one latency sample, each as time the
    headline work took, each under *name* for a per-layer ratio."""
    if sample:
        tr.latencies.append(timers)
    if busy:
        tr.busy.extend(timers)
    if name:
        tr.named[name].extend(timers)


def registry() -> Dict[str, Workload]:
    from .churn import Churn
    from .coldscale import ColdScale
    from .recovery import Recovery
    from .wire import Wire

    found = [Churn(), ColdScale(), Recovery(), Wire("tcp"), Wire("inproc")]
    return {w.name: w for w in found}


def _measure(workload: Workload, inputs: dict, tr: Tracer, seconds: float,
             smoke: bool):
    """Set-ups, blocks, end-of-run verification, tear-down."""
    setups = []
    state = None
    while True:
        with tr.op() as timer, tr.span("harness.setup"):
            state = workload.setup(inputs, tr)
        setups.append(timer)
        if smoke or len(setups) >= MAX_SETUPS or (
                len(setups) >= MIN_SETUPS
                and sum(t.raw_s for t in setups) >= SETUP_BUDGET_S):
            break
        workload.teardown(state)

    blocks = 0
    broken = False
    try:
        window = clock()
        with tr.span(MEASURE_SPAN):
            while True:
                tr.exact_open = blocks < workload.exact_blocks
                # every repetition starts from a collected heap: what the
                # one before left behind (a finished simulation is 100 MB
                # of cycles) otherwise makes its successors' collections
                # dearer by a quarter, and how many there are is luck
                with tr.span("harness.gc"):
                    gc.collect()
                try:
                    workload.block(state, tr, blocks)
                except Exception as exc:  # a failed operation, not a crash
                    tr.check(False, f"block {blocks} raised "
                                    f"{type(exc).__name__}: {exc}")
                    broken = True
                    break
                blocks += 1
                if (blocks >= workload.exact_blocks
                        and clock() - window >= seconds):
                    break
        tr.exact_open = False
        measured = clock() - window
        if not broken:
            with tr.span("harness.finish"):
                workload.finish(state, tr)
    finally:
        workload.teardown(state)
    return setups, blocks, measured


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """One full run in this interpreter; returns the result record."""
    tr = Tracer(trace)
    inputs = workload.inputs(seed, smoke)

    with tr.pulse():
        setups, blocks, measured = _measure(workload, inputs, tr, seconds,
                                            smoke)

    if not tr.latencies or not tr.busy:
        raise RuntimeError(f"{workload.name}: nothing was measured: "
                           + "; ".join(tr.failures))
    norm, raw = tr.norm_s, (lambda timer: timer.raw_s)
    work = tr.totals[workload.work_count]

    def family(read) -> dict:
        return {
            "setup_s": statistics.median(read(t) for t in setups),
            "op_p50_ms": 1e3 * statistics.median(
                sum(read(t) for t in group) for group in tr.latencies),
            "work_per_s": work / sum(read(t) for t in tr.busy),
        }

    end_to_end = dict(family(norm), peak_rss_mb=peak_rss_mb())
    ops = [1e3 * sum(norm(t) for t in group) for group in tr.latencies]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "smoke": smoke,
        "correct": tr.failed == 0,
        "attempted": tr.attempted,
        "failed": tr.failed,
        "failures": tr.failures,
        "blocks": blocks,
        "measured_wall_s": measured,
        "setups": len(setups),
        "op_ms": ops,
        "host_calib_s": statistics.median(tr.loop_times),
        "end_to_end": end_to_end,
        "raw": family(raw),
    }
    if trace:
        root = tr.root()
        rows = ledger(tr.spans(), root)
        record["ledger"] = rows
        record["per_layer"] = per_layer(tr, rows, record)
        record["exact"] = {name: record["per_layer"][name]
                           for name in metrics.EXACT}
    record["tracer"] = tr
    return record


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer(tr: Tracer, rows: list, record: dict) -> Dict[str, float]:
    """Every catalogue metric, from the spans and counts of a traced run.

    ``*_s`` and ``*.calls`` cover the whole run, set-ups and end-of-run
    checks included; *exact* counts cover the first
    :attr:`Workload.exact_blocks` blocks; ratios divide run totals.
    """
    out = {name: 0.0 for name in metrics.PER_LAYER_NAMES}
    spans = tr.span_totals()
    for span in metrics.TIMED_SPANS:
        out[f"{span}_s"], out[f"{span}.calls"] = spans.get(span, (0.0, 0))
    for name in metrics.EXACT:
        out[name] = tr.exact.get(name, 0)
    total = tr.totals
    for name in ("core.incremental.evictions", "runtime.retransmissions",
                 "faults.retransmissions", "taskplane.hops",
                 "taskplane.resends", "taskplane.duplicates",
                 "taskplane.lost", "federation.flushes",
                 "federation.cross_tenant_hits", "federation.template_clones",
                 "federation.respawns"):
        out[name] = total.get(name, 0)

    out["core.bw_first.us_per_eval"] = _ratio(
        out["core.bw_first_s"], total["core.bw_first.node_evals"], 1e6)
    evals = total["core.incremental.node_evals"]
    out["core.incremental.evals_per_batch"] = _ratio(
        evals, total["core.incremental.batches"])
    out["core.incremental.us_per_eval"] = _ratio(
        out["core.incremental.solve_s"], evals, 1e6)
    lookups = total["core.incremental.lookups"]
    out["core.incremental.hit_ratio"] = _ratio(
        lookups - total["core.incremental.misses"], lookups)
    spliced = total["schedule.fragments_spliced"]
    out["schedule.splice_ratio"] = _ratio(
        spliced, spliced + total["schedule.fragments_recomputed"])
    out["sim.us_per_event"] = _ratio(
        out["sim.run_s"], total["sim.events"], 1e6)
    out["protocol.us_per_message"] = _ratio(
        out["protocol.run_s"], total["protocol.messages"], 1e6)
    out["runtime.us_per_message"] = _ratio(
        out["runtime.negotiate_s"], total["runtime.messages"], 1e6)
    negotiate = [tr.norm_s(t) for t in tr.named["runtime.negotiate"]]
    simulated = [tr.norm_s(t) for t in tr.named["protocol.run"]]
    if negotiate and simulated:
        out["runtime.over_simulated_ratio"] = (
            statistics.median(negotiate) / statistics.median(simulated))
    out["faults.ms_per_epoch"] = _ratio(
        out["faults.resilient_run_s"], total["faults.epochs"], 1e3)
    out["taskplane.us_per_hop"] = _ratio(
        out["taskplane.run_s"], total["taskplane.hops"], 1e6)
    out["taskplane.peak_occupancy_over_bound"] = total.get(
        "taskplane.peak_occupancy_over_bound", 0.0)
    flush_s = out["federation.flush_s"]
    out["federation.coalesce_ratio"] = _ratio(
        total["federation.mutations"], total["federation.resolves"])
    out["federation.us_per_mutation"] = _ratio(
        flush_s, total["federation.mutations"], 1e6)
    hits = total["federation.memo_hits"]
    out["federation.memo_hit_ratio"] = _ratio(
        hits, hits + total["federation.memo_misses"])
    # same ops both sides: the agents apply and solve in the measured
    # window exactly what the flushes carried
    local = sum(row["wall_s"] for row in rows
                if row["name"] in ("core.incremental.mutate",
                                   "core.incremental.solve"))
    out["federation.flush_over_local_ratio"] = _ratio(flush_s, local)

    root = tr.root()
    children = [(s.start, s.end) for s in tr.spans()
                if s.parent_id == root.id]
    out["harness.self_s"] = self_time(root.start, root.end, children)
    out["harness.measured_wall_s"] = root.end - root.start
    out["harness.blocks"] = record["blocks"]
    ops = record["op_ms"]
    out["harness.op_samples"] = len(ops)
    tail = tail_percentile(ops)
    if tail is not None:
        out["harness.op_tail_pct"], out["harness.op_tail_ms"] = tail
    out["harness.trace_overhead_ratio"] = 1.0 + _ratio(
        sum(row["calls"] for row in rows) * span_overhead_s(),
        record["measured_wall_s"])
    out["harness.host_calib_s"] = record["host_calib_s"]
    return out

"""The metric and workload catalogue — the one list ``BENCHMARK.json``,
the printed tables, the README and ``--check-repeat`` are all checked
against (see ``test_harness.py``).

End-to-end metrics carry the same name on every workload because the
benchmark contract wants every end-to-end metric from every run; what the
name *means* on a workload (its alias, the name the issue gave it) is in
:data:`WORKLOADS`.  ``failed_share`` is not a metric here: it has to be 0,
and the contract forbids metrics that are 0 — every run prints
``attempted``/``failed`` instead and exits non-zero when ``failed`` is not 0.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: "time" (wall busy), "calls", "exact" (repeats bit for bit for a
    #: fixed seed), "count" (may race or depend on how many blocks fitted),
    #: "inexact" (races by design), "ratio"
    kind: str
    #: which end-to-end metric it should move, and where
    moves: str


class WorkloadInfo(NamedTuple):
    name: str
    why: str
    op_alias: str      # what op_p50_ms times on this workload
    work_alias: str    # what work_per_s counts on this workload
    work_unit: str


END_TO_END: List[EndToEnd] = [
    # median wall of the workload's set-up, done at least three times a run
    EndToEnd("setup_s", "s", "lower", 0.25),
    # median latency of the workload's headline operation
    EndToEnd("op_p50_ms", "ms", "lower", 0.25),
    # headline work units per second of operation time
    EndToEnd("work_per_s", "1/s", "higher", 0.25),
    # ru_maxrss of the run plus its largest child
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.25),
]

WORKLOADS: List[WorkloadInfo] = [
    WorkloadInfo(
        "churn",
        "hot caches and shared subtrees: the only workload where federation "
        "flushes, incremental solves, inproc negotiation and fragment "
        "splicing carry the time",
        "mutation_to_switch_p50_ms", "batches_per_s", "tenant-batches/s"),
    WorkloadInfo(
        "coldscale",
        "no cache can help: full bw_first, full schedule reconstruction and "
        "the array event kernel on a 10000-node tree; federation, runtime "
        "and taskplane idle",
        "cold_plan_ms", "sim_events_per_s", "events/s"),
    WorkloadInfo(
        "recovery",
        "structural mutations and sockets: heartbeat detection, prune/graft "
        "re-fingerprinting, TCP re-negotiation and in-place schedule switch "
        "inside one supervised run",
        "recovery_wall_ms", "epochs_per_s", "epochs/s"),
    WorkloadInfo(
        "wire-tcp",
        "the solver idles and the wire works: codec, framing, loopback "
        "sockets and the asyncio actor loop carry negotiation and task plane",
        "negotiate_p50_ms", "plane_tasks_per_s", "tasks/s"),
    WorkloadInfo(
        "wire-inproc",
        "the same runtime and taskplane code without sockets, so a gain for "
        "one transport that costs the other shows",
        "negotiate_p50_ms", "plane_tasks_per_s", "tasks/s"),
]

WORKLOAD_NAMES = [w.name for w in WORKLOADS]

#: span name → the per-layer metric stem its wall and calls are printed
#: under (``<stem>_s`` and ``<stem>.calls``)
TIMED_SPANS = [
    "platform.generate", "platform.copy",
    "core.bw_first", "core.allocation",
    "core.incremental.mutate", "core.incremental.solve",
    "schedule.tree_periods", "schedule.build_schedules",
    "schedule.incremental_build", "schedule.global_period",
    "sim.build", "sim.run", "sim.verify",
    "protocol.run",
    "runtime.negotiate",
    "faults.resilient_run",
    "taskplane.run",
    "federation.onboard", "federation.flush", "federation.result",
    "harness.check",
]

_MOVES = {
    "platform.generate": "setup_s@coldscale",
    "platform.copy": "setup_s@churn",
    "core.bw_first": "op_p50_ms@coldscale",
    "core.allocation": "op_p50_ms@coldscale, op_p50_ms@churn",
    "core.incremental.mutate": "op_p50_ms@churn; flat on coldscale",
    "core.incremental.solve": "op_p50_ms@churn; flat on coldscale",
    "schedule.tree_periods": "op_p50_ms@coldscale",
    "schedule.build_schedules": "op_p50_ms@coldscale",
    "schedule.incremental_build": "op_p50_ms@churn",
    "schedule.global_period": "op_p50_ms@churn",
    "sim.build": "work_per_s@coldscale (not in its timer: watch the ledger)",
    "sim.run": "work_per_s@coldscale; op_p50_ms@recovery",
    "sim.verify": "none: the sampled check on churn, outside its timers",
    "protocol.run": "none: nearest baseline for the runtime rows",
    "runtime.negotiate": "op_p50_ms@wire-*; op_p50_ms@churn (inproc only); "
                         "op_p50_ms@recovery (tcp only)",
    "faults.resilient_run": "op_p50_ms@recovery",
    "taskplane.run": "work_per_s@wire-*",
    "federation.onboard": "setup_s@churn",
    "federation.flush": "op_p50_ms and work_per_s@churn; absent elsewhere",
    "federation.result": "none: end-of-run verification on churn",
    "harness.check": "none: outside every end-to-end timer",
}


def _timed() -> List[Layer]:
    out = []
    for span in TIMED_SPANS:
        out.append(Layer(f"{span}_s", "s", "lower", "time", _MOVES[span]))
        out.append(Layer(f"{span}.calls", "count", "lower", "calls",
                         _MOVES[span]))
    return out


_CHURN = "op_p50_ms@churn"
_COLD = "op_p50_ms@coldscale"

PER_LAYER: List[Layer] = _timed() + [
    Layer("platform.nodes", "count", "lower", "exact", "none: input size"),
    Layer("core.bw_first.node_evals", "count", "lower", "exact", _COLD),
    Layer("core.bw_first.us_per_eval", "us", "lower", "ratio", _COLD),
    Layer("core.incremental.node_evals", "count", "lower", "exact", _CHURN),
    Layer("core.incremental.evals_per_batch", "count", "lower", "ratio",
          _CHURN),
    Layer("core.incremental.us_per_eval", "us", "lower", "ratio", _CHURN),
    Layer("core.incremental.hit_ratio", "ratio", "higher", "ratio", _CHURN),
    Layer("core.incremental.evictions", "count", "lower", "count", _CHURN),
    Layer("schedule.fragments_recomputed", "count", "lower", "exact", _CHURN),
    Layer("schedule.fragments_spliced", "count", "higher", "exact", _CHURN),
    Layer("schedule.splice_ratio", "ratio", "higher", "ratio", _CHURN),
    Layer("sim.events", "count", "lower", "exact", "work_per_s@coldscale"),
    Layer("sim.tasks_completed", "count", "higher", "exact",
          "work_per_s@coldscale"),
    Layer("sim.us_per_event", "us", "lower", "ratio", "work_per_s@coldscale"),
    Layer("protocol.messages", "count", "lower", "exact", "none: baseline"),
    Layer("protocol.us_per_message", "us", "lower", "ratio",
          "none: baseline"),
    Layer("runtime.messages", "count", "lower", "exact", "op_p50_ms@wire-*"),
    Layer("runtime.tcp_octets", "count", "lower", "exact",
          "op_p50_ms@wire-tcp"),
    Layer("runtime.us_per_message", "us", "lower", "ratio",
          "op_p50_ms@wire-*"),
    Layer("runtime.retransmissions", "count", "lower", "count",
          "op_p50_ms@wire-*"),
    Layer("runtime.over_simulated_ratio", "ratio", "lower", "ratio",
          "op_p50_ms@wire-* (the E25 gap)"),
    Layer("faults.epochs", "count", "lower", "exact", "op_p50_ms@recovery"),
    Layer("faults.heartbeats", "count", "lower", "exact",
          "op_p50_ms@recovery"),
    Layer("faults.reneg_messages", "count", "lower", "exact",
          "op_p50_ms@recovery"),
    Layer("faults.reneg_bytes", "count", "lower", "exact",
          "op_p50_ms@recovery"),
    Layer("faults.retransmissions", "count", "lower", "count",
          "op_p50_ms@recovery"),
    Layer("faults.tasks_lost", "count", "lower", "exact",
          "op_p50_ms@recovery"),
    Layer("faults.ms_per_epoch", "ms", "lower", "ratio",
          "op_p50_ms@recovery"),
    Layer("taskplane.tasks", "count", "higher", "exact", "work_per_s@wire-*"),
    Layer("taskplane.hops", "count", "lower", "inexact",
          "work_per_s@wire-* (per-worker shares race)"),
    Layer("taskplane.us_per_hop", "us", "lower", "ratio",
          "work_per_s@wire-*"),
    Layer("taskplane.resends", "count", "lower", "count",
          "work_per_s@wire-*"),
    Layer("taskplane.duplicates", "count", "lower", "count",
          "must be 0"),
    Layer("taskplane.lost", "count", "lower", "count", "must be 0"),
    Layer("taskplane.peak_occupancy_over_bound", "ratio", "lower", "ratio",
          "must be <= 1 (Prop. 3)"),
    Layer("federation.flushes", "count", "lower", "count", _CHURN),
    Layer("federation.mutations", "count", "lower", "exact", _CHURN),
    Layer("federation.resolves", "count", "lower", "exact", _CHURN),
    Layer("federation.coalesce_ratio", "ratio", "higher", "ratio", _CHURN),
    Layer("federation.us_per_mutation", "us", "lower", "ratio", _CHURN),
    Layer("federation.cross_tenant_hits", "count", "higher", "inexact",
          _CHURN),
    Layer("federation.memo_hit_ratio", "ratio", "higher", "inexact", _CHURN),
    Layer("federation.template_clones", "count", "higher", "count",
          "setup_s@churn"),
    Layer("federation.respawns", "count", "lower", "count", "must be 0"),
    Layer("federation.flush_over_local_ratio", "ratio", "lower", "ratio",
          "op_p50_ms@churn (E32: what the shards buy over local solvers)"),
    Layer("harness.self_s", "s", "lower", "time",
          "none: the benchmark's own residual"),
    Layer("harness.measured_wall_s", "s", "lower", "time",
          "none: the ledger's total"),
    Layer("harness.blocks", "count", "higher", "count",
          "none: repetitions that fitted --seconds"),
    Layer("harness.op_samples", "count", "higher", "count",
          "none: sample count behind op_p50_ms"),
    Layer("harness.op_tail_pct", "%", "higher", "count",
          "none: highest percentile with >= 10 samples beyond it (0: none)"),
    Layer("harness.op_tail_ms", "ms", "lower", "ratio",
          "op latency at that percentile (mutation_to_switch_p90_ms@churn)"),
    Layer("harness.trace_overhead_ratio", "ratio", "lower", "ratio",
          "none: 1 + spans x measured span cost / measured wall"),
    Layer("harness.host_calib_s", "s", "lower", "time",
          "none: fixed pure-Python loop; a slow host shows here"),
]

PER_LAYER_NAMES = [m.name for m in PER_LAYER]
EXACT = [m.name for m in PER_LAYER if m.kind == "exact"]
INEXACT = [m.name for m in PER_LAYER if m.kind == "inexact"]


def units() -> Dict[str, str]:
    out = {m.name: m.unit for m in END_TO_END}
    out.update({m.name: m.unit for m in PER_LAYER})
    return out


def benchmark_json(command: List[str], paths: List[str],
                   run_seconds: int) -> dict:
    """What ``BENCHMARK.json`` must hold for this catalogue."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER],
    }

"""Command line of the end-to-end benchmark.

Two shapes of invocation:

* ``--workload NAME --seed N [--seconds S] [--trace [0|1]]`` runs that one
  workload in this interpreter and ends its output with one JSON line
  (``correct``, ``attempted``, ``failed``, ``metrics``) — end-to-end
  metrics when untraced, per-layer metrics when traced.  This is what
  ``BENCHMARK.json`` names as the command.
* without ``--workload`` it runs the suite: every workload ``--runs``
  times untraced plus once traced, each run in a fresh interpreter,
  repetitions interleaved round-robin across workloads (back-to-back runs
  of one workload share a host mood; a fixed loop ranged 0.83–1.16 s over
  eight runs here).  ``--check-repeat`` runs two such sets in opposite
  workload order and fails unless they agree; ``--smoke`` shrinks every
  workload but keeps every check; ``--record`` appends the result to
  ``history.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from . import metrics
from .harness import (environment, layer_shares, quartile_spread, quartiles,
                      render_ledger, tail_percentile, worse_by)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
HISTORY = HERE / "history.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: seconds one smoke run measures; five of them must fit twenty seconds
SMOKE_SECONDS = 1.0

#: how long one child run may take before the suite gives up on it
CHILD_TIMEOUT = 180


def default_seconds() -> float:
    return float(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds one run measures (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1), help="record spans and print the ledger")
    p.add_argument("--smoke", action="store_true",
                   help="reduced scale, every check kept; numbers are "
                        "labelled smoke and never recorded")
    p.add_argument("--runs", type=int, default=3,
                   help="suite: untraced runs per workload")
    p.add_argument("--check-repeat", action="store_true",
                   help="suite: two sets, opposite order, must agree")
    p.add_argument("--record", action="store_true",
                   help="suite: append the result to history.json")
    p.add_argument("--result-file", type=Path, default=None,
                   help=argparse.SUPPRESS)
    return p


# ----------------------------------------------------------------------
# one run in this interpreter
# ----------------------------------------------------------------------
def _metric_json(values: Dict[str, float]) -> dict:
    units = metrics.units()
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def print_run(record: dict) -> None:
    info = next(w for w in metrics.WORKLOADS if w.name == record["workload"])
    label = "SMOKE " if record["smoke"] else ""
    mode = "traced" if record["traced"] else "untraced"
    print(f"== {label}{info.name} · seed {record['seed']} · "
          f"{record['seconds']:g} s · {mode} ==")
    e2e = record["end_to_end"]
    ops = record["op_ms"]
    tail = tail_percentile(ops)
    tail_text = "" if tail is None else \
        f"; p{tail[0]:g} = {tail[1]:.3f} ms"
    notes = {
        "setup_s": f"median of {record['setups']} set-ups",
        "op_p50_ms": f"{info.op_alias}, {len(ops)} samples{tail_text}",
        "work_per_s": f"{info.work_alias} ({info.work_unit})",
        "peak_rss_mb": "self + children",
    }
    raw = record["raw"]
    for m in metrics.END_TO_END:
        as_read = f" (raw {raw[m.name]:.4f})" if m.name in raw else ""
        print(f"  {m.name:<14}{e2e[m.name]:>14.4f} {m.unit:<5}"
              f"{notes[m.name]}{as_read}")
    print("  times are at nominal host speed (see README); raw is as the "
          "clock read them")
    print(f"  checks: {record['attempted']} attempted, {record['failed']} "
          f"failed · {record['blocks']} blocks in "
          f"{record['measured_wall_s']:.2f} s · host_calib_s "
          f"{record['host_calib_s']:.4f}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if not record["traced"]:
        return
    print()
    print(render_ledger(record["ledger"], record["measured_wall_s"]))
    shares = layer_shares(record["ledger"])
    print("  by layer: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in
        sorted(shares.items(), key=lambda kv: -kv[1])))
    print()
    for m in metrics.PER_LAYER:
        tag = m.kind if m.kind in ("exact", "inexact") else ""
        print(f"  {m.name:<40}{record['per_layer'][m.name]:>16.6g} "
              f"{m.unit:<6}{tag:<8} -> {m.moves}")


def write_trace(record: dict) -> None:
    """Chrome trace and JSONL of a traced run, through the program's own
    exporters (spans are seconds: one second renders as one second)."""
    from repro.telemetry.exporters import chrome_trace_json, write_jsonl

    OUT.mkdir(exist_ok=True)
    registry = record["tracer"].registry
    (OUT / f"{record['workload']}.trace.json").write_text(
        chrome_trace_json(registry, time_scale=1_000_000))
    write_jsonl(registry, OUT / f"{record['workload']}.spans.jsonl")


def keep_temp_files_in_checkout() -> None:
    """The federation's memo service puts its AF_UNIX socket in the
    process's temp directory.  Point that inside ``out/`` when the path
    leaves room for the socket name under the 108-byte ``sun_path`` limit;
    a deeper checkout keeps the system default."""
    scratch = OUT / "tmp"
    if len(str(scratch)) <= 70:
        scratch.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(scratch)


def single(args) -> int:
    from .workloads import registry, run

    keep_temp_files_in_checkout()
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else default_seconds()
    record = run(registry()[args.workload], args.seed, seconds,
                 bool(args.trace), smoke=args.smoke)
    print_run(record)
    if args.trace:
        write_trace(record)
    record.pop("tracer")
    if args.result_file is not None:
        args.result_file.parent.mkdir(parents=True, exist_ok=True)
        args.result_file.write_text(json.dumps(record))
    family = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": _metric_json(family),
    }))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# the suite: fresh interpreters, round-robin
# ----------------------------------------------------------------------
def _child(workload: str, args, trace: bool, tag: str) -> dict:
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"{workload}.{tag}.json"
    command = [sys.executable, str(HERE / "__main__.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--trace", "1" if trace else "0",
               "--result-file", str(result_file)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, timeout=CHILD_TIMEOUT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if not result_file.exists():
        raise RuntimeError(
            f"{workload} ({tag}) exited {done.returncode} without a "
            f"result:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(result_file.read_text())


def run_set(args, order: List[str], label: str) -> dict:
    """``--runs`` untraced rounds over *order*, then one traced round."""
    untraced: Dict[str, List[dict]] = {w: [] for w in order}
    traced: Dict[str, dict] = {}
    runs = 0 if args.smoke else args.runs
    for k in range(runs):
        for workload in order:
            print(f"[{label}] {workload}: untraced run {k + 1}/{runs}",
                  flush=True)
            untraced[workload].append(
                _child(workload, args, False, f"{label}.u{k}"))
    for workload in order:
        print(f"[{label}] {workload}: traced run", flush=True)
        traced[workload] = _child(workload, args, True, f"{label}.t")
    return {"untraced": untraced, "traced": traced}


def summarise(result: dict) -> Dict[str, dict]:
    """Per workload: each end-to-end metric's median, quartiles and raw
    values over the untraced runs (over the traced run when there are
    none, as in a smoke suite), plus the traced run's per-layer record."""
    out = {}
    for workload, traced in result["traced"].items():
        every = result["untraced"][workload] + [traced]
        runs = every[:-1] or [traced]
        e2e = {}
        for m in metrics.END_TO_END:
            values = [r["end_to_end"][m.name] for r in runs]
            q1, q2, q3 = quartiles(values)
            e2e[m.name] = {"median": q2, "q1": q1, "q3": q3,
                           "spread": quartile_spread(values),
                           "values": values}
        base = statistics.median(r["end_to_end"]["op_p50_ms"] for r in runs)
        out[workload] = {
            "end_to_end": e2e,
            "per_layer": traced["per_layer"],
            "exact": traced["exact"],
            "ledger": traced["ledger"],
            "layer_shares": layer_shares(traced["ledger"]),
            "measured_wall_s": traced["measured_wall_s"],
            "trace_overhead_measured":
                traced["end_to_end"]["op_p50_ms"] / base,
            "host_calib_s": statistics.median(
                r["host_calib_s"] for r in every),
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "failures": [f for r in every for f in r["failures"]],
        }
    return out


def print_summary(summary: Dict[str, dict], smoke: bool) -> None:
    label = "SMOKE — not comparable with recorded numbers" if smoke else ""
    for info in metrics.WORKLOADS:
        if info.name not in summary:
            continue
        s = summary[info.name]
        print(f"\n==== {info.name} {label}")
        print(f"  why: {info.why}")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}  unit")
        for m in metrics.END_TO_END:
            e = s["end_to_end"][m.name]
            alias = {"op_p50_ms": f" = {info.op_alias}",
                     "work_per_s": f" = {info.work_alias} "
                                   f"({info.work_unit})"}.get(m.name, "")
            print(f"  {m.name:<14}{e['median']:>14.4f}{e['q1']:>14.4f}"
                  f"{e['q3']:>14.4f}{e['spread']:>9.1%}  {m.unit}{alias}")
        print(f"  failed_share {s['failed']}/{s['attempted']} · "
              f"host_calib_s {s['host_calib_s']:.4f} · traced/untraced "
              f"op_p50 {s['trace_overhead_measured']:.3f} · span-cost "
              f"estimate {s['per_layer']['harness.trace_overhead_ratio']:.4f}")
        print()
        print(render_ledger(s["ledger"], s["measured_wall_s"]))
        print("  by layer: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(s["layer_shares"].items(), key=lambda kv: -kv[1])))
    if not smoke:   # the shares the design promises are full-scale shares
        print_separation(summary)


def separation(summary: Dict[str, dict]) -> List[tuple]:
    """The design claims the workloads exist to satisfy: (claim, holds)."""
    def share(workload, *layers, names=()):
        s = summary.get(workload)
        if s is None:
            return None
        total = sum(s["layer_shares"].get(layer, 0.0) for layer in layers)
        total += sum(row["share"] for row in s["ledger"]
                     if row["name"] in names)
        return total

    claims = []

    def claim(text, value, ok):
        if value is not None:
            claims.append((f"{text}: {value:.1%}", ok(value)))

    claim("sim.* >= 50 % of coldscale", share("coldscale", "sim"),
          lambda v: v >= 0.5)
    claim("sim.* <= 20 % of churn", share("churn", "sim"),
          lambda v: v <= 0.2)
    claim("federation.* + core.incremental.* + schedule.incremental_build "
          "+ runtime.* >= 60 % of churn",
          share("churn", "federation", "runtime",
                names=("core.incremental.mutate", "core.incremental.solve",
                       "schedule.incremental_build")),
          lambda v: v >= 0.6)
    for wire in ("wire-tcp", "wire-inproc"):
        claim(f"core.* <= 5 % of {wire}", share(wire, "core"),
              lambda v: v <= 0.05)
    for workload in summary:
        if workload != "churn":
            claim(f"federation.* is zero on {workload}",
                  share(workload, "federation"), lambda v: v == 0.0)
    return claims


def print_separation(summary: Dict[str, dict]) -> None:
    print("\n==== do the workloads separate the layers as designed?")
    for text, holds in separation(summary):
        print(f"  [{'ok' if holds else 'NO'}] {text}")


def compare_sets(first: Dict[str, dict], second: Dict[str, dict]) -> List[str]:
    """Disagreements between two sets of the same code, in words."""
    problems = []
    for workload, a in first.items():
        b = second[workload]
        for m in metrics.END_TO_END:
            x = a["end_to_end"][m.name]["median"]
            y = b["end_to_end"][m.name]["median"]
            apart = max(worse_by(x, y, m.better), worse_by(y, x, m.better))
            verdict = "ok" if apart <= m.bound else "APART"
            print(f"  {workload:<12}{m.name:<14}{x:>14.4f}{y:>14.4f}"
                  f"{apart:>8.1%} (bound {m.bound:.0%}) {verdict}")
            if apart > m.bound:
                problems.append(f"{m.name}@{workload}: {x:.4f} vs {y:.4f}, "
                                f"{apart:.1%} apart, bound {m.bound:.0%}")
        for name in metrics.EXACT:
            if a["exact"][name] != b["exact"][name]:
                problems.append(f"{name}@{workload} (exact): "
                                f"{a['exact'][name]} vs {b['exact'][name]}")
        for name in metrics.INEXACT:
            x, y = a["per_layer"][name], b["per_layer"][name]
            if x or y:   # a layer the workload never enters has no race
                print(f"  {workload:<12}{name:<40} inexact (races by "
                      f"design): {x:g} vs {y:g}")
    return problems


def append_history(args, summary: Dict[str, dict]) -> None:
    """``history.json`` is append-only; its last entry is the baseline."""
    history = json.loads(HISTORY.read_text()) if HISTORY.exists() else []
    entry = dict(environment(ROOT, args.seed),
                 seconds=args.seconds or default_seconds(), runs=args.runs)
    entry["workloads"] = {
        workload: {
            "end_to_end": {name: {k: e[k] for k in
                                  ("median", "q1", "q3", "values")}
                           for name, e in s["end_to_end"].items()},
            "exact": s["exact"],
            "layer_shares": s["layer_shares"],
            "ledger": s["ledger"],
            "per_layer": s["per_layer"],
            "host_calib_s": s["host_calib_s"],
        } for workload, s in summary.items()}
    history.append(entry)
    HISTORY.write_text(json.dumps(history, indent=1) + "\n")


def suite(args) -> int:
    if args.record and args.smoke:
        print("--record refuses smoke numbers", file=sys.stderr)
        return 2
    order = [args.workload] if args.workload else list(metrics.WORKLOAD_NAMES)
    env = environment(ROOT, args.seed)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    first = summarise(run_set(args, order, "set1"))
    print_summary(first, args.smoke)
    failed = sum(s["failed"] for s in first.values())
    problems: List[str] = []
    if args.check_repeat:
        second = summarise(run_set(args, order[::-1], "set2"))
        print_summary(second, args.smoke)
        failed += sum(s["failed"] for s in second.values())
        print("\n==== check-repeat: set 1 vs set 2")
        problems = compare_sets(first, second)
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(
        {"environment": env, "smoke": args.smoke, "workloads": first},
        indent=1))
    print(f"\nresults: {OUT / 'results.json'} (traces beside it)")
    if args.record:
        append_history(args, first)
        print(f"recorded: {HISTORY}")
    for s in first.values():
        for failure in s["failures"]:
            print(f"FAILED: {failure}")
    for problem in problems:
        print(f"DISAGREE: {problem}")
    if failed or problems:
        return 1
    print("all checks passed" + (", both sets agree" if args.check_repeat
                                 else ""))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parser().parse_args(argv)
    if args.workload is not None and not (args.check_repeat or args.record):
        return single(args)
    return suite(args)

"""Baseline loading and drift detection over the committed ``BENCH_*.json``
files.

One comparison engine serves two consumers:

* ``benchmarks/check_baseline.py`` (``make bench-check``) re-runs the
  recorders from :mod:`benchmarks.record_baseline` and gates CI on the
  result — ``node_evals`` must match **exactly** (it is the
  machine-independent cost metric; a change means behaviour changed, not
  the host).  The recorded ``wall_s`` is a trajectory, not a gate: an
  absolute wall clock compares hosts, so wall time is gated only as
  same-run ratios inside the benches (E25, E27, E31, E32);
* the dashboard's *BenchWatch* panel loads the same baselines and flags
  live-run drift against them while a run is streaming.

Records are matched by their ``params`` dict, so a reordered or extended
recorder degrades into explicit "unmatched" drift rows instead of silent
misalignment.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

#: Baselines the regression gate re-runs (e24/e29 are overhead probes with
#: their own assertion, not evals gates).
GATED_BENCHES = ("e8_protocol_scaling", "e25_runtime", "e26_incremental",
                 "e27_timeline", "e28_chaos", "e30_taskplane",
                 "e31_arraykernel", "e32_federation")


class Drift(NamedTuple):
    """One comparison row; ``ok`` is False when the gate should fail."""

    bench: str
    params: Dict[str, Any]
    metric: str            # "node_evals" | "matching"
    baseline: Optional[float]
    measured: Optional[float]
    ok: bool

    def describe(self) -> str:
        status = "ok  " if self.ok else "DRIFT"
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (f"{status} {self.bench} [{params}] {self.metric}: "
                f"{self.baseline} -> {self.measured}")


def baseline_path(root, bench: str) -> Path:
    return Path(root) / f"BENCH_{bench}.json"


def load_baseline(path) -> Dict[str, Any]:
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != 1:
        raise ValueError(f"{path}: unsupported baseline schema "
                         f"{payload.get('schema')!r}")
    return payload


def load_baselines(root, benches: Iterable[str] = GATED_BENCHES
                   ) -> Dict[str, Dict[str, Any]]:
    """Every committed baseline under *root* (missing files are skipped)."""
    out = {}
    for bench in benches:
        path = baseline_path(root, bench)
        if path.exists():
            out[bench] = load_baseline(path)
    return out


def _param_key(params: Dict[str, Any]) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in params.items()))


def compare_records(bench: str, baseline: List[Dict[str, Any]],
                    measured: List[Dict[str, Any]]) -> List[Drift]:
    """Drift rows for one bench: exact on ``node_evals``, plus an
    ``ok=False`` row per unmatched record."""
    drifts: List[Drift] = []
    measured_by_key = {_param_key(r["params"]): r for r in measured}
    for record in baseline:
        key = _param_key(record["params"])
        got = measured_by_key.pop(key, None)
        if got is None:
            drifts.append(Drift(bench, record["params"], "matching",
                                record["node_evals"], None, False))
            continue
        evals_ok = got["node_evals"] == record["node_evals"]
        drifts.append(Drift(bench, record["params"], "node_evals",
                            record["node_evals"], got["node_evals"],
                            evals_ok))
    for key, got in measured_by_key.items():
        drifts.append(Drift(bench, got["params"], "matching",
                            None, got["node_evals"], False))
    return drifts


def summarise(drifts: Iterable[Drift]) -> Dict[str, Any]:
    rows = list(drifts)
    bad = [d for d in rows if not d.ok]
    return {"checked": len(rows), "failed": len(bad),
            "ok": not bad, "drifts": [d.describe() for d in bad]}


class BenchWatch:
    """Dashboard-side view over the committed baselines.

    Exposes the baseline table for display and a live drift check: the
    dashboard's chaos/recovery workload reports its own epoch count and
    wall clock, which :meth:`check_live` holds against the e28 chaos
    baseline (the only recorded workload of the same shape).
    """

    def __init__(self, root, wall_tolerance: float = 1.3):
        self.root = Path(root)
        self.wall_tolerance = wall_tolerance
        self.baselines = load_baselines(root)

    def table(self) -> List[Dict[str, Any]]:
        rows = []
        for bench, payload in sorted(self.baselines.items()):
            for record in payload["records"]:
                rows.append({"bench": bench, "params": record["params"],
                             "wall_s": record["wall_s"],
                             "node_evals": record["node_evals"]})
        return rows

    #: mean platform size of the e28 chaos generator (5–8 nodes uniform) —
    #: used to normalise its per-epoch wall cost to a per-node figure
    E28_MEAN_NODES = 6.5

    def check_live(self, epochs: Optional[int] = None,
                   wall_s: Optional[float] = None,
                   nodes: Optional[int] = None) -> Dict[str, Any]:
        """Drift verdict for a live chaos/recovery run.

        Compares the live run's wall cost *per epoch per node* to the e28
        chaos baseline (its ``node_evals`` records the supervisor's epoch
        count over the sweep), since the dashboard workload runs a
        different platform size and sequence count than the recorded
        sweep.  Renegotiation cost is linear in platform size, so the
        per-node normalisation makes the two comparable.
        """
        chaos = self.baselines.get("e28_chaos")
        if not chaos or not epochs or wall_s is None:
            return {"status": "no-data"}
        record = chaos["records"][0]
        base = record["wall_s"] / max(record["node_evals"], 1) / self.E28_MEAN_NODES
        live = wall_s / epochs / max(nodes or 1, 1)
        ratio = live / base if base else None
        ok = ratio is None or ratio <= self.wall_tolerance
        return {"status": "ok" if ok else "drift",
                "baseline_wall_per_epoch": round(base, 9),
                "live_wall_per_epoch": round(live, 9),
                "ratio": None if ratio is None else round(ratio, 3),
                "tolerance": self.wall_tolerance, "epochs": epochs,
                "nodes": nodes}

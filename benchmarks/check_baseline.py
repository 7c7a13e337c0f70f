"""Bench regression gate: re-run the recorders, diff against BENCH_*.json.

Run from the repo root (or via ``make bench-check``)::

    PYTHONPATH=src:. python benchmarks/check_baseline.py [--only BENCH]

For every committed baseline in :data:`repro.telemetry.bench.GATED_BENCHES`
the matching recorder from :mod:`benchmarks.record_baseline` is re-run and
compared record-by-record (matched on the ``params`` dict): ``node_evals``
must match **exactly** — it counts BW-First node evaluations / recovery
epochs / completed events, all deterministic per seed, so any change means
the code changed behaviour, not the host.  The recorded ``wall_s`` is not
compared: an absolute wall clock measures the host, so wall time is gated
only as same-run ratios inside the benches (E25 executed ÷ simulated, E27,
E31, E32).

Exit status 0 when everything holds, 1 with a drift table otherwise.
"""

import argparse
import sys
from pathlib import Path

from repro.telemetry.bench import (
    GATED_BENCHES,
    compare_records,
    load_baselines,
    summarise,
)

from record_baseline import BENCHES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="directory holding BENCH_*.json "
                             "(default: repo root)")
    parser.add_argument("--only", choices=sorted(GATED_BENCHES),
                        help="check just one benchmark")
    args = parser.parse_args(argv)

    baselines = load_baselines(args.dir)
    if not baselines:
        print(f"no BENCH_*.json baselines under {args.dir}", file=sys.stderr)
        return 1

    drifts = []
    for bench, payload in sorted(baselines.items()):
        if args.only and bench != args.only:
            continue
        print(f"== {bench} ==")
        measured = BENCHES[bench]()
        drifts += compare_records(bench, payload["records"], measured)

    summary = summarise(drifts)
    print(f"\nchecked {summary['checked']} comparisons, "
          f"{summary['failed']} drifted")
    for line in summary["drifts"]:
        print(f"  {line}")
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

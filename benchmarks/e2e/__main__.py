"""Entry point: ``python -m benchmarks.e2e`` or ``python benchmarks/e2e``.

The package is not installed and neither is ``repro``, so put the
checkout's root (for ``benchmarks.e2e``) and its ``src`` (for ``repro``)
on the path before importing either.

String hashing is pinned: with a random ``PYTHONHASHSEED`` every process
lays its dicts and sets out differently, and ten runs of one workload with
one seed spread half again as wide (9.0 % against 5.7 % on ``wire-inproc``).
The variable has to be set before the interpreter starts, hence the
re-exec; children the program forks inherit it.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__" and "PYTHONHASHSEED" not in os.environ:
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                              *sys.argv[1:]])

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

try:
    import repro  # noqa: F401
except ImportError:
    sys.exit(f"benchmarks.e2e: the program under test (package 'repro') is "
             f"not importable from {_ROOT / 'src'}; run from a full checkout")

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

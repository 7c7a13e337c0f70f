"""One representation of a duration and one route to a re-solve — kept so.

The simulator's tick tables once had three storage modes (numpy int64,
``array('q')``, object ints) behind an environment switch, and the
re-negotiation entry points a second, from-scratch solver path beside the
incremental one.  Neither had a production reader.  These checks read
``src/`` and fail when either grows back.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def sources(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path, path.read_text(encoding="utf-8")


def lines_with(text: str, needle: str):
    return [number for number, line in enumerate(text.splitlines(), 1)
            if needle in line]


def test_the_simulator_has_one_duration_representation():
    for path, text in sources(SRC / "sim"):
        for needle in ("numpy", "REPRO_NO_NUMPY", "DurationTable",
                       "int64_fallbacks"):
            assert not lines_with(text, needle), (path, needle)


def test_no_entry_point_forks_on_a_missing_incremental_solver():
    for path, text in sources(SRC):
        assert not lines_with(text, "inc is None"), path

"""The federation's memo store lives in each shard and holds solutions —
kept that way.

The store used to be a process of its own behind an ``AF_UNIX``
``multiprocessing.connection.Listener``, reached by a client class in
every shard.  Once tenants were onboarded it answered nothing a shard's
own store would not, and it cost a process.  Inside the shard it then
still held every solution in a flat-int wire form: encoded on every
publish, decoded fail-closed on every fetch, behind a locked wrapper
class — for a publisher and a fetcher that share one thread.  These
checks read ``src/repro/`` and fail when the process, its socket, its
client, the wire form or the wrapper grows back.
"""

from __future__ import annotations

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FEDERATION = SRC / "federation"

GONE = ("multiprocessing.connection", "Listener", "AF_UNIX",
        "MemoService", "SharedMemoClient")

SERIALISED = ("sol_to_wire", "sol_from_wire", "wire_updates",
              "InlineMemoStore")


def sources(root: Path = FEDERATION):
    for path in sorted(root.rglob("*.py")):
        yield path, path.read_text(encoding="utf-8")


@pytest.mark.parametrize("needle", GONE)
def test_the_memo_process_stays_gone(needle):
    for path, text in sources():
        assert needle not in text, (path.name, needle)


@pytest.mark.parametrize("needle", SERIALISED)
def test_the_store_holds_solutions_not_a_wire_form(needle):
    for path, text in sources(SRC):
        assert needle not in text, (path.relative_to(SRC), needle)

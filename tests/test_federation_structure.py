"""The federation's memo store lives in each shard — kept that way.

The store used to be a process of its own behind an ``AF_UNIX``
``multiprocessing.connection.Listener``, reached by a client class in
every shard.  Once tenants were onboarded it answered nothing a shard's
own store would not, and it cost a process.  These checks read
``src/repro/federation/`` and fail when the process, its socket or its
client grows back.
"""

from __future__ import annotations

from pathlib import Path

import pytest

FEDERATION = (Path(__file__).resolve().parent.parent
              / "src" / "repro" / "federation")

GONE = ("multiprocessing.connection", "Listener", "AF_UNIX",
        "MemoService", "SharedMemoClient")


def sources():
    for path in sorted(FEDERATION.rglob("*.py")):
        yield path, path.read_text(encoding="utf-8")


@pytest.mark.parametrize("needle", GONE)
def test_the_memo_process_stays_gone(needle):
    for path, text in sources():
        assert needle not in text, (path.name, needle)

"""What a fault plan does to one frame, restated as an oracle.

Until PR 23 this arithmetic was ``LinkFaultDecider.full_verdict_at`` (every
stream drawn whatever its rate, the precedence left to each carrier) and
two ``plan.decision("task_…")`` blocks in ``taskplane/plane.py``.
Production now states it once, in ``LinkFaultDecider``, and skips a stream
whose rate is zero; this copy stays as what ``tests/test_fault_seam.py``
compares every verdict against, so "the addresses are unchanged" is a
test.  Do not optimise it.
"""

from __future__ import annotations

LOST, GARBLED = 0, -1


def fate_oracle(plan, streams, rates, address) -> int:
    """Three named streams, one address: each ``plan.decision(stream,
    *address)`` compared with its rate; drop beats corrupt beats duplicate."""
    drop, corrupt, duplicate = (
        plan.decision(stream, *address) < rate
        for stream, rate in zip(streams, rates)
    )
    return LOST if drop else GARBLED if corrupt else 2 if duplicate else 1

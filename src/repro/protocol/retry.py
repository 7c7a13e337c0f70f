"""Retry policy for at-least-once transactions over a lossy control plane.

A parent that proposed β to a child arms a timer; if the acknowledgment has
not arrived when it fires, the proposal is retransmitted verbatim (same β,
same transaction id) and the timer is re-armed with the timeout multiplied
by *backoff*.  After ``max_retries`` retransmissions the parent gives up
and closes the transaction as "child consumed nothing" — the fail-stop
suspicion of :meth:`~repro.protocol.actor.NodeActor.on_timeout`.

The base timeout of each edge is the hierarchical budget of
:func:`~repro.protocol.runner.run_protocol`: long enough for the child's
entire sub-negotiation on a loss-free plane.  Retransmissions are harmless
when the child is merely slow (duplicates are ignored by the idempotent
actor), and exponential backoff makes the cumulative patience
``(backoff^(max_retries+1) - 1)/(backoff - 1)`` budgets, so a live child
whose subtree itself suffers drops and retries is not given up for slowness.
It is given up when all ``max_retries + 1`` transmissions lose the
proposal or its acknowledgment: with a per-message drop probability *d*,
about ``(1 - (1 - d)²)^(max_retries + 1)`` per edge — ≈ 5.8·10⁻⁴ at
``d = 1/4`` with the default policy.  Measured on ``random_tree(8, 14981)``
re-negotiated without ``P3`` at ``d = 1/4``, 6 of 1000 fault seeds closed
a transaction against a live child this way.  The negotiated rate is then
wrong, and the throughput check fails closed with a
:class:`~repro.exceptions.ProtocolError` that counts the timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core.rates import as_fraction


@dataclass(frozen=True)
class RetryPolicy:
    """How a parent treats an unacknowledged proposal.

    ``max_retries`` bounds the retransmissions (0 = the original
    single-timeout fail-stop behaviour); ``backoff`` multiplies the timeout
    after every attempt; ``slack`` is the additive per-edge margin of the
    hierarchical timeout budget.
    """

    max_retries: int = 8
    backoff: Fraction = Fraction(2)
    slack: Fraction = Fraction(1)

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        object.__setattr__(self, "backoff", as_fraction(self.backoff))
        object.__setattr__(self, "slack", as_fraction(self.slack))
        if self.backoff < 1:
            raise ValueError("backoff must be >= 1")
        if self.slack <= 0:
            raise ValueError("slack must be positive")

    def timeout(self, base: Fraction, attempt: int) -> Fraction:
        """Timeout for the *attempt*-th transmission (0-based) of budget
        *base* — virtual time or wall seconds, the first one *base* itself."""
        return base * self.backoff ** attempt if attempt else base

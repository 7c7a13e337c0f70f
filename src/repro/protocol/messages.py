"""Message types of the distributed BW-First protocol.

A transaction is a two-phase exchange (Definition 1 of the paper): a
:class:`Proposal` carrying the single number β travels from parent to child,
and an :class:`Acknowledgment` carrying the single number θ travels back.
Both payloads are one rational number — the paper's argument for calling the
protocol *lightweight* — and :func:`wire_size` estimates their encoded size
so the benchmark can report protocol bytes, not just message counts.

For at-least-once delivery over a lossy control plane, both message types
carry an optional transaction id ``xid``.  A retransmitted proposal reuses
its original ``xid``, and the acknowledgment echoes the ``xid`` of the
proposal it answers, so receivers can recognise duplicates and senders can
match late acknowledgments to closed transactions.  ``xid=None`` marks a
message of the original fire-and-forget protocol; its wire size is
unchanged, while numbered messages pay one extra varint.

Both types also carry an optional distributed-trace id ``trace``: the
negotiation entry point (``run_protocol`` / the runtime) mints one id per
negotiation when telemetry is enabled, every actor stamps it onto the
messages it originates, and the TCP codec round-trips it, so spans
recorded by concurrent actors — even in separate processes — stitch into
one causally-ordered trace (``repro trace --stitch``).  The trace id is
an observability envelope, not protocol payload: :func:`wire_size`
deliberately excludes it, keeping the model byte counts identical whether
or not a run is being watched (real TCP octet counters do include it).

A third type carries no number at all.  Inside a
:class:`~repro.runtime.runtime.Session` a node remembers what it answered
last time; a node whose own data changed sends a :class:`Notice` up every
edge between it and the root before the negotiation starts — what the
remembered answers above it cost to give up.  A notice is a bare header on
the wire (:func:`wire_size` charges the 8 bytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Optional


@dataclass(frozen=True, slots=True)
class Proposal:
    """Phase one: parent offers ``beta`` tasks per time unit to child."""

    sender: Hashable
    receiver: Hashable
    beta: Fraction
    xid: Optional[int] = None
    trace: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Acknowledgment:
    """Phase two: child returns the ``theta`` tasks/unit it could not use."""

    sender: Hashable
    receiver: Hashable
    theta: Fraction
    xid: Optional[int] = None
    trace: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Notice:
    """Before phase one: ``sender``'s subtree changed since the last
    negotiation, so its parent ``receiver`` cannot answer from memory."""

    sender: Hashable
    receiver: Hashable


Message = object  # Proposal | Acknowledgment | Notice


def wire_size(message: Message) -> int:
    """Bytes to encode the message: 8-byte header + the rational payload.

    The payload is a numerator/denominator pair, each varint-encoded; we
    charge one byte per 7 bits of magnitude, with a 1-byte minimum per
    integer.  A transaction id, when present, is one more varint.  A
    :class:`Notice` is the header alone.
    """
    if isinstance(message, Notice):
        return 8
    value = message.beta if isinstance(message, Proposal) else message.theta
    # a denominator is ≥ 1; a zero numerator or xid still costs its byte
    size = (8 + ((value.numerator.bit_length() + 6) // 7 or 1)
            + (value.denominator.bit_length() + 6) // 7)
    if message.xid is not None:
        size += (message.xid.bit_length() + 6) // 7 or 1
    return size

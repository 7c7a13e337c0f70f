"""repro.runtime — the asyncio distributed runtime for BW-First.

Executes the paper's negotiation as genuinely concurrent peers instead of
a virtual-time simulation:

* :mod:`~repro.runtime.codec` — CRC32-checksummed, length-prefixed JSON
  wire frames carrying exact rationals, written by one framer
  (:func:`encode_any` over :func:`encode_blob`) and split out of arbitrary
  chunks by one reader (:class:`FrameSplitter`, then :func:`decode_body`);
  hostile bytes raise a typed :class:`~repro.exceptions.CodecError`
  instead of killing a reader;
* :mod:`~repro.runtime.transport` — the pluggable :class:`Transport` ABC
  with :class:`InProcTransport` (in-process delivery, optional seeded
  delay/loss) and :class:`TcpTransport` (one loopback socket per tree
  edge, listeners only where a child dials, a fail-closed handshake,
  frames decoded in ``data_received`` with no reader tasks, a ``start``
  that reconciles the connected edges with the tree it is given,
  flush-and-close shutdown);
* :mod:`~repro.runtime.runtime` — the :class:`Runtime` orchestrator:
  one dispatcher serving the actor fleet off one run-queue, wall-clock
  :class:`~repro.protocol.retry.RetryPolicy` timeouts, verification
  against :func:`~repro.core.bwfirst.bw_first`, the same telemetry schema
  as the simulated runner; and :class:`Session`, one transport and one
  event loop under a sequence of negotiations, so that a re-negotiation
  dials only the edges the platform gained.

Quick use::

    from repro.runtime import negotiate
    result = negotiate(tree, transport="tcp")
    assert result.throughput == bw_first(tree).throughput
"""

from ..exceptions import CodecError
from .codec import (
    FrameSplitter,
    decode_body,
    encode_any,
    encode_blob,
    encode_message,
)
from .runtime import (
    TRANSPORTS,
    Runtime,
    Session,
    negotiate,
    sequential_completion_time,
)
from .transport import InProcTransport, TcpTransport, Transport

__all__ = [
    "Runtime",
    "Session",
    "negotiate",
    "sequential_completion_time",
    "Transport",
    "InProcTransport",
    "TcpTransport",
    "TRANSPORTS",
    "encode_message",
    "encode_any",
    "encode_blob",
    "decode_body",
    "FrameSplitter",
    "CodecError",
]

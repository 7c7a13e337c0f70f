"""BW-First as a real distributed message-passing protocol (Section 5).

* :mod:`~repro.protocol.messages` — the Proposal/Acknowledgment wire types;
* :mod:`~repro.protocol.actor` — the per-node Algorithm-1 state machine;
* :mod:`~repro.protocol.network` — latency-modelled transport + counters;
* :mod:`~repro.protocol.runner` — end-to-end negotiation with verification
  against the centralised implementation; its :class:`Negotiation` is the
  bookkeeping the virtual-time runner and the asyncio runtime both drive.
"""

from .actor import NodeActor
from .messages import Acknowledgment, Proposal, wire_size
from .network import Network
from .planner import plan_proposal
from .retry import RetryPolicy
from .runner import VIRTUAL_PARENT, Negotiation, ProtocolResult, run_protocol

__all__ = [
    "NodeActor",
    "plan_proposal",
    "Proposal",
    "Acknowledgment",
    "wire_size",
    "Network",
    "RetryPolicy",
    "ProtocolResult",
    "Negotiation",
    "run_protocol",
    "VIRTUAL_PARENT",
]

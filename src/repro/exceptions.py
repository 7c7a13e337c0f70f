"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  The sub-classes separate the three broad
failure domains: malformed platform descriptions, infeasible or inconsistent
scheduling computations, and simulation-time violations of the single-port
full-overlap model.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class PlatformError(ReproError):
    """A platform (tree) description is malformed.

    Raised for duplicate node names, unknown parents, non-positive weights,
    edges that would create a cycle, and similar structural problems.
    """


class ScheduleError(ReproError):
    """A schedule computation is inconsistent.

    Raised when a conservation law is violated, when a period cannot be
    derived (e.g. irrational input sneaked in), or when a local schedule is
    asked to order quantities that do not match its bunch size.
    """


class SimulationError(ReproError):
    """The simulator detected an impossible state.

    This signals a bug in a scheduling policy (e.g. two concurrent sends from
    a single-port node) rather than a user input error.
    """


class TraceError(ReproError):
    """A trace lacks the stream an analysis reads (strict periodicity of a
    trace recorded without segments would otherwise read "from 0")."""


class ProtocolError(ReproError):
    """The distributed BW-First protocol received an out-of-order message.

    Carries optional diagnostic context so failures under fault injection
    are attributable: the *node* whose state machine complained, the virtual
    *time* the transport had reached, and the *pending* transaction (child,
    β, transaction id) the node was blocked on, if any.  The context is
    appended to the rendered message.
    """

    def __init__(self, message: str, *, node=None, time=None, pending=None):
        self.node = node
        self.time = time
        self.pending = pending
        context = []
        if node is not None:
            context.append(f"node={node!r}")
        if time is not None:
            context.append(f"t={time}")
        if pending is not None:
            context.append(f"pending={pending!r}")
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)


class CodecError(ProtocolError):
    """A wire frame failed validation before reaching any state machine.

    Raised by :mod:`repro.runtime.codec` for oversized length prefixes,
    checksum mismatches, non-UTF-8 payloads, malformed JSON, unknown frame
    types and unparsable rationals.  *recoverable* distinguishes a frame
    that was fully consumed (the stream's framing survived, the reader may
    skip it and continue) from one after which resynchronisation is
    impossible (an untrustworthy length prefix: the stream must be
    abandoned).  Either way the error is typed so a reader loop can contain
    hostile bytes instead of dying on a raw :class:`ValueError`.
    """

    def __init__(self, message: str, *, recoverable: bool = True, **context):
        super().__init__(message, **context)
        self.recoverable = recoverable


class TaskPlaneError(ReproError):
    """The task data plane violated one of its own invariants.

    Raised when payload execution breaks a structural guarantee: a buffer
    exceeding its credit-enforced capacity, a task routed to a node with
    no capacity for it, an unpicklable payload on a multi-process
    transport, or a drain that completes with unaccounted tasks.  These are
    bugs in the plane (or a misuse of its API), never recoverable wire
    noise — transfer corruption and loss are handled inline by resend and
    surface only in counters.
    """


class SolverError(ReproError):
    """A linear-programming solver failed or returned an infeasible status."""


class FaultError(ReproError):
    """A fault plan is malformed or inapplicable to the given platform.

    Raised for crashes of unknown nodes or of the root, probabilities
    outside ``[0, 1)``, degradation windows that never start, and similar
    problems — *before* any fault is injected, so a bad plan never produces
    a half-perturbed run.
    """

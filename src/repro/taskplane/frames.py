"""Payload frames of the task data plane.

Seven frame kinds ride the runtime's length|CRC32|body framing alongside
the control codec (registered via
:func:`repro.runtime.codec.register_frame_kind`), so negotiation and task
traffic interleave on one connection:

* ``task`` — :class:`TaskFrame`: one task payload travelling parent→child.
  Carries its *own* CRC32 over the raw payload bytes, computed once at the
  origin: the transport-level frame CRC protects each hop's octets, but a
  payload corrupted *before* encoding (the fault model of
  :class:`~repro.faults.plan.FaultPlan.task_corrupt`, staged exactly where
  a buggy buffer or DMA would strike) re-frames cleanly — only the
  end-to-end payload checksum can catch it at delivery;
* ``tack`` — :class:`DeliveryAck`: the child holds the task; the parent
  may release its retention copy;
* ``tnak`` — :class:`ResendRequest`: the payload checksum failed on
  delivery; the parent must resend from its retention buffer;
* ``tcr`` — :class:`CreditGrant`: a buffer slot freed downstream; the
  credit protocol of :mod:`repro.taskplane.buffers` makes overflow
  structurally impossible;
* ``tres`` — :class:`ResultReport`: a task finished computing at
  ``origin``; relayed hop-by-hop to the root, whose ledger timestamps it;
* ``tstop`` / ``tdone`` — :class:`Stop` / :class:`Stopped`: the drain
  cascade.  The root sends Stop only after exact accounting closed, so a
  child's Stop can never overtake work it still owes.

Payload bytes cross the JSON wire as base64 (deterministic and
binary-safe); everything else is the compact JSON the control codec
already speaks.  Each kind is declared once (:func:`_wire`: field → wire
key → validating reader → shape) and both directions are derived from that
declaration; the readers are the codec's, so every malformed field raises
a recoverable :class:`~repro.exceptions.CodecError` and hostile bytes die
in reader loops exactly like corrupt control frames.
"""

from __future__ import annotations

import base64
import binascii
import zlib
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from typing import Hashable

from ..exceptions import CodecError, ProtocolError
from ..runtime.codec import (encode_name, read_int, read_name,
                             register_frame_kind)

#: Allowed execution kinds of a task payload: opaque bytes (the default —
#: the plane just moves and "computes" them) or a pickled ``(fn, args)``
#: pair executed by the worker pool.
EXEC_KINDS = ("bytes", "call")

#: Every payload frame class, keyed by wire kind — filled by :func:`_wire`.
FRAME_KINDS = {}


def payload_crc(payload: bytes) -> int:
    """The end-to-end payload checksum carried inside every task frame."""
    return zlib.crc32(payload)


# ----------------------------------------------------------------------
# field readers (payload, key) -> value: the codec's, plus five of our own
# ----------------------------------------------------------------------
_read_count = partial(read_int, lo=0)
_read_grant = partial(read_int, lo=1)  # a grant frees at least one slot
_read_crc = partial(read_int, lo=0, hi=0xFFFFFFFF)


def _read_exec_kind(payload: dict, key: str) -> str:
    kind = payload.get(key)
    if kind not in EXEC_KINDS:
        raise CodecError(f"unknown task exec kind {kind!r}")
    return kind


def _read_bytes(payload: dict, key: str) -> bytes:
    raw = payload.get(key)
    if not isinstance(raw, str):
        raise CodecError(f"field {key!r} is no base64 string: {raw!r}")
    try:
        return base64.b64decode(raw.encode("ascii"), validate=True)
    except (binascii.Error, ValueError) as exc:
        raise CodecError(f"undecodable task payload {raw[:40]!r}") from exc


def _exact_int(value) -> int:
    if type(value) is not int:  # %d would write True as 1 and 1.5 as 1
        raise ProtocolError(f"integer field holds {value!r}")
    return value


#: The shape of a field in its kind's body template: the placeholder, and
#: what turns the field's value into what the placeholder formats.
_NAME = (b"%s", encode_name)                   # a JSON scalar (names, kind)
_INT = (b"%d", _exact_int)
_BYTES = (b'"%s"', partial(binascii.b2a_base64, newline=False))


def _wire(kind: str, /, **wire):
    """Class decorator — the one declaration of a payload frame kind:
    ``field=(wire key, reader, shape)`` for every dataclass field, in
    order.  Derives ``to_body()`` (what
    :func:`~repro.runtime.codec.encode_any` frames, once per TCP send) and
    the decoder registered for *kind*; every field is required on the wire.
    Both are assembled here, once per kind: the body is one ``bytes``
    template ``%`` the field values, byte for byte what the codec's JSON
    encoder would write for the frame's dict; the way in is one reader
    call per field.
    """
    template = b"{%s}" % b",".join([b'"t":' + encode_name(kind)] + [
        encode_name(key) + b":" + shape[0] for key, _, shape in wire.values()])
    values = attrgetter(*wire)
    readers = tuple(spec[:2] for spec in wire.values())
    writers = tuple(shape[1] for _, _, shape in wire.values())

    def declare(cls):
        if tuple(wire) != tuple(f.name for f in fields(cls)):
            raise TypeError(f"{cls.__name__}: wire declaration {tuple(wire)} "
                            "does not match the dataclass fields")

        def to_body(self) -> bytes:
            return template % tuple([write(value) for write, value
                                     in zip(writers, values(self))])

        def decode(payload: dict):
            return cls(*[read(payload, key) for key, read in readers])

        cls.to_body = to_body
        FRAME_KINDS[kind] = cls
        register_frame_kind(kind, decode)
        return cls

    return declare


_EDGE = {"sender": ("s", read_name, _NAME),
         "receiver": ("r", read_name, _NAME)}
_TASK_ID = ("id", _read_count, _INT)


@_wire("task", **_EDGE, task_id=_TASK_ID, payload=("p", _read_bytes, _BYTES),
       crc=("c", _read_crc, _INT), kind=("k", _read_exec_kind, _NAME))
@dataclass(frozen=True, slots=True)
class TaskFrame:
    """One task payload in flight on a tree edge (parent → child)."""

    sender: Hashable
    receiver: Hashable
    task_id: int
    payload: bytes
    crc: int
    kind: str = "bytes"

    @property
    def intact(self) -> bool:
        """Does the payload still match its origin checksum?"""
        return payload_crc(self.payload) == self.crc


def make_task(sender, receiver, task_id: int, payload: bytes,
              kind: str = "bytes") -> TaskFrame:
    """A fresh task frame with its end-to-end checksum computed."""
    return TaskFrame(sender=sender, receiver=receiver, task_id=task_id,
                     payload=payload, crc=payload_crc(payload), kind=kind)


@_wire("tack", **_EDGE, task_id=_TASK_ID)
@dataclass(frozen=True, slots=True)
class DeliveryAck:
    """Child → parent: task held; drop your retention copy."""

    sender: Hashable
    receiver: Hashable
    task_id: int


@_wire("tnak", **_EDGE, task_id=_TASK_ID)
@dataclass(frozen=True, slots=True)
class ResendRequest:
    """Child → parent: payload checksum failed; resend from retention."""

    sender: Hashable
    receiver: Hashable
    task_id: int


@_wire("tcr", **_EDGE, amount=("n", _read_grant, _INT))
@dataclass(frozen=True, slots=True)
class CreditGrant:
    """Child → parent: *amount* buffer slots freed; you may send again."""

    sender: Hashable
    receiver: Hashable
    amount: int = 1


@_wire("tres", **_EDGE, task_id=_TASK_ID, origin=("o", read_name, _NAME))
@dataclass(frozen=True, slots=True)
class ResultReport:
    """Hop-by-hop relay of a completed task toward the root's ledger."""

    sender: Hashable
    receiver: Hashable
    task_id: int
    origin: Hashable


@_wire("tstop", **_EDGE)
@dataclass(frozen=True, slots=True)
class Stop:
    """Parent → child: accounting closed; drain your subtree and exit."""

    sender: Hashable
    receiver: Hashable


@_wire("tdone", **_EDGE, completed=("n", _read_count, _INT))
@dataclass(frozen=True, slots=True)
class Stopped:
    """Child → parent: my whole subtree has drained and exited."""

    sender: Hashable
    receiver: Hashable
    completed: int = 0

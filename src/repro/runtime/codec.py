"""Wire codec of the distributed runtime: checksummed JSON frames.

A frame is an 8-byte header — a 4-byte big-endian body length followed by
the 4-byte CRC32 of the body — and then a compact JSON object:

.. code-block:: text

    {"t": "prop", "s": "P0", "r": "P1", "v": "5/3", "x": 2}
    {"t": "ack",  "s": "P1", "r": "P0", "v": "1/3", "x": 2}

* ``t`` — message type, ``"prop"`` (:class:`~repro.protocol.messages.Proposal`)
  or ``"ack"`` (:class:`~repro.protocol.messages.Acknowledgment`);
* ``s`` / ``r`` — sender / receiver node names.  TCP transport requires
  names JSON can round-trip losslessly (strings, ints, bools, None) — the
  in-proc transport has no such restriction because it never serialises;
* ``v`` — the payload rational (β of a proposal, θ of an acknowledgment)
  as an exact ``"numerator/denominator"`` string, so no precision is lost
  on the wire (the paper's protocol is exact arithmetic end to end);
* ``x`` — the transaction id, omitted when ``xid`` is ``None``;
* ``i`` — the distributed-trace id, omitted when ``trace`` is ``None``
  (only telemetry-enabled negotiations mint one).  Carrying it inside the
  checksummed body means trace correlation survives exactly the frames
  that survive the CRC32 check — a corrupted frame can no more forge a
  trace id than a payload.

The 4-byte prefix bounds frames at 4 GiB; real frames are tens of bytes —
the paper's "one rational number per message" lightweightness claim
survives serialisation.

Hostile input is contained by construction: every validation failure — an
oversized length prefix, a checksum mismatch, a non-UTF-8 body, malformed
JSON, an unknown type, a rational that does not parse — raises a typed
:class:`~repro.exceptions.CodecError` instead of whatever exception the
stdlib felt like, so a reader loop can count and skip a bad frame without
dying.  ``CodecError.recoverable`` says whether the framing survived (the
bad frame was fully consumed) or the stream must be abandoned (the length
prefix itself cannot be trusted).  Errors that mean the stream is simply
gone (EOF mid-frame) stay plain :class:`~repro.exceptions.ProtocolError`.

Two readers share these failure modes: the :func:`read_blob` coroutines on
an :class:`asyncio.StreamReader`, and the synchronous
:class:`FrameSplitter` for callers handed bytes in arbitrary chunks (the
TCP transport's ``data_received``) or whole frames (the federation pipes).
"""

from __future__ import annotations

import asyncio
import json
import re
import struct
import zlib
from fractions import Fraction
from typing import Callable, Dict, Optional

from ..exceptions import CodecError, ProtocolError
from ..protocol.messages import Acknowledgment, Message, Proposal

#: Control frame kinds owned by this module.  Extension kinds (the task
#: plane's payload frames) register their decoders in
#: :data:`_EXTENSION_DECODERS` via :func:`register_frame_kind` and share
#: the same length|CRC32|body framing, so control and payload traffic can
#: interleave on one connection.
CONTROL_KINDS = ("prop", "ack")

_EXTENSION_DECODERS: Dict[str, Callable[[dict], object]] = {}


def register_frame_kind(kind: str, decoder: Callable[[dict], object]) -> None:
    """Register *decoder* for extension frames of wire type *kind*.

    The decoder receives the parsed JSON body (a dict whose ``"t"`` equals
    *kind*) and must either return the decoded frame object or raise a
    recoverable :class:`~repro.exceptions.CodecError` — never anything
    else, so hostile bytes stay contained in the reader loops exactly as
    for control frames.  Registering a control kind is a programming
    error and raises :class:`~repro.exceptions.ProtocolError`.
    """
    if kind in CONTROL_KINDS:
        raise ProtocolError(f"{kind!r} is a reserved control frame kind")
    _EXTENSION_DECODERS[kind] = decoder

#: struct format of the frame length prefix (4-byte big-endian unsigned).
LENGTH_PREFIX = struct.Struct(">I")

#: struct format of the full frame header: body length + CRC32 of the body.
FRAME_HEADER = struct.Struct(">II")

#: Upper bound on an accepted frame body, in bytes.
MAX_FRAME = 1 << 20

#: The exact shape of a wire rational: optional sign, digits, optional
#: ``/digits``.  ``Fraction()`` itself accepts much more (floats in
#: scientific notation, decimals); the wire format does not.
_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def _check_name(name) -> None:
    if not isinstance(name, (str, int, bool, type(None))):
        raise ProtocolError(
            f"node name {name!r} does not survive JSON; use str/int names "
            "with the TCP transport"
        )


def encode_message(message: Message) -> bytes:
    """Serialise one Proposal/Acknowledgment to a JSON frame body."""
    if isinstance(message, Proposal):
        kind, value = "prop", message.beta
    elif isinstance(message, Acknowledgment):
        kind, value = "ack", message.theta
    else:
        raise ProtocolError(f"cannot encode {message!r}")
    _check_name(message.sender)
    _check_name(message.receiver)
    payload = {
        "t": kind,
        "s": message.sender,
        "r": message.receiver,
        "v": str(Fraction(value)),
    }
    if message.xid is not None:
        payload["x"] = message.xid
    if message.trace is not None:
        payload["i"] = message.trace
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def parse_rational(text) -> Fraction:
    """Parse a wire rational (``"n"`` or ``"n/d"``), hardened.

    The public face of the codec's rational validation — the federation
    service parses request payloads with it so a hostile or corrupted
    field raises a recoverable :class:`~repro.exceptions.CodecError`
    exactly like a malformed control frame would.
    """
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise CodecError(f"malformed wire rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CodecError(f"malformed wire rational {text!r}") from exc


_parse_rational = parse_rational


def _parse_payload(body: bytes) -> dict:
    """Parse a frame body into its JSON object, hardened against hostile
    bytes: every malformation raises a recoverable
    :class:`~repro.exceptions.CodecError`."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"non-UTF-8 frame body {body[:80]!r}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CodecError(f"undecodable frame {body[:80]!r}") from exc
    if not isinstance(payload, dict):
        raise CodecError(f"frame body is not an object: {body[:80]!r}")
    return payload


def _decode_control(payload: dict, body: bytes) -> Message:
    try:
        kind = payload["t"]
        sender, receiver = payload["s"], payload["r"]
    except KeyError as exc:
        raise CodecError(f"frame missing field {exc}: {body[:80]!r}") from exc
    for name in (sender, receiver):
        if not isinstance(name, (str, int, bool, type(None))):
            raise CodecError(f"bad node name {name!r} in frame")
    value = _parse_rational(payload.get("v"))
    xid = payload.get("x")
    if xid is not None and not isinstance(xid, int):
        raise CodecError(f"non-integer transaction id {xid!r} in frame")
    trace = payload.get("i")
    if trace is not None and not isinstance(trace, str):
        raise CodecError(f"non-string trace id {trace!r} in frame")
    if kind == "prop":
        return Proposal(sender=sender, receiver=receiver, beta=value, xid=xid,
                        trace=trace)
    return Acknowledgment(sender=sender, receiver=receiver, theta=value,
                          xid=xid, trace=trace)


def decode_body(body: bytes) -> object:
    """Decode one frame body: a control :class:`Message` or any registered
    extension frame (see :func:`register_frame_kind`).

    Every malformation raises :class:`~repro.exceptions.CodecError` (always
    recoverable here: by the time a body exists the framing held).
    """
    payload = _parse_payload(body)
    try:
        kind = payload["t"]
    except KeyError as exc:
        raise CodecError(f"frame missing field {exc}: {body[:80]!r}") from exc
    if kind in CONTROL_KINDS:
        return _decode_control(payload, body)
    decoder = _EXTENSION_DECODERS.get(kind) if isinstance(kind, str) else None
    if decoder is None:
        raise CodecError(f"unknown frame type {kind!r}")
    return decoder(payload)


def decode_message(body: bytes) -> Message:
    """Inverse of :func:`encode_message`, hardened against hostile bytes.

    Accepts control frames only; an extension frame arriving where a
    control frame is required is as malformed as an unknown kind.
    """
    decoded = decode_body(body)
    if not isinstance(decoded, (Proposal, Acknowledgment)):
        raise CodecError(f"expected a control frame, got {type(decoded).__name__}")
    return decoded


def encode_blob(body: bytes) -> bytes:
    """Frame an arbitrary body: length + CRC32 header, then the body.

    The framing shared by protocol messages and the transport's hello
    handshake, so a corrupted handshake is detected exactly like a
    corrupted negotiation frame.
    """
    return FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def encode_frame(message: Message) -> bytes:
    """The full wire frame: length + CRC32 header + JSON body."""
    return encode_blob(encode_message(message))


def encode_any(obj) -> bytes:
    """Frame any wire object: a control :class:`Message` or an extension
    frame exposing ``to_payload()`` (a JSON-ready dict whose ``"t"`` names
    a registered kind).  Control and payload frames share the same
    length|CRC32 framing, so they interleave freely on one socket.
    """
    if isinstance(obj, (Proposal, Acknowledgment)):
        return encode_frame(obj)
    to_payload = getattr(obj, "to_payload", None)
    if to_payload is None:
        raise ProtocolError(f"cannot encode {obj!r}")
    body = json.dumps(to_payload(), separators=(",", ":")).encode("utf-8")
    return encode_blob(body)


class FrameSplitter:
    """Synchronous inverse of :func:`encode_blob` over a byte stream that
    arrives in arbitrary chunks — the one place that validates a frame's
    header, size bound and CRC32 for callers without a ``StreamReader``
    (the TCP transport's ``data_received``, the federation's whole-frame
    pipes).

    :meth:`feed` buffers a chunk; :meth:`next_body` takes the next frame
    out of the buffer and fails exactly as :func:`read_blob` does:

    * ``None`` — no whole frame is buffered yet.  At end of stream,
      :attr:`pending` ``== 0`` is :func:`read_blob`'s clean EOF and
      anything else its "connection closed mid-frame";
    * an oversized length prefix raises a **non-recoverable**
      :class:`~repro.exceptions.CodecError` as soon as the header is in,
      and again on every later call — the stream cannot be resynchronised;
    * a checksum mismatch raises a **recoverable** ``CodecError`` with the
      bad frame already consumed, so the next call yields the next frame.
    """

    __slots__ = ("max_frame", "_buffer", "_start")

    def __init__(self, max_frame: int = MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._start = 0  # consumed prefix, dropped on the next feed

    def feed(self, data: bytes) -> None:
        if self._start:
            del self._buffer[:self._start]
            self._start = 0
        self._buffer += data

    @property
    def pending(self) -> int:
        """Buffered octets not yet returned as (or rejected with) a frame."""
        return len(self._buffer) - self._start

    def next_body(self) -> Optional[bytes]:
        buffer = self._buffer
        body_at = self._start + FRAME_HEADER.size
        if len(buffer) < body_at:
            return None
        length, crc = FRAME_HEADER.unpack_from(buffer, self._start)
        if length > self.max_frame:
            raise CodecError(
                f"frame of {length} bytes exceeds {self.max_frame}",
                recoverable=False,
            )
        end = body_at + length
        if len(buffer) < end:
            return None
        body = bytes(buffer[body_at:end])
        self._start = end
        if zlib.crc32(body) != crc:
            raise CodecError(f"checksum mismatch on frame {body[:80]!r}")
        return body


async def read_blob(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one checksummed body from *reader*; ``None`` on clean EOF.

    * a connection closed mid-header or mid-body raises
      :class:`~repro.exceptions.ProtocolError` — the stream is gone;
    * an oversized length prefix raises a **non-recoverable**
      :class:`~repro.exceptions.CodecError` — the prefix cannot be trusted,
      so there is no way to resynchronise;
    * a checksum mismatch raises a **recoverable** ``CodecError`` — the
      frame was fully consumed, the reader may continue with the next one.
    """
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-prefix") from exc
    length, crc = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME:
        raise CodecError(
            f"frame of {length} bytes exceeds {MAX_FRAME}", recoverable=False
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    if zlib.crc32(body) != crc:
        raise CodecError(
            f"checksum mismatch on frame {body[:80]!r}"
        )
    return body


async def read_frame(reader: asyncio.StreamReader) -> Optional[Message]:
    """Read one protocol frame from *reader*; ``None`` on clean EOF.

    Composes :func:`read_blob` (framing + integrity) with
    :func:`decode_message` (payload validation); see both for the failure
    modes.  A recoverable :class:`~repro.exceptions.CodecError` leaves the
    stream positioned at the next frame.
    """
    body = await read_blob(reader)
    if body is None:
        return None
    return decode_message(body)


async def read_any(reader: asyncio.StreamReader) -> Optional[object]:
    """Read one frame of *any* registered kind; ``None`` on clean EOF.

    The payload-frame sibling of :func:`read_frame`: same framing and
    failure modes, but the decoded object may be a control
    :class:`Message` or any extension frame (see
    :func:`register_frame_kind`).
    """
    body = await read_blob(reader)
    if body is None:
        return None
    return decode_body(body)

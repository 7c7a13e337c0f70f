"""Wire codec of the distributed runtime: checksummed JSON frames.

A frame is an 8-byte header — a 4-byte big-endian body length followed by
the 4-byte CRC32 of the body — and then a compact JSON object:

.. code-block:: text

    {"t": "prop", "s": "P0", "r": "P1", "v": "5/3", "x": 2}
    {"t": "ack",  "s": "P1", "r": "P0", "v": "1/3", "x": 2}
    {"t": "note", "s": "P1", "r": "P0"}

* ``t`` — message type, ``"prop"`` (:class:`~repro.protocol.messages.Proposal`),
  ``"ack"`` (:class:`~repro.protocol.messages.Acknowledgment`) or ``"note"``
  (:class:`~repro.protocol.messages.Notice`, which has ``s`` and ``r`` only);
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

One reader has these failure modes: :class:`FrameSplitter`, fed bytes in
whatever chunks they arrive (a socket's ``data_received`` in the TCP
transport, ``reader.read()`` in the task-plane cluster) or whole frames
(the federation pipes).  It is the only place in ``src/`` that unpacks a
frame header, applies the size bound or checks the frame CRC32, and
:func:`encode_blob` is the only place that writes one — refusing, at the
sender, a body its reader would refuse.  Bodies are parsed by one function
(:func:`parse_body`), fields by one reader each (:func:`read_name`,
:func:`read_int`, :func:`parse_rational`), kinds looked up in one table
(:func:`register_frame_kind`), and every listener is greeted by the same
first frame (:func:`encode_hello` / :func:`decode_hello`).
"""

from __future__ import annotations

import json
import re
import struct
import zlib
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Optional

from ..exceptions import CodecError, ProtocolError
from ..protocol.messages import Acknowledgment, Message, Notice, Proposal

#: Control message class → wire kind: the one place a control kind is
#: spelled.  Extension kinds (the task plane's payload frames) add their
#: decoders to the table these seed (:func:`register_frame_kind`) and share
#: the same length|CRC32|body framing, so control and payload traffic can
#: interleave on one connection.
_CONTROL = {Proposal: "prop", Acknowledgment: "ack", Notice: "note"}
CONTROL_KINDS = tuple(_CONTROL.values())

#: struct format of the frame header: body length + CRC32 of the body.
FRAME_HEADER = struct.Struct(">II")

#: Upper bound on a frame body, in bytes — refused by :func:`encode_blob`
#: at the sender and by :class:`FrameSplitter` at the receiver.
MAX_FRAME = 1 << 20

#: The shape of a wire rational: optional sign, ASCII digits, optional
#: ``/digits``, matched in full.  ``Fraction()`` itself accepts much more
#: (floats in scientific notation, decimals, any Unicode digit); the wire
#: format does not.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

#: What a node name may be on the wire: the JSON scalars, which round-trip
#: losslessly and hash (``bool`` is an ``int``).
_NAME_TYPES = (str, int, type(None))


#: The one compact encoder every frame body goes through.  ``json.dumps``
#: with non-default separators builds a fresh ``JSONEncoder`` per call —
#: more than half the cost of dumping a frame; this one is built once and
#: writes the same bytes.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def _dump(payload: dict) -> bytes:
    return _ENCODE(payload).encode("utf-8")


class _Names(dict):
    """``str`` name → its JSON bytes, written by the one encoder on first
    use.  Only ``str`` keys are kept: ``True == 1`` share a hash key, yet
    JSON writes ``true`` and ``1``."""

    def __missing__(self, name) -> bytes:
        encoded = _ENCODE(name).encode("utf-8")
        if type(name) is str:
            self[name] = encoded
        return encoded


#: ``encode_name(name) -> bytes``: a node name as ``_dump`` writes it; what
#: the payload frames' fixed-shape bodies format their names with
encode_name = _Names().__getitem__


def _check_name(name) -> None:
    if not isinstance(name, _NAME_TYPES):
        raise ProtocolError(
            f"node name {name!r} does not survive JSON; use str/int names "
            "with the TCP transport"
        )


def encode_message(message: Message) -> bytes:
    """Serialise one control message to a JSON frame body."""
    kind = _CONTROL.get(type(message))
    if kind is None:
        raise ProtocolError(f"cannot encode {message!r}")
    _check_name(message.sender)
    _check_name(message.receiver)
    payload = {"t": kind, "s": message.sender, "r": message.receiver}
    if isinstance(message, Notice):
        return _dump(payload)
    payload["v"] = str(Fraction(
        message.beta if isinstance(message, Proposal) else message.theta))
    if message.xid is not None:
        payload["x"] = message.xid
    if message.trace is not None:
        payload["i"] = message.trace
    return _dump(payload)


# ----------------------------------------------------------------------
# the readers: one per rule, shared by every decoder
# ----------------------------------------------------------------------
_PARSE = json.JSONDecoder().raw_decode


def parse_body(body: bytes) -> dict:
    """Parse a frame body into its JSON object, hardened against hostile
    bytes: every malformation — whitespace or anything else before or
    after the one object included — raises a recoverable
    :class:`~repro.exceptions.CodecError`.  The one body parser — control
    and payload frames, the hello and the federation's requests."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"non-UTF-8 frame body {body[:80]!r}") from exc
    try:
        payload, end = _PARSE(text)
    except ValueError as exc:
        raise CodecError(f"undecodable frame {body[:80]!r}") from exc
    if end != len(text):  # the encoder writes no byte around the object
        raise CodecError(f"bytes after the frame's object {body[:80]!r}")
    if not isinstance(payload, dict):
        raise CodecError(f"frame body is not an object: {body[:80]!r}")
    return payload


def read_name(payload: dict, key: str):
    """The node name under *key*: present, and a JSON scalar (an object or
    array could not be a name — it does not even hash)."""
    try:
        name = payload[key]
    except KeyError:
        raise CodecError(f"frame has no node name {key!r}") from None
    if not isinstance(name, _NAME_TYPES):
        raise CodecError(f"bad node name {key!r}: {name!r}")
    return name


def read_int(payload: dict, key: str, lo: Optional[int] = None,
             hi: Optional[int] = None) -> int:
    """The integer under *key*, within ``[lo, hi]`` where given.  ``bool``
    is never an integer here: JSON ``true`` would otherwise pass as 1 and
    match transaction or task 1."""
    value = payload.get(key)
    if type(value) is not int:
        raise CodecError(f"field {key!r} is no integer: {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise CodecError(f"field {key!r} out of range: {value}")
    return value


def parse_rational(text) -> Fraction:
    """Parse a wire rational, hardened: exactly what ``str(Fraction)``
    writes (``"n"`` or ``"n/d"`` in lowest terms, ``d > 1``, no ``-0``, no
    leading zero) and nothing else.

    The public face of the codec's rational validation — the federation
    service parses request payloads with it so a hostile or corrupted
    field raises a recoverable :class:`~repro.exceptions.CodecError`
    exactly like a malformed control frame would.
    """
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise CodecError(f"malformed wire rational {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CodecError(f"malformed wire rational {text!r}") from exc
    if str(value) != text:
        raise CodecError(f"non-canonical wire rational {text!r}")
    return value


# ----------------------------------------------------------------------
# bodies: one table of kinds
# ----------------------------------------------------------------------
def _decode_control(cls, payload: dict) -> Message:
    if cls is Notice:
        return cls(read_name(payload, "s"), read_name(payload, "r"))
    xid = payload.get("x")
    if xid is not None:
        xid = read_int(payload, "x")
    trace = payload.get("i")
    if trace is not None and not isinstance(trace, str):
        raise CodecError(f"non-string trace id {trace!r} in frame")
    return cls(read_name(payload, "s"), read_name(payload, "r"),
               parse_rational(payload.get("v")), xid, trace)


#: wire kind → decoder of the parsed body, for every kind on the wire
_DECODERS: Dict[str, Callable[[dict], object]] = {
    kind: partial(_decode_control, cls) for cls, kind in _CONTROL.items()}


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
    _DECODERS[kind] = decoder


def decode_body(body: bytes, edge: Optional[tuple] = None) -> object:
    """Decode one frame body: a control :class:`Message` or any registered
    extension frame (see :func:`register_frame_kind`).  With *edge* — the
    ``(sender, receiver)`` of the socket end it arrived on — a frame naming
    another edge is refused: a child cannot speak for its sibling.

    Every malformation raises :class:`~repro.exceptions.CodecError` (always
    recoverable here: by the time a body exists the framing held).
    """
    payload = parse_body(body)
    kind = payload.get("t")
    decoder = _DECODERS.get(kind) if isinstance(kind, str) else None
    if decoder is None:
        raise CodecError(f"unknown frame type {kind!r}")
    frame = decoder(payload)
    if edge is not None and (frame.sender, frame.receiver) != edge:
        raise CodecError(f"a {kind!r} frame from {frame.sender!r} to "
                         f"{frame.receiver!r} arrived on the edge {edge!r}")
    return frame


# ----------------------------------------------------------------------
# frames: one writer, one reader
# ----------------------------------------------------------------------
def encode_blob(body: bytes, max_frame: int = MAX_FRAME) -> bytes:
    """Frame an arbitrary body: length + CRC32 header, then the body.

    The framing shared by protocol messages, payload frames, the hello and
    the federation's requests, so a corrupted handshake is detected exactly
    like a corrupted negotiation frame.  A body the receiving
    :class:`FrameSplitter` would refuse — it firewalls the edge — is
    refused here, where the cause is still known.
    """
    if len(body) > max_frame:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the {max_frame}-byte "
            "bound its receiver enforces")
    return FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def encode_any(obj) -> bytes:
    """Frame any wire object: a control :class:`Message` or an extension
    frame exposing ``to_body()`` (the compact JSON body of a registered
    kind, as ``_dump`` would write it).  Control and payload frames share
    the same length|CRC32 framing, so they interleave freely on one socket.
    """
    if type(obj) in _CONTROL:
        return encode_blob(encode_message(obj))
    to_body = getattr(obj, "to_body", None)
    if to_body is None:
        raise ProtocolError(f"cannot encode {obj!r}")
    return encode_blob(to_body())


def encode_hello(name) -> bytes:
    """The frame a dialling node introduces itself with — the first frame
    on every accepted socket, framed and checksummed like any other."""
    _check_name(name)
    return encode_blob(_dump({"hello": name}))


def decode_hello(body: bytes):
    """The name a hello body claims; anything else a
    :class:`~repro.exceptions.CodecError`.  Whether that name may connect
    is the listener's own test — it depends on who is already connected."""
    return read_name(parse_body(body), "hello")


class FrameSplitter:
    """Synchronous inverse of :func:`encode_blob` over a byte stream that
    arrives in arbitrary chunks — the one place that validates a frame's
    header, size bound and CRC32 (the TCP transport's ``data_received``,
    the cluster's socket loop, the federation's whole-frame pipes).

    :meth:`feed` buffers a chunk; :meth:`next_body` takes the next frame
    out of the buffer:

    * ``None`` — no whole frame is buffered yet.  At end of stream,
      :attr:`pending` ``== 0`` is a clean EOF between frames and anything
      else a connection closed mid-frame;
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

"""Framed JSON over ``multiprocessing`` connections.

The federation reuses the runtime codec for every request and reply —
its framer (:func:`~repro.runtime.codec.encode_blob`), its reader
(:class:`~repro.runtime.codec.FrameSplitter`) and its body parser
(:func:`~repro.runtime.codec.parse_body`) — so a corrupted shard message
is detected exactly like a corrupted negotiation frame: the pipe gives
delivery, the frame gives integrity.  Rationals travel as exact ``"n/d"``
strings throughout (:func:`~repro.runtime.codec.parse_rational` on the
way back in).

Memo payloads can dwarf control frames (a whole subtree solution per
entry), so the federation frame bound is its own, larger constant — applied
on both sides, like the runtime's.
"""

from __future__ import annotations

import json
from typing import Optional

from ..exceptions import CodecError
from ..runtime.codec import FrameSplitter, encode_blob, parse_body

#: Upper bound on a federation frame body: recursive solution payloads and
#: whole-tree onboarding requests are far bigger than negotiation frames.
MAX_FEDERATION_FRAME = 1 << 26


def decode_blob(data: bytes, max_frame: int = MAX_FEDERATION_FRAME) -> bytes:
    """Synchronous inverse of :func:`~repro.runtime.codec.encode_blob` for
    message-oriented transports that deliver whole frames (the pipes of
    the federation service): the codec's
    :class:`~repro.runtime.codec.FrameSplitter` validates header, bound and
    CRC32; here *data* must additionally be exactly one frame.  Every
    malformation raises :class:`~repro.exceptions.CodecError`."""
    splitter = FrameSplitter(max_frame)
    splitter.feed(data)
    body = splitter.next_body()
    if body is None or splitter.pending:
        raise CodecError(
            f"{len(data)} bytes are not exactly one frame (truncated, or "
            "trailing octets after the body)")
    return body


def send_frame(conn, payload: dict) -> None:
    """Send one framed JSON object over a multiprocessing connection."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    conn.send_bytes(encode_blob(body, MAX_FEDERATION_FRAME))


def recv_frame(conn) -> dict:
    """Receive one framed JSON object; raises
    :class:`~repro.exceptions.CodecError` on any malformation and lets the
    connection's own ``EOFError``/``OSError`` propagate (the caller's
    crash-detection signal)."""
    return parse_body(decode_blob(conn.recv_bytes()))


def recv_frame_timeout(conn, timeout: Optional[float]) -> Optional[dict]:
    """Like :func:`recv_frame`, but returns ``None`` if nothing arrives
    within *timeout* seconds (``None`` waits forever)."""
    if timeout is not None and not conn.poll(timeout):
        return None
    return recv_frame(conn)

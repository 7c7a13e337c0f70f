"""FrameSplitter against its reference, ``read_blob`` on a StreamReader.

Every octet that enters a process goes through ``FrameSplitter``: the TCP
transport's ``data_received``, the task-plane cluster's socket loop, the
federation's pipes.  ``read_blob`` below is the stream reader the codec
shipped until the cluster moved to the splitter — two exact reads per
frame off an ``asyncio.StreamReader`` — kept here, unchanged, as the
oracle: both must see the same frames in the same byte stream however it
is cut, the same bodies, the same recoverable errors, the same
non-recoverable stop and the same verdict on how the stream ended.
"""

from __future__ import annotations

import asyncio
import json
import random
import zlib
from fractions import Fraction
from typing import Optional

import pytest

from repro.exceptions import CodecError, ProtocolError
from repro.protocol.messages import Acknowledgment, Proposal
from repro.runtime.codec import (FRAME_HEADER, MAX_FRAME, FrameSplitter,
                                 decode_body, encode_any, encode_blob)
from repro.taskplane import CreditGrant, DeliveryAck, Stop, make_task


async def read_blob(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The oracle: one checksummed body from *reader*; ``None`` on clean
    EOF, ``ProtocolError`` on EOF mid-frame, a non-recoverable
    ``CodecError`` on an oversized prefix, a recoverable one on a checksum
    mismatch (the frame consumed).  Do not optimise."""
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
        raise CodecError(f"checksum mismatch on frame {body[:80]!r}")
    return body


def good_frame(rng: random.Random) -> bytes:
    kind = rng.randrange(5)
    if kind == 0:
        return encode_any(Proposal(
            sender="P0", receiver="P1", xid=rng.randrange(99),
            beta=Fraction(rng.randrange(1, 999), rng.randrange(1, 999))))
    if kind == 1:
        return encode_any(Acknowledgment(
            sender="P1", receiver="P0", xid=rng.randrange(99),
            theta=Fraction(rng.randrange(999), rng.randrange(1, 999))))
    if kind == 2:
        return encode_any(make_task("P0", "P1", rng.randrange(10**6),
                                    rng.randbytes(rng.randrange(0, 700))))
    if kind == 3:
        return encode_any(DeliveryAck(sender="P1", receiver="P0",
                                      task_id=rng.randrange(10**6)))
    return encode_any(rng.choice([CreditGrant, Stop])(sender="P1",
                                                      receiver="P0"))


def bad_crc(rng: random.Random) -> bytes:
    frame = bytearray(good_frame(rng))
    frame[rng.randrange(FRAME_HEADER.size, len(frame))] ^= 0x40
    return bytes(frame)


def bad_json(rng: random.Random) -> bytes:
    return encode_blob(rng.choice([b"\xff\xfe", b"[1,2]", b'{"t":', b""]))


def unknown_kind(rng: random.Random) -> bytes:
    body = {"t": "teleport", "s": "P0", "r": "P1", "v": "1"}
    return encode_blob(json.dumps(body).encode())


def oversized(rng: random.Random) -> bytes:
    return (FRAME_HEADER.pack(MAX_FRAME + 1 + rng.randrange(1 << 20), 0)
            + rng.randbytes(40))


def stream(seed: int) -> bytes:
    """A seeded byte stream: mostly good frames, every hostile kind mixed
    in; one stream in three ends mid-frame, one in four carries an
    oversized prefix (after which nothing may be decoded)."""
    rng = random.Random(seed)
    makers = [good_frame] * 6 + [bad_crc, bad_json, unknown_kind]
    frames = [rng.choice(makers)(rng) for _ in range(rng.randrange(1, 40))]
    if seed % 4 == 3:
        frames.insert(rng.randrange(len(frames) + 1), oversized(rng))
    data = b"".join(frames)
    if seed % 3 == 2:
        data = data[:-rng.randrange(1, len(frames[-1]))]
    return data


def decoded(body: bytes):
    try:
        return ("frame", decode_body(body))
    except CodecError as exc:
        assert exc.recoverable
        return ("skipped", "payload")


def reference(data: bytes) -> list:
    """What the stream path makes of *data*."""
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        events = []
        while True:
            try:
                body = await read_blob(reader)
            except CodecError as exc:
                if not exc.recoverable:
                    return events + [("abandoned",)]
                events.append(("skipped", "checksum"))
                continue
            except ProtocolError:
                return events + [("eof", "mid-frame")]
            if body is None:
                return events + [("eof", "clean")]
            events.append(decoded(body))

    return asyncio.run(scenario())


def split(data: bytes, cuts: list) -> list:
    """What the splitter makes of *data* fed in the chunks *cuts* mark."""
    splitter = FrameSplitter()
    events = []
    for start, end in zip([0] + cuts, cuts + [len(data)]):
        splitter.feed(data[start:end])
        while True:
            try:
                body = splitter.next_body()
            except CodecError as exc:
                if not exc.recoverable:
                    # a dead end: asking again changes nothing
                    with pytest.raises(CodecError):
                        splitter.next_body()
                    return events + [("abandoned",)]
                events.append(("skipped", "checksum"))
                continue
            if body is None:
                break
            events.append(decoded(body))
    return events + [("eof", "mid-frame" if splitter.pending else "clean")]


def chunkings(data: bytes, rng: random.Random):
    size = len(data)
    yield "one chunk", []
    yield "one byte at a time", list(range(1, size))
    yield "header | body", sorted(
        {min(size, at + FRAME_HEADER.size) for at in range(0, size, 97)}
        - {size, 0})
    for _ in range(4):
        yield "random", sorted(rng.sample(range(1, size),
                                          rng.randrange(min(size - 1, 30))))
    yield "few big chunks", sorted(rng.sample(range(1, size),
                                              min(size - 1, 2)))


@pytest.mark.parametrize("seed", range(24))
def test_splitter_agrees_with_read_blob_under_any_chunking(seed):
    data = stream(seed)
    expected = reference(data)
    rng = random.Random(seed + 1000)
    for name, cuts in chunkings(data, rng):
        assert split(data, cuts) == expected, (name, cuts)


def test_every_ending_and_every_hostile_kind_is_generated():
    """The property above is only as strong as its generator."""
    seen = set()
    for seed in range(24):
        seen.update(reference(stream(seed)))
    hashable = {event for event in seen if event[0] != "frame"}
    assert hashable == {("skipped", "checksum"), ("skipped", "payload"),
                        ("abandoned",), ("eof", "clean"),
                        ("eof", "mid-frame")}
    kinds = {type(event[1]).__name__ for event in seen
             if event[0] == "frame"}
    assert {"Proposal", "Acknowledgment", "TaskFrame"} <= kinds


def test_oversized_prefix_is_rejected_before_its_body_arrives():
    splitter = FrameSplitter()
    splitter.feed(FRAME_HEADER.pack(MAX_FRAME + 1, 0))
    with pytest.raises(CodecError) as excinfo:
        splitter.next_body()
    assert not excinfo.value.recoverable


def test_bound_is_the_callers():
    blob = encode_blob(b"x" * 100)
    splitter = FrameSplitter(max_frame=100)
    splitter.feed(blob + blob)
    assert splitter.next_body() == b"x" * 100
    assert splitter.pending == len(blob)
    tight = FrameSplitter(max_frame=99)
    tight.feed(blob)
    with pytest.raises(CodecError):
        tight.next_body()

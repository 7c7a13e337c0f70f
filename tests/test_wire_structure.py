"""One way onto the wire and one way off it — kept that way.

Until PR 20 the codec had two frame readers (``FrameSplitter`` and the
``read_blob`` coroutines), the runtime and the cluster two hellos, and
three modules their own idea of a node name.  These checks read ``src/``
and fail when a second statement of one of those rules grows back.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
CODEC = SRC / "runtime" / "codec.py"
FRAMES = SRC / "taskplane" / "frames.py"


def sources(*roots: Path):
    for root in roots or (SRC,):
        for path in sorted(root.rglob("*.py")):
            yield path, path.read_text(encoding="utf-8")


def spans(path: Path, name: str):
    """Line ranges of every class or function called *name* in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.name == name]


def lines_with(text: str, needle: str):
    return [number for number, line in enumerate(text.splitlines(), 1)
            if needle in line]


def test_a_frame_header_is_unpacked_in_the_splitter_only():
    (splitter,) = spans(CODEC, "FrameSplitter")
    for path, text in sources():
        for number in lines_with(text, "FRAME_HEADER.unpack"):
            assert path == CODEC and number in splitter, (path, number)
    assert lines_with(CODEC.read_text(), "FRAME_HEADER.unpack")


def test_crc32_is_the_codecs_and_the_payload_checksum():
    (payload_crc,) = spans(FRAMES, "payload_crc")
    for path, text in sources():
        for number in lines_with(text, "crc32"):
            assert path == CODEC or (path == FRAMES
                                     and number in payload_crc), (path, number)


def test_the_hello_key_is_spelled_in_the_codec_only():
    """(``telemetry/dash.py``'s SSE ``hello`` event is another thing.)"""
    for path, text in sources(SRC / "runtime", SRC / "taskplane"):
        for quoted in ('"hello"', "'hello'"):
            assert path == CODEC or not lines_with(text, quoted), path
    assert lines_with(CODEC.read_text(), '"hello"')


def test_nothing_reads_a_frame_with_exact_reads():
    for path, text in sources():
        assert not lines_with(text, "readexactly"), path


def test_a_control_kind_is_spelled_in_the_codecs_one_table():
    """``_CONTROL`` maps each control message class to its wire kind; the
    encoder, the decoder table and ``CONTROL_KINDS`` are derived from it."""
    from repro.runtime.codec import _CONTROL, _DECODERS, CONTROL_KINDS

    assert CONTROL_KINDS == tuple(_CONTROL.values()) == ("prop", "ack", "note")
    assert set(CONTROL_KINDS) <= set(_DECODERS)
    (table,) = lines_with(CODEC.read_text(), "_CONTROL = {")
    for path, text in sources():
        spelled = [node.lineno for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.Constant)
                   and node.value in CONTROL_KINDS]
        assert spelled == ([table] * 3 if path == CODEC else []), path

"""The daemon's frame codec, shared by the server and both clients.

A frame is one short JSON header line followed by the UTF-8 bytes of
its large text fields (:data:`BODY_FIELDS`: a submit's ``payload`` and
``script``, a result's ``output``). The header's ``body`` object names
those fields with their lengths in bytes, and the bytes follow the
newline in that order::

    {"type": "result", "id": "1", "ok": true, ..., "body": {"output": 29461}}
    "builtin.module"() ({ ...29 461 bytes of printed IR, as printed...

Every other field stays inline JSON. A printed module is full of quotes
and newlines: as a JSON string it is escaped by the writer and
unescaped by the reader, and asyncio's line reader refuses a line over
64 KiB; as a body it is copied, never escaped. The body is optional,
so a plain JSON line is a frame too.

Reading one frame raises :class:`FrameError` when the stream cannot be
followed past it (a header line over :data:`MAX_HEADER_BYTES`, or a
body length that is not an int in ``0..MAX_BODY_BYTES``) and a plain
``ValueError`` when the header line is not a JSON object (the line is
dropped and the next one read). ``None`` means the peer closed the
connection, between frames or inside a frame.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

#: Text fields that travel as body bytes when they are strings.
BODY_FIELDS = ("payload", "script", "output")
#: The longest header line, newline included: asyncio's default
#: reader limit, which the blocking reader applies as well.
MAX_HEADER_BYTES = 1 << 16
#: The most bytes one body field may declare: what a header can make
#: a reader wait for and hold.
MAX_BODY_BYTES = 1 << 26


class FrameError(ValueError):
    """The stream cannot be read past this frame."""


def encode_frame(frame: Dict[str, object]) -> bytes:
    header, chunks = frame, []
    for name in BODY_FIELDS:
        value = frame.get(name)
        if isinstance(value, str):
            if header is frame:  # copied only when a field moves
                header = dict(frame, body={})
            data = value.encode()
            del header[name]
            header["body"][name] = len(data)
            chunks.append(data)
    return b"".join((json.dumps(header).encode(), b"\n", *chunks))


def _header(line: bytes) -> Tuple[Dict[str, object], Dict[str, int]]:
    if len(line) > MAX_HEADER_BYTES:
        raise FrameError(f"header line over {MAX_HEADER_BYTES} bytes")
    frame = json.loads(line)
    if not isinstance(frame, dict):
        raise ValueError("a frame header is a JSON object")
    body = frame.pop("body", {})
    if not isinstance(body, dict) or not all(
            type(size) is int and 0 <= size <= MAX_BODY_BYTES
            for size in body.values()):
        raise FrameError(f"body lengths must be ints in "
                         f"0..{MAX_BODY_BYTES}, not {body!r}")
    return frame, body


def read_frame(stream) -> Optional[Dict[str, object]]:
    """The next frame of a blocking binary stream; blank lines between
    frames are skipped."""
    line = b"\n"
    while line.isspace():
        line = stream.readline(MAX_HEADER_BYTES + 1)
    if not line:
        return None
    frame, body = _header(line)
    for name, size in body.items():
        data = stream.read(size)
        if len(data) < size:
            return None
        frame[name] = data.decode()
    return frame


async def read_frame_async(reader: asyncio.StreamReader) \
        -> Optional[Dict[str, object]]:
    """:func:`read_frame` for an asyncio stream whose ``limit`` is
    :data:`MAX_HEADER_BYTES`."""
    try:
        line = b"\n"
        while line.isspace():
            line = await reader.readuntil(b"\n")
        frame, body = _header(line)
        for name, size in body.items():
            frame[name] = (await reader.readexactly(size)).decode()
        return frame
    except asyncio.IncompleteReadError:
        return None
    except asyncio.LimitOverrunError as error:
        raise FrameError(f"header line over {MAX_HEADER_BYTES} bytes") \
            from error

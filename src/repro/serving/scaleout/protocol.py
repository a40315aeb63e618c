"""Length-prefixed framing between the front door and worker processes.

One frame is::

    u32 header_len | u32 body_len | header (JSON, UTF-8) | body (raw bytes)

(big-endian lengths).  The *header* carries routing and control fields —
``op`` (``predict`` / ``health`` / ``metrics`` / ``drain`` / ``ready`` /
``error`` / …), the request ``id`` the front door uses to match replies to
waiting HTTP connections, status codes, JSON-safe stats.  The *body* is an
opaque byte string: for ``predict`` frames it is the client's raw HTTP
body on the way in and the JSON response on the way out, so the front
door never parses rows — it stays an I/O loop, and all row handling CPU
lands on the workers.

One parser, :class:`FrameDecoder`, reads frames on both sides of the
socket: the front door multiplexes, feeding it whatever bytes the selector
hands over; a worker blocks, reading through :func:`read_frames`, which
feeds it from ``recv`` until the peer hangs up.

Frames are bounded (:data:`MAX_FRAME_BYTES`) so a corrupted length prefix
fails loudly instead of allocating gigabytes.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, Iterator, Tuple

_PREFIX = struct.Struct(">II")

#: Hard per-frame ceiling — far above any request the HTTP layer admits
#: (its own ``max_body_bytes`` is the real limit) but small enough that a
#: desynchronized stream cannot trigger a giant allocation.
MAX_FRAME_BYTES = 1 << 28  # 256 MiB

Frame = Tuple[Dict[str, object], bytes]


class ProtocolError(RuntimeError):
    """The peer sent bytes that cannot be a frame (or hung up mid-frame)."""


def encode_frame(header: Dict[str, object], body: bytes = b"") -> bytes:
    """Serialize one frame to bytes (the front door appends to outbufs)."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    if len(header_bytes) + len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(header_bytes) + len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return _PREFIX.pack(len(header_bytes), len(body)) + header_bytes + body


def send_frame(
    sock: socket.socket, header: Dict[str, object], body: bytes = b""
) -> None:
    """Blocking send of one frame (the worker side)."""
    sock.sendall(encode_frame(header, body))


class FrameDecoder:
    """Incremental frame decoder.

    Feed it whatever ``recv`` returned; iterate :meth:`frames` for every
    complete frame buffered so far.  Partial frames stay buffered across
    feeds — exactly the state machine a selectors loop needs.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def frames(self) -> Iterator[Frame]:
        while True:
            if len(self._buffer) < _PREFIX.size:
                return
            header_len, body_len = _PREFIX.unpack_from(self._buffer)
            total = _PREFIX.size + header_len + body_len
            if header_len + body_len > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"declared frame of {header_len + body_len} bytes "
                    f"exceeds the {MAX_FRAME_BYTES}-byte frame limit"
                )
            if len(self._buffer) < total:
                return
            header_bytes = bytes(
                self._buffer[_PREFIX.size:_PREFIX.size + header_len]
            )
            body = bytes(self._buffer[_PREFIX.size + header_len:total])
            del self._buffer[:total]
            try:
                header = json.loads(header_bytes.decode() or "{}")
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ProtocolError(f"frame header is not JSON: {exc}") from exc
            if not isinstance(header, dict):
                raise ProtocolError(f"frame header is not a JSON object: {header!r}")
            yield header, body


def read_frames(sock: socket.socket) -> Iterator[Frame]:
    """Blocking frame stream over ``sock`` (the worker side).

    Ends when the peer hangs up between frames; a hang-up inside a frame
    raises :class:`ProtocolError`.
    """
    decoder = FrameDecoder()
    while True:
        data = sock.recv(1 << 16)
        if not data:
            if decoder._buffer:
                raise ProtocolError("peer closed mid-frame")
            return
        decoder.feed(data)
        yield from decoder.frames()

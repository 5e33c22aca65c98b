"""Bit-exact encoder/decoder for the MQTT 3.1.1 packet subset.

Pure functions over byte buffers; no shared state. The wire layout follows
MQTT 3.1.1 (fixed header with type nibble and flags, base-128 varint
remaining length, 16-bit big-endian length-prefixed UTF-8 strings), so the
frames stay inspectable with off-the-shelf MQTT tooling.
"""

from __future__ import annotations

import socket
import struct
from typing import BinaryIO

from .errors import (
    BadTopicError,
    CodecError,
    FrameTooLargeError,
    LengthMismatchError,
    MalformedVarintError,
    StalledFrameError,
    TruncatedFrameError,
    UnknownPacketTypeError,
)
from .packets import (
    ConnAck,
    Connect,
    ControlPacket,
    Disconnect,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
)
from .topics import validate_topic

MAX_REMAINING_LENGTH = 268_435_455
# Largest whole frame (fixed header included) either side sends or accepts. The
# varint allows 256 MB, and a reader allocates a frame's buffer from its header.
MAX_FRAME_BYTES = 16 * 1024 * 1024
# Longest PUBLISH frame that a reader with a socket reads whole into its
# buffer; a longer one reads its payload apart (FrameReader). Over loopback,
# the client's part of a hop took 0-7 us longer read apart up to 128 KiB, and
# 4-8 us, 12-20 us and 100 us less at 256 KiB, 320 KiB and 1 MB.
SPLIT_READ_BYTES = 256 * 1024

_TYPE_CONNECT = 1
_TYPE_CONNACK = 2
_TYPE_PUBLISH = 3
_TYPE_PUBACK = 4
_TYPE_SUBSCRIBE = 8
_TYPE_SUBACK = 9
_TYPE_PINGREQ = 12
_TYPE_PINGRESP = 13
_TYPE_DISCONNECT = 14
_EMPTY_BODY_TYPES = {PingReq: _TYPE_PINGREQ, PingResp: _TYPE_PINGRESP,
                     Disconnect: _TYPE_DISCONNECT}

_PROTOCOL_NAME = b"\x00\x04MQTT"
_PROTOCOL_LEVEL = 4
_CONNECT_FLAGS = 0x02  # clean session, no will, no auth


def encode_remaining_length(n: int) -> bytes:
    """Encode ``n`` as the minimal base-128 varint with continuation bits."""
    if not 0 <= n <= MAX_REMAINING_LENGTH:
        raise ValueError(f"remaining length out of range: {n}")
    out = bytearray()
    while True:
        byte = n % 128
        n //= 128
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_remaining_length(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint starting at ``offset``; returns (value, bytes consumed)."""
    value = 0
    multiplier = 1
    for i in range(4):
        if offset + i >= len(buf):
            raise TruncatedFrameError("varint truncated")
        byte = buf[offset + i]
        value += (byte & 0x7F) * multiplier
        if not byte & 0x80:
            return value, i + 1
        multiplier *= 128
    raise MalformedVarintError("continuation bit set past 4 varint bytes")


def _encode_string(s: str) -> bytes:
    data = s.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ValueError("string exceeds 65535 encoded bytes")
    return struct.pack(">H", len(data)) + data


def _decode_string(buf: memoryview, offset: int) -> tuple[str, int]:
    if offset + 2 > len(buf):
        raise TruncatedFrameError("string length prefix truncated")
    (length,) = struct.unpack_from(">H", buf, offset)
    offset += 2
    if offset + length > len(buf):
        raise TruncatedFrameError("string body truncated")
    try:
        text = str(buf[offset : offset + length], "utf-8")
    except UnicodeDecodeError as exc:
        raise BadTopicError(f"invalid UTF-8 string: {exc}") from exc
    return text, offset + length


def encode_packet(packet: ControlPacket) -> list:
    """Encode one control packet as the buffers of its wire frame, in order.

    A Publish gives ``[head, payload]``: the head is the fixed header,
    remaining length, topic, packet id and the packet's prefix, and the
    payload is the packet's own object, not a copy. Any other packet gives
    ``[frame]``. Raises ValueError for a frame longer than MAX_FRAME_BYTES.
    """
    payload = b""
    if isinstance(packet, Connect):
        parts = [_PROTOCOL_NAME, bytes([_PROTOCOL_LEVEL, _CONNECT_FLAGS]),
                 struct.pack(">H", 0), _encode_string(packet.client_id)]
        header = _TYPE_CONNECT << 4
    elif isinstance(packet, ConnAck):
        parts = [bytes([0x00, packet.return_code])]
        header = _TYPE_CONNACK << 4
    elif isinstance(packet, Publish):
        validate_topic(packet.topic)
        parts = [_encode_string(packet.topic)]
        if packet.qos == 1:
            parts.append(struct.pack(">H", packet.packet_id))
        parts.append(packet.prefix)
        payload = packet.payload
        header = (_TYPE_PUBLISH << 4) | (packet.qos << 1)
    elif isinstance(packet, PubAck):
        parts = [struct.pack(">H", packet.packet_id)]
        header = _TYPE_PUBACK << 4
    elif isinstance(packet, Subscribe):
        if not packet.filters:
            raise ValueError("subscribe requires at least one filter")
        parts = [struct.pack(">H", packet.packet_id)]
        for topic_filter, max_qos in packet.filters:
            parts += (_encode_string(topic_filter), bytes([max_qos]))
        header = (_TYPE_SUBSCRIBE << 4) | 0x02
    elif isinstance(packet, SubAck):
        parts = [struct.pack(">H", packet.packet_id), bytes(packet.granted)]
        header = _TYPE_SUBACK << 4
    elif type(packet) in _EMPTY_BODY_TYPES:
        parts = []
        header = _EMPTY_BODY_TYPES[type(packet)] << 4
    else:
        raise TypeError(f"not a ControlPacket: {packet!r}")
    remaining = sum(map(len, parts)) + len(payload)
    head = b"".join((bytes([header]), encode_remaining_length(remaining), *parts))
    if len(head) + len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"a {len(head) + len(payload)} B frame exceeds "
                         f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    return [head, payload] if isinstance(packet, Publish) else [head]


def decode_packet(frame: bytes | bytearray | memoryview, prefix_size: int = 0,
                  payload: bytes | None = None) -> ControlPacket:
    """Decode one complete frame. A PUBLISH's first ``prefix_size`` payload
    bytes become its ``prefix``, as ``bytes``, and the rest its payload: a
    read-only view of ``frame``, not a copy. For a frame whose payload was
    read apart, ``frame`` holds what comes before it and ``payload`` the
    payload itself, which the packet keeps as it is."""
    if not frame:
        raise TruncatedFrameError("empty input")
    header = frame[0]
    ptype = header >> 4
    flags = header & 0x0F
    remaining, consumed = decode_remaining_length(frame, 1)
    body = memoryview(frame)[1 + consumed :]
    got = len(body) + (0 if payload is None else len(payload))
    if got != remaining:
        raise LengthMismatchError(f"declared {remaining} body bytes, got {got}")
    return _decode_body(ptype, flags, body, prefix_size, payload)


def _decode_body(ptype: int, flags: int, body: memoryview, prefix_size: int,
                 payload: bytes | None) -> ControlPacket:
    if ptype == _TYPE_CONNECT:
        offset = len(_PROTOCOL_NAME) + 2 + 2
        if len(body) < offset or body[: len(_PROTOCOL_NAME)] != _PROTOCOL_NAME:
            raise LengthMismatchError("malformed connect variable header")
        client_id, end = _decode_string(body, offset)
        if end != len(body):
            raise LengthMismatchError("trailing bytes after connect payload")
        return Connect(client_id)
    if ptype == _TYPE_CONNACK:
        if len(body) != 2:
            raise LengthMismatchError("connack body must be 2 bytes")
        return ConnAck(body[1])
    if ptype == _TYPE_PUBLISH:
        qos = (flags >> 1) & 0x03
        if qos not in (0, 1):
            raise UnknownPacketTypeError(f"unsupported publish qos {qos}")
        topic, offset = _decode_string(body, 0)
        validate_topic(topic)
        packet_id = None
        if qos == 1:
            if offset + 2 > len(body):
                raise TruncatedFrameError("publish packet id truncated")
            (packet_id,) = struct.unpack_from(">H", body, offset)
            offset += 2
        end = offset + prefix_size
        prefix = bytes(body[offset:end]) if prefix_size else b""
        if payload is None:
            payload = body[end:].toreadonly()
        return Publish(topic, payload, qos, packet_id, prefix)
    if ptype == _TYPE_PUBACK:
        if len(body) != 2:
            raise LengthMismatchError("puback body must be 2 bytes")
        return PubAck(struct.unpack(">H", body)[0])
    if ptype == _TYPE_SUBSCRIBE:
        if len(body) < 2:
            raise TruncatedFrameError("subscribe body truncated")
        (packet_id,) = struct.unpack_from(">H", body, 0)
        offset = 2
        filters: list[tuple[str, int]] = []
        while offset < len(body):
            topic_filter, offset = _decode_string(body, offset)
            if offset >= len(body):
                raise TruncatedFrameError("subscribe qos byte missing")
            filters.append((topic_filter, body[offset]))
            offset += 1
        if not filters:
            raise LengthMismatchError("subscribe carries no filters")
        return Subscribe(packet_id, tuple(filters))
    if ptype == _TYPE_SUBACK:
        if len(body) < 2:
            raise TruncatedFrameError("suback body truncated")
        (packet_id,) = struct.unpack_from(">H", body, 0)
        return SubAck(packet_id, tuple(body[2:]))
    for packet_type, type_nibble in _EMPTY_BODY_TYPES.items():
        if ptype == type_nibble:
            if body:
                raise LengthMismatchError(f"{packet_type.__name__} body must be empty")
            return packet_type()
    raise UnknownPacketTypeError(f"unknown packet type nibble {ptype}")


class FrameReader:
    """Reads framed packets from one blocking byte stream into one buffer.

    Every frame goes into the reader's buffer, grown once a frame does not
    fit, so a connection that carries large messages fills the same memory
    again instead of faulting in fresh pages for every frame. A packet read
    from it views that buffer, and the next read overwrites it: a caller
    that keeps a payload past the next read keeps a copy.

    ``prefix_size`` splits that many bytes off the front of each PUBLISH
    payload into the packet's ``prefix`` (``decode_packet``). Given ``sock``,
    the socket under an unbuffered ``stream``, a PUBLISH frame longer than
    ``SPLIT_READ_BYTES`` reads what comes before its payload into the
    buffer, and its payload with one ``recv`` into a ``bytes`` of its own:
    the one copy a large payload costs on the way in, and one a caller may
    keep.
    """

    def __init__(self, stream: BinaryIO, prefix_size: int = 0,
                 sock: socket.socket | None = None):
        self.stream = stream
        self.prefix_size = prefix_size
        self.sock = sock
        self._frame = bytearray()

    def read_packet(self) -> ControlPacket | None:
        """Read one packet. Returns None on clean EOF at a frame boundary;
        raises TruncatedFrameError on EOF mid-frame, StalledFrameError when a
        read times out (a non-blocking or timed stream returns None), and
        FrameTooLargeError, before allocating, for a header that declares
        more than MAX_FRAME_BYTES."""
        stream = self.stream
        first = stream.read(1)
        if first is None:
            raise StalledFrameError("read timed out before a frame began")
        if not first:
            return None
        head = bytearray(first)
        for _ in range(4):
            byte = stream.read(1)
            if not byte:
                raise _cut_short(byte, "remaining length")
            head += byte
            if not byte[0] & 0x80:
                break
        else:
            raise MalformedVarintError("continuation bit set past 4 varint bytes")
        remaining, _ = decode_remaining_length(head, 1)
        size = len(head) + remaining
        if size > MAX_FRAME_BYTES:
            raise FrameTooLargeError(f"header declares a {size} B frame, "
                                     f"over MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
        if (self.sock is not None and size > SPLIT_READ_BYTES
                and head[0] >> 4 == _TYPE_PUBLISH):
            return self._read_split(head, size)
        if len(self._frame) < size:
            self._frame = bytearray(size)
        view = memoryview(self._frame)[:size]
        view[: len(head)] = head
        self._fill(view, len(head), "packet body")
        return decode_packet(view, self.prefix_size)

    def _read_split(self, head: bytearray, size: int) -> Publish:
        """A PUBLISH whose payload goes straight into a ``bytes`` of its own.
        What comes before it goes into the buffer: the topic's length, then
        the topic, the packet id and the prefix."""
        start = len(head) + 2
        most = min(size, start + 0xFFFF + 2 + self.prefix_size)
        if len(self._frame) < most:
            self._frame = bytearray(most)
        view = memoryview(self._frame)
        view[: len(head)] = head
        self._fill(view[:start], len(head), "publish topic length")
        topic_length = view[start - 2] << 8 | view[start - 1]
        packet_id = 2 if head[0] & 0x06 else 0  # QoS 1; decode_packet checks it
        before = min(size, start + topic_length + packet_id + self.prefix_size)
        self._fill(view[:before], start, "publish variable header")
        return decode_packet(view[:before], self.prefix_size,
                             self._recv_payload(size - before))

    def _recv_payload(self, n: int) -> bytes:
        try:
            payload = self.sock.recv(n, socket.MSG_WAITALL)
        except BlockingIOError:  # the receive timeout passed before any byte
            raise _cut_short(None, "publish payload") from None
        if len(payload) < n:
            # cut short by EOF, by the receive timeout or by a signal: read the
            # rest under the usual rule, each read waiting for its own bytes
            rest = bytearray(n)
            rest[: len(payload)] = payload
            self._fill(memoryview(rest), len(payload), "publish payload")
            payload = bytes(rest)
        return payload

    def _fill(self, view: memoryview, filled: int, where: str) -> None:
        """Read into ``view`` from ``filled`` on until it is full."""
        while filled < len(view):
            count = self.stream.readinto(view[filled:])
            if not count:
                raise _cut_short(count, where)
            filled += count


def _cut_short(chunk: bytes | int | None, where: str) -> CodecError:
    """The error for a read inside a frame that got no bytes: None is a read
    that timed out, so the peer stopped mid-frame; empty or 0 is EOF."""
    if chunk is None:
        return StalledFrameError(
            f"peer stopped mid-frame: read timed out inside {where}")
    return TruncatedFrameError(f"EOF inside {where}")


def write_frame(sock: socket.socket, buffers: list) -> int:
    """Write the buffers of one encoded frame (``encode_packet``) in order,
    with ``sendmsg``, so a publish payload goes out without being joined to
    its head. Loops on partial writes; returns the frame's length in bytes."""
    length = remaining = sum(map(len, buffers))
    while True:
        sent = sock.sendmsg(buffers)
        remaining -= sent
        if not remaining:
            return length
        # the kernel took part of the frame: drop what it took, send the rest
        while sent >= len(buffers[0]):
            sent -= len(buffers[0])
            buffers = buffers[1:]
        buffers = [memoryview(buffers[0])[sent:], *buffers[1:]]

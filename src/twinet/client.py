"""Minimal MQTT client for the link endpoints.

One broker connection per client, and no thread of its own: whichever call
needs a packet reads the socket, under one lock that covers every read and
write of it. ``publish`` at QoS 1, ``subscribe`` and ``ping`` read until
their ack; ``poll`` reads until a PUBLISH, and waits for one outside the
lock. A PUBLISH read by another call waits on a deque for the next
``poll``. Whoever reads a QoS-1 publish queues its PUBACK, and the queued
PUBACKs go out in one write before the client waits for the socket, and
before the call that read them returns. A connection that ends raises
ConnectionError in the call that reads it.
Publishing on a dead connection triggers bounded reconnect-with-backoff,
after which the failure is surfaced.
"""

from __future__ import annotations

import contextlib
import logging
import select
import socket
import struct
import threading
import time
from collections import deque

from . import heap
from .mqtt import (
    MAX_FRAME_BYTES,
    ConnAck,
    Connect,
    Disconnect,
    FrameReader,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    CodecError,
    encode_packet,
    packet_ids,
    write_frame,
)

log = logging.getLogger(__name__)


class BrokerUnreachableError(ConnectionError):
    """Raised once the reconnect retry budget is exhausted."""


# Connection attempts before BrokerUnreachableError, the delay after the first
# failed one (doubled after each later one), and how long a connect or a request
# waits for its ack, or a read for the rest of a frame. Read at each use (the
# frame bound at connect), so a test can monkeypatch them.
CONNECT_RETRIES = 5
BACKOFF_S = 0.05
ACK_TIMEOUT_S = 10.0


# Linux TCP states in which the peer has ended the connection: its FIN has
# arrived (CLOSE_WAIT) or its RST (CLOSE).
_TCP_CLOSE, _TCP_CLOSE_WAIT = 7, 8


def _peer_ended(sock: socket.socket) -> bool:
    """Whether the peer has ended the connection, from the kernel's TCP
    state, without reading a byte."""
    state = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO, 1)[0]
    return state in (_TCP_CLOSE, _TCP_CLOSE_WAIT)


class MqttClient:
    """``prefix_size`` bytes at the front of each received PUBLISH payload are
    split off into the ``prefix`` that ``poll`` hands out beside it, as
    ``publish`` sends a ``prefix`` before its payload."""

    def __init__(self, client_id: str, host: str, port: int, prefix_size: int = 0):
        self.client_id = client_id
        self.host = host
        self.port = port
        self.prefix_size = prefix_size
        self._sock: socket.socket | None = None
        self._reader: FrameReader | None = None
        # received (topic, payload, recv_ns, prefix), in arrival order, not yet polled
        self._received: deque[tuple[str, bytes, int, bytes]] = deque()
        # ids of QoS-1 publishes read on this connection and not yet acked
        self._acks: list[int] = []
        self._lock = threading.Lock()  # every read and write of the socket
        self._packet_ids = packet_ids()  # advanced under _lock
        self._subscriptions: list[tuple[str, int]] = []
        self._closed = False

    # -- connection ----------------------------------------------------------

    def connect(self) -> None:
        """Connect with bounded retries and exponential backoff.

        Also keeps the process's frame-sized heap blocks in the heap
        (``heap.keep_freed_heap``): each large message allocates and frees
        one, and the pages it fills then stay faulted in from one message
        to the next."""
        heap.keep_freed_heap(2 * MAX_FRAME_BYTES)
        delay = BACKOFF_S
        last_error: Exception | None = None
        for attempt in range(CONNECT_RETRIES):
            try:
                self._connect_once()
                return
            except OSError as exc:
                last_error = exc
                log.debug("connect attempt %d failed: %s", attempt + 1, exc)
                time.sleep(delay)
                delay *= 2
        raise BrokerUnreachableError(
            f"broker {self.host}:{self.port} unreachable "
            f"after {CONNECT_RETRIES} attempts: {last_error}"
        )

    def _connect_once(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=5.0)
        # Unbuffered, so select sees every byte not yet read, and a large
        # payload can be read from the socket itself. A read starts once
        # select saw a byte, so the kernel's receive timeout set below, which
        # costs no call per frame, holds up only a peer stalled mid-frame.
        reader = FrameReader(sock.makefile("rb", buffering=0), self.prefix_size, sock)
        try:  # a peer that accepts and never answers must not block for ever
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(ACK_TIMEOUT_S)
            write_frame(sock, encode_packet(Connect(self.client_id)))
            ack = reader.read_packet()
            if not isinstance(ack, ConnAck) or ack.return_code != 0:
                raise ConnectionError(f"connect refused: {ack!r}")
        except BaseException:
            reader.stream.close()
            sock.close()
            raise
        sock.settimeout(None)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, struct.pack(
            "ll", int(ACK_TIMEOUT_S), int(ACK_TIMEOUT_S % 1 * 1_000_000)))
        self._sock, self._reader = sock, reader

    def close(self) -> None:
        self._closed = True
        with self._lock:
            if self._sock is not None:
                with contextlib.suppress(OSError):
                    self._send(Disconnect())
                self._teardown()

    def _teardown(self) -> None:
        if self._sock is not None:
            with contextlib.suppress(OSError):  # wakes a poll waiting on it
                self._sock.shutdown(socket.SHUT_RDWR)
            for closable in (self._reader.stream, self._sock):
                with contextlib.suppress(OSError):
                    closable.close()
        self._sock = self._reader = None
        self._acks.clear()  # their ids belong to the connection just ended

    def _reconnect(self) -> None:
        self._teardown()
        self.connect()
        for filter_text, max_qos in self._subscriptions:
            self._subscribe_once(filter_text, max_qos)

    # -- socket, under _lock -------------------------------------------------

    def _send(self, packet) -> None:
        if self._sock is None:
            raise ConnectionError("not connected")
        write_frame(self._sock, encode_packet(packet))

    def _send_acks(self) -> None:
        """Send the queued PUBACKs, in one write."""
        if self._acks:
            acks = b"".join(b"".join(encode_packet(PubAck(pid))) for pid in self._acks)
            self._acks.clear()
            write_frame(self._sock, [acks])

    def _readable(self, deadline: float) -> bool:
        """Whether a packet starts arriving before ``deadline``. The queued
        PUBACKs go out before any wait, and not before: a backlog of QoS-1
        publishes is read without one write, and one wakeup of the broker,
        per publish."""
        sock = [self._sock]
        if self._acks:
            if select.select(sock, [], [], 0)[0]:
                return True
            self._send_acks()
        wait = deadline - time.monotonic()
        return bool(select.select(sock, [], [], max(0.0, wait))[0])

    def _read(self, deadline: float):
        """Next packet, or None if none starts before ``deadline`` (monotonic).
        A PUBLISH is stamped, put on the deque with its payload as ``bytes`` (a
        copy only of a payload read into the reader's buffer) and, at QoS 1,
        its PUBACK queued."""
        if self._sock is None:
            raise ConnectionError("not connected")
        try:
            if not self._readable(deadline):
                return None
            packet = self._reader.read_packet()
        except (CodecError, OSError, ValueError) as exc:
            self._teardown()
            raise ConnectionError(f"connection lost: {exc}") from exc
        if packet is None:
            self._teardown()
            raise ConnectionError("connection closed by the broker")
        if isinstance(packet, Publish):
            recv_ns = time.time_ns()  # when read, before this client's ack
            if packet.qos == 1:
                self._acks.append(packet.packet_id)
            self._received.append((packet.topic, bytes(packet.payload), recv_ns,
                                   packet.prefix))
        return packet

    def _wait_ack(self, kind, packet_id: int | None = None):
        """Read until the ``kind`` ack (with ``packet_id``, if it has one).
        TimeoutError once ``ACK_TIMEOUT_S`` has passed, also while other
        packets keep arriving."""
        deadline = time.monotonic() + ACK_TIMEOUT_S
        while True:
            packet = self._read(deadline)
            if packet is None:
                raise TimeoutError(f"no {kind.__name__} for packet id {packet_id}")
            if isinstance(packet, kind) and getattr(packet, "packet_id", None) == packet_id:
                self._send_acks()
                return packet
            if time.monotonic() >= deadline:
                self._send_acks()
                raise TimeoutError(f"no {kind.__name__} for packet id {packet_id} "
                                   f"among the packets read by its deadline")

    # -- requests ------------------------------------------------------------

    def subscribe(self, filter_text: str, max_qos: int = 0) -> None:
        with self._lock:
            self._subscribe_once(filter_text, max_qos)
            self._subscriptions.append((filter_text, max_qos))

    def _subscribe_once(self, filter_text: str, max_qos: int) -> None:
        pid = next(self._packet_ids)
        self._send(Subscribe(pid, ((filter_text, max_qos),)))
        self._wait_ack(SubAck, pid)

    def publish(self, topic: str, payload: bytes, qos: int = 0,
                prefix: bytes = b"") -> None:
        """Publish ``prefix + payload``, transparently reconnecting (bounded)
        on a dead connection. ``payload`` goes to the socket as it is."""
        with self._lock:
            pid = next(self._packet_ids) if qos == 1 else None
            packet = Publish(topic, payload, qos, pid, prefix)
            try:
                # An end that has arrived unread reconnects here. Only then
                # is the socket read, through to that end: on a live
                # connection, deliveries that keep arriving could keep a
                # read-what-has-arrived loop going for ever.
                if self._sock is not None and _peer_ended(self._sock):
                    while self._read(time.monotonic()) is not None:
                        pass
                self._send(packet)
            except (ConnectionError, OSError):
                if self._closed:
                    raise
                self._reconnect()
                self._send(packet)
            if qos == 1:
                self._wait_ack(PubAck, pid)

    def ping(self) -> None:
        with self._lock:
            self._send(PingReq())
            self._wait_ack(PingResp)

    def poll(self, timeout: float = 0.0) -> tuple[str, bytes, int, bytes] | None:
        """Next received (topic, payload, recv_ns, prefix) in arrival order,
        or None after ``timeout`` s. The payload is ``bytes`` of its own: a
        large one (``SPLIT_READ_BYTES``) was received straight into it, so it
        was copied once, from the kernel; a smaller one was copied out of
        the reader's buffer. The prefix is the payload's first
        ``prefix_size`` bytes, split off.

        It reads under the lock what a zero-timeout ``select`` says has
        arrived, and waits for more outside it, so another thread can publish
        meanwhile. One deadline covers the whole call. Each read uses the
        socket live at that point: during a wait, another call may have read
        the data, torn the connection down or reconnected."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                while not self._received and self._read(time.monotonic()) is not None:
                    pass
                if self._received:
                    self._send_acks()
                    return self._received.popleft()
                sock = self._sock
            wait = deadline - time.monotonic()
            if wait <= 0:
                return None
            with contextlib.suppress(OSError, ValueError):  # closed: the read tells
                select.select([sock], [], [], wait)

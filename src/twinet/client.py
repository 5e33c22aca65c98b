"""Minimal MQTT client for the link endpoints.

One broker connection per client, and no thread of its own: whichever call
needs a packet reads the socket, under one lock that covers every read and
write of it. ``publish`` at QoS 1, ``subscribe`` and ``ping`` read until
their ack; ``poll`` reads until a PUBLISH. A PUBLISH read by another call
waits on a deque for the next ``poll``, and whoever reads a QoS-1 publish
sends its PUBACK. A connection that ends raises ConnectionError in the call
that reads it. Publishing on a dead connection triggers bounded
reconnect-with-backoff, after which the failure is surfaced.
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

from .mqtt import (
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


class MqttClient:
    def __init__(self, client_id: str, host: str, port: int):
        self.client_id = client_id
        self.host = host
        self.port = port
        self._sock: socket.socket | None = None
        self._reader: FrameReader | None = None
        # received (topic, payload, recv_ns), in arrival order, not yet polled
        self._received: deque[tuple[str, memoryview, int]] = deque()
        self._lock = threading.Lock()  # every read and write of the socket
        self._packet_ids = packet_ids()  # advanced under _lock
        self._subscriptions: list[tuple[str, int]] = []
        self._closed = False

    # -- connection ----------------------------------------------------------

    def connect(self) -> None:
        """Connect with bounded retries and exponential backoff."""
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
        # Unbuffered, so select sees every byte not yet read. A read starts
        # once select saw a byte, so the kernel's receive timeout set below,
        # which costs no call per frame, holds up only a peer stalled mid-frame.
        reader = FrameReader(sock.makefile("rb", buffering=0))
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
            for closable in (self._reader.stream, self._sock):
                with contextlib.suppress(OSError):
                    closable.close()
        self._sock = self._reader = None

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

    def _read(self, deadline: float):
        """Next packet, or None if none starts before ``deadline`` (monotonic).
        A PUBLISH is stamped, acked at QoS 1 and put on the deque."""
        if self._sock is None:
            raise ConnectionError("not connected")
        try:
            wait = max(0.0, deadline - time.monotonic())
            if not select.select([self._sock], [], [], wait)[0]:
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
                self._send(PubAck(packet.packet_id))
            self._received.append((packet.topic, packet.payload, recv_ns))
        return packet

    def _wait_ack(self, kind, packet_id: int | None = None):
        """Read until the ``kind`` ack (with ``packet_id``, if it has one)."""
        deadline = time.monotonic() + ACK_TIMEOUT_S
        while True:
            packet = self._read(deadline)
            if packet is None:
                raise TimeoutError(f"no {kind.__name__} for packet id {packet_id}")
            if isinstance(packet, kind) and getattr(packet, "packet_id", None) == packet_id:
                return packet

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
                # Read what has arrived: an unread connection end reconnects here.
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

    def poll(self, timeout: float = 0.0) -> tuple[str, memoryview, int] | None:
        """Next received (topic, payload, recv_ns) in arrival order, or None
        after ``timeout`` s; holds the lock while it waits. The payload is a
        read-only view of the received frame, not a copy."""
        with self._lock:
            deadline = time.monotonic() + timeout
            while not self._received:
                if self._read(deadline) is None:
                    return None
            return self._received.popleft()

"""Minimal MQTT client for the link endpoints.

One broker connection per client; a reader thread feeds received publishes
into an ordered queue; when the connection ends, requests waiting on it fail
at once. Publishing on a dead connection triggers bounded
reconnect-with-backoff, after which the failure is surfaced.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time

from .mqtt import (
    ConnAck,
    Connect,
    Disconnect,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    CodecError,
    encode_packet,
    read_packet,
)

log = logging.getLogger(__name__)


class BrokerUnreachableError(ConnectionError):
    """Raised once the reconnect retry budget is exhausted."""


# Put on a connection's ack queue by its reader thread when the connection ends.
_CONNECTION_LOST = object()

# Connection attempts before BrokerUnreachableError, the delay after the first
# failed one (doubled after each later one), and how long a request waits for
# its ack. Read at each use, so a test can monkeypatch them.
CONNECT_RETRIES = 5
BACKOFF_S = 0.05
ACK_TIMEOUT_S = 10.0


class MqttClient:
    def __init__(self, client_id: str, host: str, port: int):
        self.client_id = client_id
        self.host = host
        self.port = port
        self.messages: "queue.Queue[tuple[str, bytes, int]]" = queue.Queue()
        self._sock: socket.socket | None = None
        # Replaced on every connect: an old connection's end fails no new request.
        self._acks: "queue.Queue[object]" = queue.Queue()
        self._lost = threading.Event()
        # _io_lock serializes requests, each with its wait for its ack;
        # _send_lock only socket writes, so the reader can PUBACK meanwhile.
        self._io_lock = threading.RLock()
        self._send_lock = threading.Lock()
        self._next_packet_id = 1
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
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        stream = sock.makefile("rb")
        sock.sendall(encode_packet(Connect(self.client_id)))
        ack = read_packet(stream)
        if not isinstance(ack, ConnAck) or ack.return_code != 0:
            sock.close()
            raise ConnectionError(f"connect refused: {ack!r}")
        self._sock = sock
        self._acks = queue.Queue()
        self._lost = threading.Event()
        threading.Thread(
            target=self._read_loop, args=(stream, self._acks, self._lost),
            name=f"mqtt-reader-{self.client_id}", daemon=True
        ).start()

    def close(self) -> None:
        self._closed = True
        with self._io_lock:
            if self._sock is not None:
                try:
                    self._send(Disconnect())
                except OSError:
                    pass
                self._teardown()

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None

    def _reconnect(self) -> None:
        self._teardown()
        self.connect()
        for filter_text, max_qos in self._subscriptions:
            self._subscribe_once(filter_text, max_qos)

    # -- reader --------------------------------------------------------------

    def _read_loop(self, stream, acks: queue.Queue, lost: threading.Event) -> None:
        try:
            while (packet := read_packet(stream)) is not None:
                if isinstance(packet, Publish):
                    recv_ns = time.time_ns()  # on arrival, before this client's ack
                    if packet.qos == 1:
                        self._send(PubAck(packet.packet_id))
                    self.messages.put((packet.topic, packet.payload, recv_ns))
                elif isinstance(packet, (SubAck, PubAck, PingResp)):
                    acks.put(packet)
        except (CodecError, OSError, ValueError) as exc:
            log.debug("reader for %s stopped: %s", self.client_id, exc)
        finally:
            lost.set()
            acks.put(_CONNECTION_LOST)

    # -- requests ------------------------------------------------------------

    def _send(self, packet) -> None:
        sock = self._sock
        if sock is None or self._lost.is_set():
            raise ConnectionError("not connected")
        data = encode_packet(packet)
        with self._send_lock:
            sock.sendall(data)

    def _take_packet_id(self) -> int:
        pid = self._next_packet_id
        self._next_packet_id = pid % 0xFFFF + 1
        return pid

    def _wait_ack(self, kind, packet_id: int | None = None):
        """Next ``kind`` ack (with ``packet_id``, if it has one) on this connection."""
        acks = self._acks
        deadline = time.monotonic() + ACK_TIMEOUT_S
        while True:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise TimeoutError(f"no {kind.__name__} for packet id {packet_id}")
            try:
                ack = acks.get(timeout=timeout)
            except queue.Empty:
                continue
            if ack is _CONNECTION_LOST:
                acks.put(ack)  # every later wait on this connection fails too
                raise ConnectionError(f"connection lost awaiting {kind.__name__}")
            if isinstance(ack, kind) and getattr(ack, "packet_id", None) == packet_id:
                return ack

    def subscribe(self, filter_text: str, max_qos: int = 0) -> None:
        with self._io_lock:
            self._subscribe_once(filter_text, max_qos)
            self._subscriptions.append((filter_text, max_qos))

    def _subscribe_once(self, filter_text: str, max_qos: int) -> None:
        pid = self._take_packet_id()
        self._send(Subscribe(pid, ((filter_text, max_qos),)))
        self._wait_ack(SubAck, pid)

    def publish(self, topic: str, payload: bytes, qos: int = 0) -> None:
        """Publish, transparently reconnecting (bounded) on a dead connection."""
        with self._io_lock:
            pid = self._take_packet_id() if qos == 1 else None
            packet = Publish(topic, payload, qos, pid)
            try:
                self._send(packet)
            except (ConnectionError, OSError):
                if self._closed:
                    raise
                self._reconnect()
                self._send(packet)
            if qos == 1:
                self._wait_ack(PubAck, pid)

    def ping(self) -> None:
        with self._io_lock:
            self._send(PingReq())
            self._wait_ack(PingResp)

    def poll(self, timeout: float = 0.0) -> tuple[str, bytes, int] | None:
        """Next received (topic, payload, recv_ns) in arrival order, or None."""
        try:  # a 0 s timeout does not wait; Queue.get checks before it waits
            return self.messages.get(timeout=timeout)
        except queue.Empty:
            return None

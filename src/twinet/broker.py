"""Single data broker: accepts client connections, maintains subscriptions,
routes publishes to every matching subscriber.

One handler thread per connection. The session/subscription table is guarded
by a single lock so that routing a publish is atomic with respect to
subscription changes, which also gives global FIFO ordering per
(publisher, topic, subscriber).
"""

from __future__ import annotations

import logging
import socket
import threading
import time

from .metrics import write_metrics_csv
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
    TopicFilter,
    CodecError,
    encode_packet,
    read_packet,
    topic_matches,
    validate_filter,
)

log = logging.getLogger(__name__)

STATS_SCHEMA = ["counter", "value"]


class _Connection:
    """Server side of one client socket, and its session once it connects."""

    def __init__(self, broker: "Broker", sock: socket.socket):
        self.broker = broker
        self.sock = sock
        self.stream = sock.makefile("rb")
        self.client_id: str | None = None  # set on CONNECT
        self.subscriptions: list[tuple[TopicFilter, int]] = []
        self.next_packet_id = 1
        self._send_lock = threading.Lock()
        self.alive = True

    def take_packet_id(self) -> int:
        pid = self.next_packet_id
        self.next_packet_id = pid % 0xFFFF + 1
        return pid

    def send(self, packet) -> bool:
        data = encode_packet(packet)
        with self._send_lock:
            if not self.alive:
                return False
            try:
                self.sock.sendall(data)
            except OSError:
                self.alive = False
                return False
        self.broker._count("bytes_out", len(data))
        return True

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def run(self) -> None:
        try:
            self._serve()
        except (CodecError, OSError, ValueError) as exc:
            log.debug("connection closed on error: %s", exc)
        finally:
            self.broker._drop_connection(self)
            self.close()

    def _serve(self) -> None:
        first = read_packet(self.stream)
        if not isinstance(first, Connect):
            log.debug("first packet was %r, closing", first)
            return
        self.broker._register(self, first.client_id)
        self.send(ConnAck(0))
        while self.alive:
            packet = read_packet(self.stream)
            if packet is None or isinstance(packet, Disconnect):
                return
            if isinstance(packet, Publish):
                self.broker.route_publish(self, packet)
            elif isinstance(packet, Subscribe):
                granted = self.broker._subscribe(self, packet)
                self.send(SubAck(packet.packet_id, granted))
            elif isinstance(packet, PingReq):
                self.send(PingResp())
            elif isinstance(packet, PubAck):
                pass  # subscriber-side qos-1 ack; no retransmission state kept
            else:
                log.debug("unexpected packet %r, closing", packet)
                return


class Broker:
    """Threaded TCP pub/sub broker for the MQTT 3.1.1 subset."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 stats_csv: str | None = None):
        self.host = host
        self.port = port
        self.stats_csv = stats_csv
        self._table_lock = threading.Lock()
        self._sessions: dict[str, _Connection] = {}
        self._stats_lock = threading.Lock()
        self.stats: dict[str, int] = {
            "connections": 0,
            "publishes_routed": 0,
            "deliveries": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self.port))
        except OSError as exc:
            listener.close()
            raise OSError(f"cannot bind {self.host}:{self.port}: {exc}") from exc
        listener.listen(64)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="broker-accept", daemon=True
        )
        self._accept_thread.start()
        log.info("broker listening on %s:%d", self.host, self.port)

    def stop(self) -> None:
        if self._listener is not None:
            try:  # on Linux only shutdown wakes a thread blocked in accept()
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._table_lock:
            conns = list(self._sessions.values())
        for conn in conns:
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if self.stats_csv:
            write_metrics_csv(
                ({"counter": key, "value": value}
                 for key, value in sorted(self.stats.items())),
                STATS_SCHEMA, self.stats_csv)

    def __enter__(self) -> "Broker":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:  # fails once stop() has shut the listener down
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(self, sock)
            threading.Thread(target=conn.run, name="broker-conn", daemon=True).start()

    # -- session table -------------------------------------------------------

    def _register(self, conn: _Connection, client_id: str) -> None:
        with self._table_lock:
            prior = self._sessions.get(client_id)
            if prior is not None:
                prior.close()
            conn.client_id = client_id
            self._sessions[client_id] = conn
        self._count("connections", 1)

    def _drop_connection(self, conn: _Connection) -> None:
        if conn.client_id is None:
            return
        with self._table_lock:
            if self._sessions.get(conn.client_id) is conn:
                del self._sessions[conn.client_id]
            conn.subscriptions.clear()

    def _subscribe(self, conn: _Connection, packet: Subscribe) -> tuple[int, ...]:
        granted = []
        with self._table_lock:
            for filter_text, max_qos in packet.filters:
                topic_filter = validate_filter(filter_text)
                conn.subscriptions.append((topic_filter, max_qos))
                granted.append(max_qos)
        return tuple(granted)

    # -- routing -------------------------------------------------------------

    def route_publish(self, publisher: _Connection, pub: Publish) -> int:
        """Deliver to every session with a matching filter; returns delivery count.

        Overlapping filters within one session deliver a single copy at the
        highest granted qos. Publisher is acked iff the publish was qos 1,
        regardless of whether anyone matched.
        """
        delivered = 0
        with self._table_lock:
            for conn in self._sessions.values():
                if not conn.alive:
                    continue
                matched = [
                    max_qos
                    for topic_filter, max_qos in conn.subscriptions
                    if topic_matches(topic_filter, pub.topic)
                ]
                if not matched:
                    continue
                qos = min(pub.qos, max(matched))
                pid = conn.take_packet_id() if qos == 1 else None
                if conn.send(Publish(pub.topic, pub.payload, qos, pid)):
                    delivered += 1
        self._count("bytes_in", len(pub.payload))
        self._count("publishes_routed", 1)
        self._count("deliveries", delivered)
        if pub.qos == 1:
            publisher.send(PubAck(pub.packet_id))
        return delivered

    # -- stats ---------------------------------------------------------------

    def _count(self, key: str, amount: int) -> None:
        with self._stats_lock:
            self.stats[key] = self.stats.get(key, 0) + amount


def run_broker(bind_address: str = "127.0.0.1:1883",
               stats_csv: str | None = None) -> None:
    """Serve until interrupted, then stop (and write the stats CSV).

    The wait is timed. A signal that arrives just before an untimed wait
    starts does not wake it, so a Ctrl-C right after start-up went unseen;
    a timed wait sees it within 0.5 s.
    """
    host, _, port_text = bind_address.partition(":")
    broker = Broker(host or "127.0.0.1", int(port_text or 0), stats_csv=stats_csv)
    broker.start()
    try:
        while True:
            time.sleep(0.5)
    finally:
        broker.stop()

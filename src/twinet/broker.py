"""Single data broker: accepts client connections, maintains subscriptions,
routes publishes to every matching subscriber.

One handler thread per connection. ``_table_lock`` guards the session table,
each session's subscriptions and its packet ids, and nothing else: a publish
picks its deliveries under it and sends them after releasing it, so a socket
write holds only that connection's send lock. A subscriber that stops reading
stalls only the publishers that route to it (TCP backpressure on them). FIFO
order per (publisher, subscriber) holds because one publisher's packets are
read and routed on its one connection thread.
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
    FrameReader,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    SubAck,
    Subscribe,
    TopicFilter,
    CodecError,
    encode_packet,
    packet_ids,
    validate_filter,
    write_frame,
)

log = logging.getLogger(__name__)

STATS_SCHEMA = ["counter", "value"]


class _Connection:
    """Server side of one client socket, and its session once it connects."""

    def __init__(self, broker: "Broker", sock: socket.socket):
        self.broker = broker
        self.sock = sock
        self.reader = FrameReader(sock.makefile("rb"))
        self.client_id: str | None = None  # set on CONNECT
        self.subscriptions: list[tuple[TopicFilter, int]] = []
        self.packet_ids = packet_ids()
        self._send_lock = threading.Lock()
        self.alive = True

    def send(self, packet) -> bool:
        buffers = encode_packet(packet)
        with self._send_lock:
            if not self.alive:
                return False
            try:
                sent = write_frame(self.sock, buffers)
            except OSError:
                self.alive = False
                return False
        self.broker._count(bytes_out=sent)
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
        first = self.reader.read_packet()
        if not isinstance(first, Connect):
            log.debug("first packet was %r, closing", first)
            return
        self.broker._register(self, first.client_id)
        self.send(ConnAck(0))
        # A packet lives only inside _handle, so once it returns no routed
        # payload views the reader's buffer and the next frame refills it.
        while self.alive and self._handle(self.reader.read_packet()):
            pass

    def _handle(self, packet) -> bool:
        """Act on one packet; False once the connection should close."""
        if packet is None or isinstance(packet, Disconnect):
            return False
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
            return False
        return True


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
        self._listener = listener  # from here on, stop() closes it
        listener.listen(64)
        self.port = listener.getsockname()[1]
        accept_thread = threading.Thread(
            target=self._accept_loop, name="broker-accept", daemon=True
        )
        accept_thread.start()
        self._accept_thread = accept_thread  # stop() joins only a started thread
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
        if self.stats_csv and self._listener is not None:  # not if bind failed
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
        self._count(connections=1)

    def _drop_connection(self, conn: _Connection) -> None:
        if conn.client_id is None:
            return
        with self._table_lock:
            if self._sessions.get(conn.client_id) is conn:
                del self._sessions[conn.client_id]
            conn.subscriptions.clear()

    def _subscribe(self, conn: _Connection, packet: Subscribe) -> tuple[int, ...]:
        added = [(validate_filter(text), max_qos) for text, max_qos in packet.filters]
        with self._table_lock:
            conn.subscriptions += added
        return tuple(max_qos for _, max_qos in added)

    # -- routing -------------------------------------------------------------

    def route_publish(self, publisher: _Connection, pub: Publish) -> None:
        """Deliver to every session with a matching filter.

        Overlapping filters within one session deliver a single copy at the
        highest granted qos. Publisher is acked iff the publish was qos 1,
        regardless of whether anyone matched, and before any delivery: the
        broker owns the message once it has read it [MQTT-4.3.2-4], and a
        publisher that waits for its ack on the thread that also reads a
        subscriber's socket must not wait on that subscriber. Each delivery
        sends the received payload view itself, so the payload is never
        copied on the broker.
        """
        if pub.qos == 1:
            publisher.send(PubAck(pub.packet_id))
        levels = pub.topic.split("/")  # decode_packet validated the topic
        deliveries = []
        with self._table_lock:
            for conn in self._sessions.values():
                granted = max((max_qos for topic_filter, max_qos in conn.subscriptions
                               if topic_filter.matches(levels)), default=None)
                if granted is None:
                    continue
                qos = min(pub.qos, granted)
                pid = next(conn.packet_ids) if qos == 1 else None
                deliveries.append((conn, Publish(pub.topic, pub.payload, qos, pid)))
        delivered = sum(conn.send(packet) for conn, packet in deliveries)
        self._count(bytes_in=len(pub.payload), publishes_routed=1,
                    deliveries=delivered)

    # -- stats ---------------------------------------------------------------

    def _count(self, **amounts: int) -> None:
        with self._stats_lock:
            for key, amount in amounts.items():
                self.stats[key] += amount


def run_broker(bind_address: str = "127.0.0.1:1883",
               stats_csv: str | None = None) -> None:
    """Serve until interrupted, then stop (and write the stats CSV).

    The wait is timed. A signal that arrives just before an untimed wait
    starts does not wake it, so a Ctrl-C right after start-up went unseen;
    a timed wait sees it within 0.5 s. ``start`` runs inside the ``try``: a
    Ctrl-C can land once the socket listens but before ``start`` returns.
    """
    host, _, port_text = bind_address.partition(":")
    broker = Broker(host or "127.0.0.1", int(port_text or 0), stats_csv=stats_csv)
    try:
        broker.start()
        while True:
            time.sleep(0.5)
    finally:
        broker.stop()

import random
import socket
import sys
import threading
import time

import pytest

from twinet import client as client_mod
from twinet.client import BrokerUnreachableError, MqttClient
from twinet.mqtt import (ConnAck, TopicFilter, encode_packet, read_packet,
                         topic_matches, validate_filter)


def make_client(broker, name):
    client = MqttClient(name, broker.host, broker.port)
    client.connect()
    return client


class TestSessionHandling:
    def test_connect_subscribe_ping(self, broker):
        c = make_client(broker, "ue1")
        c.subscribe("twin/#", 0)
        c.ping()
        c.close()

    def test_first_packet_must_be_connect(self, broker):
        from twinet.mqtt import encode_packet, PingReq
        sock = socket.create_connection((broker.host, broker.port))
        sock.sendall(encode_packet(PingReq()))
        sock.settimeout(2.0)
        assert sock.recv(16) == b""  # broker closes without responding
        sock.close()

    def test_duplicate_client_id_evicts_old_session(self, broker):
        old = make_client(broker, "dup")
        old.subscribe("t/#", 0)
        new = make_client(broker, "dup")
        new.subscribe("t/#", 0)
        pub = make_client(broker, "pub")
        pub.publish("t/x", b"m", qos=1)
        assert new.poll(timeout=2.0) is not None
        # the evicted session's socket is closed; it receives nothing more
        assert old.poll(timeout=0.3) is None
        for c in (old, new, pub):
            c.close()


class TestRouting:
    def test_single_delivery_via_hash(self, broker):
        sub = make_client(broker, "sub")
        sub.subscribe("twin/#", 0)
        pub = make_client(broker, "pub")
        pub.publish("twin/state", b"hello")
        topic, payload, _ = sub.poll(timeout=2.0)
        assert (topic, payload) == ("twin/state", b"hello")
        assert sub.poll(timeout=0.2) is None
        sub.close(); pub.close()

    def test_overlapping_filters_deliver_once(self, broker):
        sub = make_client(broker, "sub")
        sub.subscribe("a/+", 0)
        sub.subscribe("a/b", 0)
        pub = make_client(broker, "pub")
        pub.publish("a/b", b"x")
        assert sub.poll(timeout=2.0) is not None
        assert sub.poll(timeout=0.3) is None
        sub.close(); pub.close()

    def test_no_match_still_acked_at_qos1(self, broker):
        pub = make_client(broker, "pub")
        pub.publish("nobody/listens", b"x", qos=1)  # returns only after PubAck
        pub.close()

    def test_fifo_per_topic(self, broker):
        sub = make_client(broker, "sub")
        sub.subscribe("seq/#", 1)
        pub = make_client(broker, "pub")
        count = 200
        for i in range(count):
            pub.publish("seq/t", str(i).encode(), qos=1)
        got = [sub.poll(timeout=2.0) for _ in range(count)]
        assert [int(p) for _, p, _ in got] == list(range(count))
        sub.close(); pub.close()

    def test_random_topologies_against_naive_matcher(self, broker):
        rng = random.Random(11)
        filters = ["a/#", "a/+", "a/b", "+/b", "b/#", "a/b/c"]
        subs = []
        for i in range(4):
            chosen = rng.sample(filters, 2)
            c = make_client(broker, f"s{i}")
            for f in chosen:
                c.subscribe(f, 0)
            subs.append((c, [validate_filter(f) for f in chosen]))
        pub = make_client(broker, "pub")
        topics = ["a", "a/b", "a/b/c", "b/x", "c"]
        published = [random.Random(13).choice(topics) for _ in range(40)]
        for i, topic in enumerate(published):
            pub.publish(topic, str(i).encode(), qos=1)
        time.sleep(0.3)
        pub.close()
        for c, fs in subs:
            received = []
            while (item := c.poll(timeout=0.2)) is not None:
                received.append(item[0])
            expected = [t for t in published
                        if any(topic_matches(f, t) for f in fs)]
            assert received == expected
            c.close()


class TestEndToEnd:
    def test_three_subscribers_receive_all_in_order(self, broker):
        subs = []
        for i in range(3):
            c = make_client(broker, f"sub{i}")
            c.subscribe("stream/#", 1)
            subs.append(c)
        pub = make_client(broker, "pub")
        n = 1000
        for i in range(n):
            pub.publish("stream/data", i.to_bytes(4, "big"), qos=1)
        for c in subs:
            values = []
            for _ in range(n):
                item = c.poll(timeout=5.0)
                assert item is not None
                values.append(int.from_bytes(item[1], "big"))
            assert values == list(range(n))
            c.close()
        pub.close()

    def test_disconnect_midstream_leaves_others_unaffected(self, broker):
        stable = make_client(broker, "stable")
        stable.subscribe("f/#", 1)
        flaky = make_client(broker, "flaky")
        flaky.subscribe("f/#", 1)
        pub = make_client(broker, "pub")
        for i in range(50):
            pub.publish("f/t", str(i).encode(), qos=1)
            if i == 20:
                flaky._teardown()  # abrupt socket death, no Disconnect
        received = [stable.poll(timeout=2.0) for _ in range(50)]
        assert all(item is not None for item in received)
        stable.close(); pub.close()

    def test_zero_clients_idle_counters(self):
        from twinet.broker import Broker
        with Broker(port=0) as b:
            time.sleep(0.05)
            assert b.stats["publishes_routed"] == 0
            assert b.stats["connections"] == 0


class TestLifecycle:
    def test_bind_failure_reported(self, broker):
        from twinet.broker import Broker
        clash = Broker(host=broker.host, port=broker.port)
        with pytest.raises(OSError):
            clash.start()

    def test_stats_csv_on_shutdown(self, tmp_path):
        from twinet.broker import Broker
        path = tmp_path / "stats.csv"
        with Broker(port=0, stats_csv=str(path)) as b:
            c = make_client(b, "c")
            c.publish("x", b"1")
            c.close()
            time.sleep(0.1)
        text = path.read_text()
        assert text.startswith("counter,value")
        assert "publishes_routed,1" in text

    def test_unreachable_broker_raises_after_retries(self, monkeypatch):
        monkeypatch.setattr(client_mod, "CONNECT_RETRIES", 2)
        monkeypatch.setattr(client_mod, "BACKOFF_S", 0.01)
        client = MqttClient("x", "127.0.0.1", 1)
        with pytest.raises(BrokerUnreachableError):
            client.connect()

    def test_stop_returns_promptly(self):
        from twinet.broker import Broker
        b = Broker(port=0)
        b.start()
        client = make_client(b, "c")  # the accept thread is now blocked in accept()
        start = time.monotonic()
        b.stop()
        assert time.monotonic() - start < 0.5
        client.close()


def wait_until_lost(client, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not client._lost.is_set():
        assert time.monotonic() < deadline, "reader never saw the connection end"
        time.sleep(0.01)


class TestDeadConnection:
    def test_pending_ack_fails_when_connection_drops(self):
        # a peer that accepts the session, then hangs up on the first publish
        listener = socket.create_server(("127.0.0.1", 0))

        def serve_then_hang_up():
            sock, _ = listener.accept()
            with sock, sock.makefile("rb") as stream:
                read_packet(stream)
                sock.sendall(encode_packet(ConnAck(0)))
                read_packet(stream)

        peer = threading.Thread(target=serve_then_hang_up, daemon=True)
        peer.start()
        client = MqttClient("c", *listener.getsockname())
        client.connect()
        start = time.monotonic()
        with pytest.raises(ConnectionError):
            client.publish("t", b"x", qos=1)
        assert time.monotonic() - start < 2.0
        client.close()
        peer.join(timeout=2.0)
        assert not peer.is_alive()
        listener.close()

    def test_publish_after_eof_reconnects_with_fresh_acks(self, broker, monkeypatch):
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 2.0)
        old = make_client(broker, "dup")
        evictor = make_client(broker, "dup")  # the broker closes old's socket
        wait_until_lost(old)
        old.publish("t", b"x", qos=1)  # reconnects, then gets its PubAck
        old.publish("t", b"y", qos=1)  # the old connection's end is not replayed
        old.ping()
        old.close(); evictor.close()

    def test_repeated_evictions_never_replay_a_lost_connection(self, broker,
                                                               monkeypatch):
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 2.0)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            client = make_client(broker, "dup")
            deadline = time.monotonic() + 20.0
            for i in range(20):
                evictor = make_client(broker, "dup")
                wait_until_lost(client)
                client.publish("t", str(i).encode(), qos=1)  # reconnects
                client.ping()
                evictor.close()
                assert time.monotonic() < deadline
            client.close()
        finally:
            sys.setswitchinterval(switch)


class TestConcurrentQos1:
    def test_own_publishes_complete_while_receiving_qos1(self, broker, monkeypatch):
        # The reader PUBACKs incoming QoS-1 publishes while this client's own
        # publish waits for its PUBACK; neither may wait on the other.
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 2.0)
        receiver = make_client(broker, "rx")
        receiver.subscribe("in/#", 1)
        sender = make_client(broker, "tx")
        stop = threading.Event()

        def stream():
            while not stop.is_set():
                sender.publish("in/x", b"p" * 64, qos=1)

        streamer = threading.Thread(target=stream, daemon=True)
        streamer.start()
        try:
            deadline = time.monotonic() + 5.0
            while receiver.messages.qsize() < 20:
                assert time.monotonic() < deadline, "the QoS-1 stream never arrived"
                time.sleep(0.005)
            slowest = 0.0
            for i in range(50):
                start = time.monotonic()
                receiver.publish("out/x", str(i).encode(), qos=1)
                slowest = max(slowest, time.monotonic() - start)
        finally:
            stop.set()
            streamer.join(timeout=5.0)
            receiver.close(); sender.close()
        assert not streamer.is_alive()
        assert slowest < 0.5

    def test_ping_and_qos1_publish_on_one_client_keep_their_own_acks(self, broker,
                                                                     monkeypatch):
        # A ping and a QoS-1 publish share one ack queue; each must wait for
        # its own ack under the request lock, or one takes the other's.
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 2.0)
        client = make_client(broker, "pinger")
        errors = []

        def repeat(request):
            try:
                for _ in range(300):
                    request()
            except (ConnectionError, TimeoutError) as exc:
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=repeat, args=(client.ping,)),
                       threading.Thread(target=repeat, args=(
                           lambda: client.publish("t", b"x", qos=1),))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(switch)
            client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

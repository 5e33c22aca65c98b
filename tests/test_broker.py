import contextlib
import random
import socket
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from twinet import client as client_mod
from twinet.broker import Broker
from twinet.client import BrokerUnreachableError, MqttClient
from twinet.link import LinkEndpoint
from twinet.mqtt import (MAX_FRAME_BYTES, SPLIT_READ_BYTES, ConnAck, Connect,
                         PubAck, Publish, SubAck, Subscribe, TopicFilter,
                         encode_packet, encode_remaining_length, read_packet,
                         topic_matches, validate_filter)


def make_client(broker, name):
    client = MqttClient(name, broker.host, broker.port)
    client.connect()
    return client


def within(seconds, call):
    """Run ``call`` on a daemon thread and return its result, failing if it
    has not returned after ``seconds``: a call that hangs fails the test
    instead of hanging the suite."""
    outcome = {}

    def run():
        try:
            outcome["result"] = call()
        except Exception as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"still blocked after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def exchange_qos1(pub, sub, topic, payload):
    """Publish at QoS 1 and return what ``sub`` receives within 1 s."""
    pub.publish(topic, payload, qos=1)
    item = sub.poll(timeout=1.0)
    return None if item is None else bytes(item[1])


class TestSessionHandling:
    def test_connect_subscribe_ping(self, broker):
        c = make_client(broker, "ue1")
        c.subscribe("twin/#", 0)
        c.ping()
        c.close()

    def test_first_packet_must_be_connect(self, broker):
        from twinet.mqtt import encode_packet, PingReq
        sock = socket.create_connection((broker.host, broker.port))
        sock.sendall(b"".join(encode_packet(PingReq())))
        sock.settimeout(2.0)
        assert sock.recv(16) == b""  # broker closes without responding
        sock.close()

    def test_oversized_frame_header_closes_only_that_connection(self, broker):
        sub = make_client(broker, "sub")
        sub.subscribe("t/#", 1)
        with socket.create_connection((broker.host, broker.port)) as sock, \
             sock.makefile("rb") as stream:
            sock.sendall(b"".join(encode_packet(Connect("big"))))
            assert isinstance(read_packet(stream), ConnAck)
            # a PUBLISH header declaring 200 MB, and no body
            sock.sendall(b"\x30" + encode_remaining_length(200_000_000))
            sock.settimeout(1.0)
            assert sock.recv(16) == b""  # closed at once, not waiting for the body
        pub = make_client(broker, "pub")
        pub.publish("t/x", b"still routed", qos=1)
        item = sub.poll(timeout=2.0)
        assert item is not None and item[1] == b"still routed"
        sub.close(); pub.close()

    def test_duplicate_client_id_evicts_old_session(self, broker):
        old = make_client(broker, "dup")
        old.subscribe("t/#", 0)
        new = make_client(broker, "dup")
        new.subscribe("t/#", 0)
        pub = make_client(broker, "pub")
        pub.publish("t/x", b"m", qos=1)
        assert new.poll(timeout=2.0) is not None
        # the evicted session's socket is closed; reading it says so
        with pytest.raises(ConnectionError):
            within(2.0, lambda: old.poll(timeout=2.0))
        for c in (old, new, pub):
            c.close()


def closed_within(sock, seconds):
    """True iff the peer closes ``sock`` within ``seconds``; what it sends
    before that is read and dropped."""
    deadline = time.monotonic() + seconds
    try:
        while (left := deadline - time.monotonic()) > 0:
            sock.settimeout(left)
            if not sock.recv(65536):
                return True
    except ConnectionResetError:
        return True
    except TimeoutError:
        pass
    return False


class TestMalformedFrames:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(garbage=st.binary())
    def test_garbage_after_connect_closes_only_that_connection(self, broker,
                                                               monkeypatch,
                                                               garbage):
        # one broker serves every example, so what one leaves behind meets the next
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 2.0)
        sub = make_client(broker, "pair-sub")
        sub.subscribe("pair/#", 1)
        pub = make_client(broker, "pair-pub")
        try:
            with socket.create_connection((broker.host, broker.port)) as sock:
                try:  # the broker may close as soon as it reads a bad frame
                    sock.sendall(b"".join(encode_packet(Connect("fuzzed"))) + garbage)
                    sock.shutdown(socket.SHUT_WR)
                except (BrokenPipeError, ConnectionResetError):
                    pass
                assert closed_within(sock, 1.0)
            assert exchange_qos1(pub, sub, "pair/x", b"still routed") == b"still routed"
        finally:
            sub.close(); pub.close()


class TestRouting:
    def test_single_delivery_via_hash(self, broker):
        sub = make_client(broker, "sub")
        sub.subscribe("twin/#", 0)
        pub = make_client(broker, "pub")
        pub.publish("twin/state", b"hello")
        topic, payload, _, _ = sub.poll(timeout=2.0)
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
        assert [int(p) for _, p, _, _ in got] == list(range(count))
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


class TestCallerReads:
    def test_client_starts_no_thread(self, broker, monkeypatch):
        starters = []
        real_start = threading.Thread.start

        def recording_start(thread):
            starters.append(threading.current_thread())
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        sub = make_client(broker, "sub")
        sub.subscribe("t/#", 1)
        pub = make_client(broker, "pub")
        assert exchange_qos1(pub, sub, "t/x", b"m") == b"m"
        sub.ping()
        sub.close(); pub.close()
        # the broker's accept thread starts its connection threads
        assert threading.current_thread() not in starters

    def test_poll_raises_once_the_broker_closes_the_connection(self):
        broker = Broker(port=0)
        broker.start()
        client = make_client(broker, "c")
        broker.stop()
        start = time.monotonic()
        with pytest.raises(ConnectionError):
            within(5.0, lambda: client.poll(5.0))
        assert time.monotonic() - start < 1.0
        client.close()

    def test_a_kept_payload_keeps_its_bytes_while_later_frames_arrive(self, broker):
        sub = make_client(broker, "sub")
        sub.subscribe("t/#", 1)
        pub = make_client(broker, "pub")
        payloads = [bytes([i]) * 100_000 for i in range(3)]
        for payload in payloads:
            pub.publish("t/x", payload, qos=1)
        kept = sub.poll(timeout=2.0)[1]
        later = [bytes(sub.poll(timeout=2.0)[1]) for _ in range(2)]
        assert (kept, later) == (payloads[0], payloads[1:])
        sub.close(); pub.close()

    def test_8mb_envelope_between_endpoints_on_one_thread(self, broker,
                                                        monkeypatch):
        # One thread publishes, then polls the receiver. A broker that wrote
        # the delivery before the PUBACK would block on the receiver's full
        # socket, and the publish would wait for its ack until it timed out.
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 5.0)
        payload = random.Random(8).randbytes(8_000_000)
        with LinkEndpoint("rw", broker.host, broker.port) as rw, \
             LinkEndpoint("dt", broker.host, broker.port) as dt:
            dt.subscribe("rw/#")

            def send_and_receive():
                rw.publish_envelope("rw/traffic", "BenchPing", payload)
                return dt.poll_envelope(timeout=5.0)

            received = within(10, send_and_receive)
        assert received is not None and received.payload == payload


class TestSlowSubscriber:
    def test_subscriber_that_stops_reading_stalls_no_one_else(self, monkeypatch):
        # No broker fixture: its teardown would hang where stop() hangs.
        monkeypatch.setattr(client_mod, "CONNECT_RETRIES", 1)
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 2.0)
        broker = Broker(port=0)
        broker.start()
        stalled = socket.create_connection((broker.host, broker.port))
        clients = []
        flooded = []
        stop_flood = threading.Event()

        def flood(flooder, payload):
            try:
                for _ in range(64):
                    if stop_flood.is_set():
                        return
                    flooder.publish("t/x", payload)
                    flooded.append(1)
            except OSError:  # the broker stopped under it
                pass

        try:
            with stalled.makefile("rb") as stream:
                stalled.sendall(b"".join(encode_packet(Connect("stalled"))))
                assert isinstance(read_packet(stream), ConnAck)
                stalled.sendall(b"".join(encode_packet(Subscribe(1, (("t/#", 0),)))))
                assert isinstance(read_packet(stream), SubAck)
            # from here on nothing reads the stalled subscriber's socket
            sub = make_client(broker, "pair-sub")
            sub.subscribe("pair/#", 1)
            pub = make_client(broker, "pair-pub")
            flooder = make_client(broker, "flooder")
            clients += [sub, pub, flooder]
            flooding = threading.Thread(target=flood, args=(flooder, b"f" * (1 << 20)),
                                        daemon=True)
            flooding.start()
            seen, deadline = -1, time.monotonic() + 10.0
            while seen != len(flooded):  # until the flood makes no headway
                seen = len(flooded)
                assert time.monotonic() < deadline
                time.sleep(0.2)
            assert seen < 64, "the socket buffers took the whole flood"

            late = within(1.0, lambda: make_client(broker, "late"))
            clients.append(late)
            within(1.0, lambda: late.subscribe("late/#", 1))
            assert within(1.0, lambda: exchange_qos1(
                pub, sub, "pair/x", b"unrelated")) == b"unrelated"
            within(1.0, broker.stop)
            flooding.join(timeout=2.0)  # stop() also frees the stalled publisher
            assert not flooding.is_alive()
        finally:
            stalled.close()  # unblocks a broker that waits on this socket
            stop_flood.set()
            broker.stop()
            for client in clients:
                client.close()


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

    def test_interrupt_while_starting_still_writes_stats_csv(self, tmp_path,
                                                             monkeypatch):
        # A Ctrl-C that lands once the socket listens, while start() starts
        # the accept thread: the broker still stops and writes its stats.
        from twinet.broker import run_broker
        real_start = threading.Thread.start

        def interrupted_start(thread):
            if thread.name == "broker-accept":
                raise KeyboardInterrupt
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", interrupted_start)
        path = tmp_path / "stats.csv"
        with pytest.raises(KeyboardInterrupt):
            run_broker("127.0.0.1:0", stats_csv=str(path))
        assert path.read_text().startswith("counter,value\n")

    def test_connect_to_a_peer_that_never_acks_raises_after_retries(self,
                                                                     monkeypatch):
        monkeypatch.setattr(client_mod, "CONNECT_RETRIES", 2)
        monkeypatch.setattr(client_mod, "BACKOFF_S", 0.01)
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 0.2)
        # the kernel accepts the TCP connection; no CONNACK ever comes
        with socket.create_server(("127.0.0.1", 0)) as silent:
            client = MqttClient("x", *silent.getsockname())
            with pytest.raises(BrokerUnreachableError):
                within(1.0, client.connect)

    def test_qos1_publish_ends_by_its_deadline_while_packets_keep_arriving(
            self, monkeypatch):
        # a peer that streams PUBLISH frames without end and never acks
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 0.3)
        listener = socket.create_server(("127.0.0.1", 0))
        done = threading.Event()

        def stream_publishes():
            sock, _ = listener.accept()
            with sock, sock.makefile("rb") as stream:
                read_packet(stream)
                sock.sendall(b"".join(encode_packet(ConnAck(0))))
                burst = b"".join(encode_packet(Publish("t", b"x" * 10))) * 100
                with contextlib.suppress(OSError):
                    while not done.is_set():
                        sock.sendall(burst)

        peer = threading.Thread(target=stream_publishes, daemon=True)
        peer.start()
        client = MqttClient("c", *listener.getsockname())
        client.connect()
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="by its deadline"):
            within(3.0, lambda: client.publish("t", b"x", qos=1))
        elapsed = time.monotonic() - start
        done.set()
        client.close()
        peer.join(timeout=2.0)
        listener.close()
        assert not peer.is_alive()
        assert elapsed < 1.5

    def test_stop_returns_promptly(self):
        from twinet.broker import Broker
        b = Broker(port=0)
        b.start()
        client = make_client(b, "c")  # the accept thread is now blocked in accept()
        start = time.monotonic()
        b.stop()
        assert time.monotonic() - start < 0.5
        client.close()


class TestDeadConnection:
    @pytest.mark.parametrize("qos", [0, 1])
    def test_publish_meeting_an_unread_end_reconnects_and_delivers(self, broker,
                                                                  qos):
        sub = make_client(broker, "sub")
        sub.subscribe("t/#", 0)
        old = make_client(broker, "dup")
        evictor = make_client(broker, "dup")  # old's end arrives, nobody reads it
        old.publish("t/x", b"after", qos=qos)
        item = sub.poll(timeout=2.0)
        assert item is not None and bytes(item[1]) == b"after"
        for c in (sub, old, evictor):
            c.close()

    def test_peer_that_stops_mid_frame_ends_the_connection(self, monkeypatch):
        # a peer that sends half a frame and then neither sends nor closes
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 0.5)
        listener = socket.create_server(("127.0.0.1", 0))
        done = threading.Event()

        def serve_half_a_frame():
            sock, _ = listener.accept()
            with sock, sock.makefile("rb") as stream:
                read_packet(stream)
                frame = b"".join(encode_packet(Publish("t", b"x" * 100)))
                sock.sendall(b"".join(encode_packet(ConnAck(0))) + frame[:10])
                done.wait(5.0)

        peer = threading.Thread(target=serve_half_a_frame, daemon=True)
        peer.start()
        client = MqttClient("c", *listener.getsockname())
        client.connect()
        with pytest.raises(ConnectionError, match="peer stopped mid-frame"):
            within(3.0, lambda: client.poll(timeout=0.1))
        client.close()
        done.set()
        peer.join(timeout=2.0)
        assert not peer.is_alive()
        listener.close()

    @pytest.mark.parametrize("ending, message", [
        ("stall", "peer stopped mid-frame"), ("eof", "EOF inside publish payload")])
    def test_peer_that_ends_mid_payload_ends_the_connection(self, monkeypatch,
                                                            ending, message):
        # a frame whose payload is read apart, cut off inside that payload
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 0.3)
        listener = socket.create_server(("127.0.0.1", 0))
        done = threading.Event()

        def serve_part_of_a_payload():
            sock, _ = listener.accept()
            with sock, sock.makefile("rb") as stream:
                read_packet(stream)
                frame = b"".join(encode_packet(Publish("t", bytes(2 * SPLIT_READ_BYTES))))
                sock.sendall(b"".join(encode_packet(ConnAck(0)))
                             + frame[:SPLIT_READ_BYTES])
                if ending == "eof":
                    sock.shutdown(socket.SHUT_WR)
                done.wait(5.0)

        peer = threading.Thread(target=serve_part_of_a_payload, daemon=True)
        peer.start()
        client = MqttClient("c", *listener.getsockname())
        client.connect()
        start = time.monotonic()
        with pytest.raises(ConnectionError, match=message):
            within(3.0, lambda: client.poll(timeout=1.0))
        elapsed = time.monotonic() - start
        client.close()
        done.set()
        peer.join(timeout=2.0)
        assert not peer.is_alive()
        listener.close()
        # one receive timeout for the read that waits for the whole payload,
        # and one for the read of what it left
        assert elapsed < 2 * 0.3 + 0.3

    def test_header_over_max_frame_ends_the_connection_before_allocating(self):
        listener = socket.create_server(("127.0.0.1", 0))
        done = threading.Event()

        def serve_a_huge_header():
            sock, _ = listener.accept()
            with sock, sock.makefile("rb") as stream:
                read_packet(stream)
                sock.sendall(b"".join(encode_packet(ConnAck(0))) + b"\x30"
                             + encode_remaining_length(MAX_FRAME_BYTES) + b"\x00\x01t")
                done.wait(5.0)

        peer = threading.Thread(target=serve_a_huge_header, daemon=True)
        peer.start()
        client = MqttClient("c", *listener.getsockname())
        client.connect()
        tracemalloc.start()
        try:
            with pytest.raises(ConnectionError, match="MAX_FRAME_BYTES"):
                within(3.0, lambda: client.poll(timeout=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        client.close()
        done.set()
        peer.join(timeout=2.0)
        assert not peer.is_alive()
        listener.close()
        assert peak < 1 << 20  # no frame-sized buffer was allocated

    def test_pending_ack_fails_when_connection_drops(self):
        # a peer that accepts the session, then hangs up on the first publish
        listener = socket.create_server(("127.0.0.1", 0))

        def serve_then_hang_up():
            sock, _ = listener.accept()
            with sock, sock.makefile("rb") as stream:
                read_packet(stream)
                sock.sendall(b"".join(encode_packet(ConnAck(0))))
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
        # The broker closes old's socket before it acks the evictor's connect,
        # so old's end has arrived, unread, when the evictor is connected.
        evictor = make_client(broker, "dup")
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
                client.publish("t", str(i).encode(), qos=1)  # reconnects
                client.ping()
                evictor.close()
                assert time.monotonic() < deadline
            client.close()
        finally:
            sys.setswitchinterval(switch)


class TestConcurrentQos1:
    def test_own_publishes_complete_while_receiving_qos1(self, broker, monkeypatch):
        # This client's own publish reads the incoming QoS-1 publishes, and
        # PUBACKs them, while it waits for its PUBACK; neither may wait on
        # the other.
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
            for _ in range(20):
                assert receiver.poll(timeout=5.0) is not None, \
                    "the QoS-1 stream never arrived"
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

    def test_poll_and_publishes_share_one_client_across_threads(self, broker,
                                                                monkeypatch):
        # One thread polls while two publish at QoS 1 on the same client, to a
        # topic it subscribes to: each publish reads what arrives until its
        # PUBACK, and the poll waits outside the lock. None may be lost,
        # doubled or reordered per publisher.
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 5.0)
        client = make_client(broker, "shared")
        client.subscribe("loop/#", 1)
        got, errors = [], []

        def publish(name):
            try:
                for i in range(100):
                    client.publish(f"loop/{name}", b"%d" % i, qos=1)
            except (ConnectionError, TimeoutError) as exc:
                errors.append(exc)

        def poll():
            deadline = time.monotonic() + 20.0
            while len(got) < 200 and time.monotonic() < deadline:
                item = client.poll(timeout=0.1)
                if item is not None:
                    got.append((item[0], bytes(item[1])))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=poll),
                       *(threading.Thread(target=publish, args=(name,))
                         for name in "ab")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(switch)
            client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for name in "ab":
            assert [p for t, p in got if t == f"loop/{name}"] == \
                [b"%d" % i for i in range(100)]
        assert len(got) == 200

    def test_pubacks_of_a_backlog_go_out_in_one_write(self, broker, monkeypatch):
        # Acked one write each, a backlog of QoS-1 publishes is read no faster
        # than a QoS-1 publisher fills it, and the stream above never ends.
        receiver = make_client(broker, "rx")
        receiver.subscribe("in/#", 1)
        sender = make_client(broker, "tx")
        for i in range(50):
            sender.publish("in/x", b"%d" % i, qos=1)
        sender.ping()  # the broker has written all 50 deliveries by its reply
        writes = []
        write_frame = client_mod.write_frame

        def recording_write_frame(sock, buffers):
            writes.append(b"".join(buffers))
            return write_frame(sock, buffers)

        monkeypatch.setattr(client_mod, "write_frame", recording_write_frame)
        receiver.publish("out/x", b"mine", qos=1)  # reads the 50 before its ack
        got = [receiver.poll(timeout=2.0) for _ in range(50)]
        assert receiver.poll(timeout=0.05) is None
        receiver.close(); sender.close()
        assert [bytes(item[1]) for item in got] == [b"%d" % i for i in range(50)]
        assert writes[1] == b"".join(b"".join(encode_packet(PubAck(pid)))
                                     for pid in range(1, 51))
        assert len(writes) == 4  # the publish, the PUBACKs, two DISCONNECTs

    def test_pubacks_of_a_lost_connection_are_not_sent_on_the_next(self, broker,
                                                                   monkeypatch):
        monkeypatch.setattr(client_mod, "ACK_TIMEOUT_S", 2.0)
        old = make_client(broker, "dup")
        old.subscribe("in/#", 1)
        sender = make_client(broker, "tx")
        sender.publish("in/x", b"a", qos=1)
        sender.ping()  # the delivery is in old's socket, unread, by the reply
        writes = []
        write_frame = client_mod.write_frame

        def recording_write_frame(sock, buffers):
            writes.append(b"".join(buffers))
            return write_frame(sock, buffers)

        monkeypatch.setattr(client_mod, "write_frame", recording_write_frame)
        evictor = make_client(broker, "dup")
        # reads the delivery, queueing its PUBACK, then the end; reconnects,
        # subscribes again and sends
        old.publish("out/x", b"b", qos=1)
        item = old.poll(timeout=2.0)
        for c in (old, evictor, sender):
            c.close()
        assert item is not None and bytes(item[1]) == b"a"
        assert writes and not any(write.startswith(b"\x40") for write in writes)

    def test_ping_and_qos1_publish_on_one_client_keep_their_own_acks(self, broker,
                                                                     monkeypatch):
        # A ping and a QoS-1 publish read one socket; each must wait for its
        # own ack under the client's lock, or one takes the other's.
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

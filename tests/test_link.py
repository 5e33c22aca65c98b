import random
import threading
import time

import pytest
from hypothesis import given, strategies as st

from twinet import link as link_mod
from twinet.link import (
    BENCH_MAX_SIZE,
    EnvelopeError,
    LinkEndpoint,
    MessageEnvelope,
    TwinService,
    decode_envelope,
    encode_envelope,
    run_latency_bench,
)
from twinet import client as client_mod
from twinet.client import BrokerUnreachableError
from twinet.mqtt import (MAX_FRAME_BYTES, BadTopicError, Publish, decode_packet,
                         encode_packet)


def envelopes():
    return st.builds(
        MessageEnvelope,
        topic=st.sampled_from(["rw/traffic", "dt/eval/result", "bench/ping/rw2dt"]),
        seq=st.integers(0, 2**31),
        sent_at=st.integers(0, 2**53),
        kind=st.sampled_from([
            "TrafficUpdate", "EvalRequest", "EvalResult", "ModelRequest",
            "ModelArtifactMsg", "BenchPing", "BenchPong",
        ]),
        payload=st.binary(max_size=128),
    )


def header(magic=b"TW", version=2, kind=5, seq=0, sent_at=1):
    return (magic + bytes([version, kind]) + seq.to_bytes(8, "big")
            + sent_at.to_bytes(8, "big"))


class TestEnvelopeCodec:
    def test_golden_header_bytes(self):
        env = MessageEnvelope("t/x", 258, 2**40 + 3, "EvalResult", b"hi")
        head, payload = encode_envelope(env)
        assert payload is env.payload  # sent as it is, never joined to the head
        assert head + payload == (
            b"TW\x02\x02"                          # magic, version, kind index
            b"\x00\x00\x00\x00\x00\x00\x01\x02"  # seq u64
            b"\x00\x00\x01\x00\x00\x00\x00\x03"  # sent_at u64
            b"hi"                                  # raw payload
        )

    def test_wire_size_is_payload_plus_header_and_topic(self):
        # the topic travels once, in the PUBLISH: 1 B type, 1-2 B remaining
        # length, the topic with its 2 B length, the 2 B packet id
        for size in (0, 1, 1000):
            env = MessageEnvelope("rw/traffic", 0, 1, "BenchPing", b"x" * size)
            head, payload = encode_envelope(env)
            assert len(head) + len(payload) == size + 20
            frame = b"".join(encode_packet(Publish(env.topic, payload, 1, 1, head)))
            length_bytes = 1 if size + 20 + 14 < 128 else 2
            assert len(frame) == size + 20 + 1 + length_bytes + 2 + len("rw/traffic") + 2

    @given(envelopes())
    def test_round_trip(self, env):
        assert decode_envelope(env.topic, *encode_envelope(env)) == env

    @given(st.one_of(st.binary(max_size=64),
                     st.binary(max_size=64).map(lambda tail: b"TW\x02" + tail)))
    def test_arbitrary_bytes_raise_only_envelope_error(self, data):
        try:
            decode_envelope("t", data[:20], data[20:])
        except EnvelopeError:
            pass

    def test_short_header_rejected(self):
        with pytest.raises(EnvelopeError, match="header truncated"):
            decode_envelope("t", header()[:19], b"")

    def test_bad_magic_rejected(self):
        with pytest.raises(EnvelopeError, match="magic"):
            decode_envelope("t", header(magic=b"TX"), b"p")

    def test_bad_version_rejected(self):
        # a version 1 envelope, whose header carried the topic
        with pytest.raises(EnvelopeError, match="version 1"):
            decode_envelope("t", header(version=1), b"\x00\x01tp")

    def test_unknown_kind_rejected(self):
        with pytest.raises(EnvelopeError, match="kind index"):
            decode_envelope("t", header(kind=7), b"p")

    def test_header_ending_inside_sent_at_rejected(self):
        with pytest.raises(EnvelopeError, match="header truncated"):
            decode_envelope("t", header()[:15], b"")

    def test_non_utf8_topic_rejected(self):
        # the envelope's topic is the PUBLISH's, which its decoder checks
        frame = b"\x30\x05\x00\x02\xff\xfe" + b"p"
        with pytest.raises(BadTopicError, match="UTF-8"):
            decode_packet(frame, prefix_size=20)

    def test_json_envelope_rejected(self):
        # the JSON+base64 envelope that version 2 replaced
        data = (b'{"topic":"t","seq":0,"sent_at":1,'
                b'"kind":"BenchPing","payload_b64":"@@"}')
        with pytest.raises(EnvelopeError):
            decode_envelope("t", data[:20], data[20:])

    def test_decoded_envelope_keeps_the_payload_it_was_given(self):
        payload = b"rates"
        env = decode_envelope("rw/traffic", header(kind=0, seq=3, sent_at=5), payload)
        assert env.payload is payload
        assert (env.topic, env.seq, env.sent_at, env.kind) == (
            "rw/traffic", 3, 5, "TrafficUpdate")

    def test_largest_bench_payload_fills_one_frame(self):
        for topic in ("bench/ping/rw2dt", "bench/ping/dt2rw"):
            def frame_bytes(size):
                head, payload = encode_envelope(
                    MessageEnvelope(topic, 0, 1, "BenchPing", bytes(size)))
                return sum(map(len, encode_packet(
                    Publish(topic, payload, 1, 1, head))))
            assert frame_bytes(BENCH_MAX_SIZE) == MAX_FRAME_BYTES
            with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
                frame_bytes(BENCH_MAX_SIZE + 1)

    @pytest.mark.parametrize("field, value", [
        ("seq", -1), ("seq", 2**64), ("sent_at", -1), ("sent_at", 2**64),
        ("topic", "t" * 65_536), ("topic", "\udcff"), ("kind", "Bogus"),
    ])
    def test_out_of_range_field_rejected_on_encode(self, field, value):
        # the topic is the PUBLISH's, so the MQTT encoder refuses a bad one
        env = MessageEnvelope("t", 0, 1, "BenchPing", b"")
        setattr(env, field, value)
        with pytest.raises(ValueError if field == "topic" else EnvelopeError):
            head, payload = encode_envelope(env)
            encode_packet(Publish(env.topic, payload, 1, 1, head))


class TestLinkEndpoint:
    def test_publish_then_poll(self, broker):
        with LinkEndpoint("rw", broker.host, broker.port) as rw, \
             LinkEndpoint("dt", broker.host, broker.port) as dt:
            dt.subscribe("rw/#")
            rw.publish_envelope("rw/traffic", "TrafficUpdate", b"p")
            env = dt.poll_envelope(timeout=2.0)
            assert env is not None and env.kind == "TrafficUpdate"
            assert env.recv_at is not None and env.recv_at >= env.sent_at

    def test_seq_increments_and_order(self, broker):
        with LinkEndpoint("rw", broker.host, broker.port) as rw, \
             LinkEndpoint("dt", broker.host, broker.port) as dt:
            dt.subscribe("rw/#")
            first = rw.publish_envelope("rw/traffic", "TrafficUpdate", b"0")
            second = rw.publish_envelope("rw/traffic", "TrafficUpdate", b"1")
            assert second.seq == first.seq + 1
            got = [dt.poll_envelope(timeout=2.0) for _ in range(2)]
            assert [e.payload for e in got] == [b"0", b"1"]
            assert dt.gap_count == 0

    def test_sent_at_assigned_at_publish_time(self, broker):
        with LinkEndpoint("rw", broker.host, broker.port) as rw:
            before = time.time_ns() // 1_000
            env = rw.publish_envelope("rw/traffic", "TrafficUpdate", b"")
            after = time.time_ns() // 1_000
            assert before <= env.sent_at <= after

    def test_kind_filter_skips_other_kinds_and_counts_their_gaps(self, broker):
        with LinkEndpoint("rw", broker.host, broker.port) as rw, \
             LinkEndpoint("dt", broker.host, broker.port) as dt:
            dt.subscribe("rw/#")
            rw.publish_envelope("rw/traffic", "TrafficUpdate", b"0")
            rw._next_seq["rw/traffic"] = 5  # the next update skips seq 1-4
            rw.publish_envelope("rw/traffic", "TrafficUpdate", b"5")
            rw.publish_envelope("rw/request", "EvalRequest", b"r")
            env = dt.poll_envelope(2.0, "EvalRequest")
            assert env is not None and env.payload == b"r"
            assert dt.gap_count == 4
            assert dt.poll_envelope(0.2) is None

    def test_two_kinds_on_one_topic_count_no_gap(self, broker):
        # publish_envelope numbers per topic, whatever the kind
        with LinkEndpoint("rw", broker.host, broker.port) as rw, \
             LinkEndpoint("dt", broker.host, broker.port) as dt:
            dt.subscribe("rw/#")
            for kind in ("TrafficUpdate", "EvalRequest", "TrafficUpdate"):
                rw.publish_envelope("rw/traffic", kind, b"x")
            got = [dt.poll_envelope(timeout=2.0) for _ in range(3)]
            assert [e.seq for e in got] == [0, 1, 2]
            assert dt.gap_count == 0

    def test_kind_filter_keeps_one_deadline_while_other_kinds_arrive(self, broker):
        stop = threading.Event()
        with LinkEndpoint("rw", broker.host, broker.port) as rw, \
             LinkEndpoint("dt", broker.host, broker.port) as dt:
            dt.subscribe("rw/#")
            with pytest.raises(EnvelopeError):  # a misspelt kind never waits
                dt.poll_envelope(5.0, "EvalReqest")

            def publish_others():  # for 3 s at most, so no run hangs
                for _ in range(300):
                    if stop.wait(0.01):
                        return
                    rw.publish_envelope("rw/traffic", "TrafficUpdate", b"x")

            publisher = threading.Thread(target=publish_others, daemon=True)
            publisher.start()
            start = time.monotonic()
            try:
                assert dt.poll_envelope(0.3, "EvalRequest") is None
                elapsed = time.monotonic() - start
            finally:
                stop.set()
                publisher.join(timeout=5.0)
        assert not publisher.is_alive()
        assert 0.3 <= elapsed < 2.0

    def test_malformed_message_dropped_and_counted(self, broker):
        with LinkEndpoint("rw", broker.host, broker.port) as rw, \
             LinkEndpoint("dt", broker.host, broker.port) as dt:
            dt.subscribe("rw/#")
            rw.client.publish("rw/traffic", b"\x00garbage", qos=1)
            rw.publish_envelope("rw/traffic", "TrafficUpdate", b"ok")
            env = dt.poll_envelope(timeout=2.0)
            assert env is not None and env.payload == b"ok"
            assert dt.decode_errors == 1

    def test_version_1_envelope_dropped_and_counted(self, broker):
        # the version 1 layout: a 22 B header ending in the topic length, then
        # the topic, then the payload
        v1 = header(version=1, kind=0) + b"\x00\x0arw/traffic" + b"\x00" * 8
        with LinkEndpoint("rw", broker.host, broker.port) as rw, \
             LinkEndpoint("dt", broker.host, broker.port) as dt:
            dt.subscribe("rw/#")
            rw.client.publish("rw/traffic", v1, qos=1)
            rw.publish_envelope("rw/traffic", "TrafficUpdate", b"ok")
            env = dt.poll_envelope(timeout=2.0)
            assert env is not None and env.payload == b"ok"
            assert dt.decode_errors == 1

    def test_broker_killed_surfaces_error(self, monkeypatch):
        from twinet.broker import Broker
        monkeypatch.setattr(client_mod, "CONNECT_RETRIES", 2)
        monkeypatch.setattr(client_mod, "BACKOFF_S", 0.01)
        b = Broker(port=0)
        b.start()
        link = LinkEndpoint("rw", b.host, b.port)
        link.connect()
        start = time.monotonic()
        b.stop()
        with pytest.raises((BrokerUnreachableError, ConnectionError, OSError)):
            for _ in range(20):  # the dead socket may absorb a few sends
                link.publish_envelope("rw/traffic", "TrafficUpdate", b"x")
        assert time.monotonic() - start < 2.0


# The envelope of an empty TrafficUpdate, seq 0, sent_at 2**40 + 3.
_TRAFFIC_ENVELOPE = b"TW\x02\x00" + bytes(8) + b"\x00\x00\x01\x00\x00\x00\x00\x03"
# Whole frames on rw/traffic by (qos, payload size), the payload being
# bytes(range(size)).
_GOLDEN_FRAMES = {
    (0, 0): b"\x30\x20\x00\x0arw/traffic" + _TRAFFIC_ENVELOPE,
    (1, 0): b"\x32\x22\x00\x0arw/traffic\x00\x01" + _TRAFFIC_ENVELOPE,
    (0, 100): b"\x30\x84\x01\x00\x0arw/traffic" + _TRAFFIC_ENVELOPE + bytes(range(100)),
    (1, 100): (b"\x32\x86\x01\x00\x0arw/traffic\x00\x01" + _TRAFFIC_ENVELOPE
               + bytes(range(100))),
}


class TestCopyFreeSend:
    @pytest.mark.parametrize("size", [0, 100, 1_000_000])
    @pytest.mark.parametrize("qos", [0, 1])
    def test_payload_reaches_the_socket_write_as_it_is(self, broker, monkeypatch,
                                                       qos, size):
        writes = []
        write_frame = client_mod.write_frame

        def recording_write_frame(sock, buffers):
            writes.append(list(buffers))
            return write_frame(sock, buffers)

        payload = (bytes(range(100)) if size == 100
                   else random.Random(size).randbytes(size))
        monkeypatch.setattr(link_mod, "now_us", lambda: 2**40 + 3)
        with LinkEndpoint("rw", broker.host, broker.port, qos=qos) as rw, \
             LinkEndpoint("dt", broker.host, broker.port, qos=qos) as dt:
            dt.subscribe("rw/#")
            monkeypatch.setattr(client_mod, "write_frame", recording_write_frame)
            sent = rw.publish_envelope("rw/traffic", "TrafficUpdate", payload)
            received = dt.poll_envelope(timeout=5.0)
        assert received is not None and received.payload == payload
        (buffers,) = [b for b in writes if len(b) == 2]  # the one PUBLISH sent
        assert buffers[-1] is payload
        frame = b"".join(buffers)
        # the frame a joined envelope makes, byte for byte
        joined = Publish("rw/traffic", b"".join(encode_envelope(sent)), qos,
                         1 if qos else None)
        assert frame == b"".join(encode_packet(joined))
        if size <= 100:
            assert frame == _GOLDEN_FRAMES[qos, size]


class TestLatencyBench:
    def test_small_bench_reports(self, broker):
        reports = run_latency_bench(broker.host, broker.port,
                                    sizes=(1, 1000), samples_per_size=10,
                                    rng=random.Random(1))
        assert len(reports) == 4  # 2 sizes x 2 directions
        for report in reports:
            assert len(report.samples_ms) + report.discarded == 10
            assert all(s >= 0 for s in report.samples_ms)
            assert min(report.samples_ms) <= report.mean_ms <= max(report.samples_ms)
            row = report.to_row()
            assert set(row) == {"size_bytes", "direction", "mean_ms",
                                "p50_ms", "p99_ms", "n"}

    @pytest.mark.parametrize("cpu_clock, retakes", [
        (lambda: 0, link_mod.BENCH_RETAKES),  # stands still: all look stolen
        (time.perf_counter_ns, 0),            # keeps pace with the wall clock
    ], ids=["cpu_away", "cpu_kept"])
    def test_sample_taken_again_while_the_cpu_is_away(self, broker, monkeypatch,
                                                      cpu_clock, retakes):
        monkeypatch.setattr(link_mod.time, "process_time_ns", cpu_clock)
        reports = run_latency_bench(broker.host, broker.port,
                                    sizes=(1, 1000), samples_per_size=4,
                                    rng=random.Random(1))
        for report in reports:
            assert report.retaken == 4 * retakes
            assert len(report.samples_ms) + report.discarded == 4


class TestTwinService:
    def test_publish_on_a_served_endpoint_is_not_held_up(self, broker):
        # the service thread polls the same client in 0.1 s slices
        class IdleService(TwinService):
            request_kind = "EvalRequest"

        with LinkEndpoint("dt", broker.host, broker.port) as dt, \
             LinkEndpoint("rw", broker.host, broker.port) as rw:
            rw.subscribe("dt/#")
            with IdleService(dt, "rw/request").serving():
                time.sleep(0.05)  # let the service enter its first poll
                for i in range(20):
                    start = time.monotonic()
                    dt.publish_envelope("dt/result", "EvalResult", b"%d" % i)
                    assert time.monotonic() - start < 1.0, f"publish {i}"
            got = [rw.poll_envelope(timeout=2.0) for _ in range(20)]
        assert [env.payload for env in got] == [b"%d" % i for i in range(20)]

    def test_close_wakes_a_poll_waiting_in_another_thread(self, broker,
                                                           monkeypatch):
        outcome = []
        with LinkEndpoint("dt", broker.host, broker.port) as dt:
            dt.subscribe("rw/#")
            # no DISCONNECT goes out, so the broker does not end the connection
            monkeypatch.setattr(dt.client, "_send", lambda packet: None)

            def poll():
                try:
                    outcome.append(dt.client.poll(5.0))
                except ConnectionError as exc:
                    outcome.append(exc)

            poller = threading.Thread(target=poll, daemon=True)
            poller.start()
            time.sleep(0.1)
            start = time.monotonic()
            dt.close()
            poller.join(timeout=5.0)
            elapsed = time.monotonic() - start
        assert not poller.is_alive()
        assert elapsed < 1.0
        assert isinstance(outcome[0], ConnectionError)

    def test_serving_raises_when_the_thread_does_not_stop(self, broker,
                                                          monkeypatch):
        monkeypatch.setattr(link_mod, "SERVICE_JOIN_TIMEOUT_S", 0.1)
        release = threading.Event()

        class StuckService(TwinService):
            def run(self, stop):
                release.wait(5.0)

        with LinkEndpoint("dt", broker.host, broker.port) as dt:
            service = StuckService(dt, "bench/stuck")
            try:
                with pytest.raises(RuntimeError, match="did not stop"):
                    with service.serving():
                        pass
            finally:
                release.set()

    def test_serving_reraises_what_ended_run(self):
        from twinet.broker import Broker

        class DeadLinkService(TwinService):
            request_kind = "EvalRequest"

        b = Broker(port=0)
        b.start()
        with LinkEndpoint("dt", b.host, b.port) as dt:
            service = DeadLinkService(dt, "rw/request")
            with pytest.raises(ConnectionError):
                with service.serving():
                    b.stop()  # the service's next poll reads the end of its link
                    deadline = time.monotonic() + 2.0
                    while any(t.name == "DeadLinkService"
                              for t in threading.enumerate()):
                        assert time.monotonic() < deadline, "run never ended"
                        time.sleep(0.01)

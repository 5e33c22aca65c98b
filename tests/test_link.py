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
from twinet.mqtt import MAX_FRAME_BYTES, Publish, encode_packet


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


def header(magic=b"TW", version=1, kind=5, seq=0, sent_at=1, topic_len=1):
    return (magic + bytes([version, kind]) + seq.to_bytes(8, "big")
            + sent_at.to_bytes(8, "big") + topic_len.to_bytes(2, "big"))


class TestEnvelopeCodec:
    def test_golden_header_bytes(self):
        env = MessageEnvelope("t/x", 258, 2**40 + 3, "EvalResult", b"hi")
        head, payload = encode_envelope(env)
        assert payload is env.payload  # sent as it is, never joined to the head
        assert head + payload == (
            b"TW\x01\x02"                          # magic, version, kind index
            b"\x00\x00\x00\x00\x00\x00\x01\x02"  # seq u64
            b"\x00\x00\x01\x00\x00\x00\x00\x03"  # sent_at u64
            b"\x00\x03t/x"                         # topic length u16, topic
            b"hi"                                  # raw payload
        )

    def test_wire_size_is_payload_plus_header_and_topic(self):
        for size in (0, 1, 1000):
            env = MessageEnvelope("rw/traffic", 0, 1, "BenchPing", b"x" * size)
            assert sum(map(len, encode_envelope(env))) == size + 22 + len("rw/traffic")

    @given(envelopes())
    def test_round_trip(self, env):
        assert decode_envelope(b"".join(encode_envelope(env))) == env

    @given(st.one_of(st.binary(max_size=64),
                     st.binary(max_size=64).map(lambda tail: b"TW\x01" + tail)))
    def test_arbitrary_bytes_raise_only_envelope_error(self, data):
        try:
            decode_envelope(data)
        except EnvelopeError:
            pass

    def test_short_header_rejected(self):
        with pytest.raises(EnvelopeError, match="header truncated"):
            decode_envelope(header()[:21])

    def test_bad_magic_rejected(self):
        with pytest.raises(EnvelopeError, match="magic"):
            decode_envelope(header(magic=b"TX") + b"t")

    def test_bad_version_rejected(self):
        with pytest.raises(EnvelopeError, match="version"):
            decode_envelope(header(version=2) + b"t")

    def test_unknown_kind_rejected(self):
        with pytest.raises(EnvelopeError, match="kind index"):
            decode_envelope(header(kind=7) + b"t")

    def test_missing_key_rejected(self):
        # the binary counterpart of a missing key: the topic is cut short
        with pytest.raises(EnvelopeError, match="topic truncated"):
            decode_envelope(header(topic_len=4) + b"t/x")

    def test_non_utf8_topic_rejected(self):
        with pytest.raises(EnvelopeError, match="UTF-8"):
            decode_envelope(header(topic_len=2) + b"\xff\xfe")

    def test_bad_base64_rejected(self):
        # a legacy JSON envelope is not a binary envelope
        with pytest.raises(EnvelopeError):
            decode_envelope(b'{"topic":"t","seq":0,"sent_at":1,'
                            b'"kind":"BenchPing","payload_b64":"@@"}')

    def test_decoding_a_view_copies_the_payload_out_as_bytes(self):
        frame = bytearray(b"".join(encode_envelope(
            MessageEnvelope("rw/traffic", 3, 5, "TrafficUpdate", b"rates"))))
        env = decode_envelope(memoryview(frame).toreadonly())
        assert type(env.payload) is bytes and env.payload == b"rates"
        frame[-5:] = b"RATES"  # the frame's buffer is reused; the envelope keeps its copy
        assert env.payload == b"rates"

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
        env = MessageEnvelope("t", 0, 1, "BenchPing", b"")
        setattr(env, field, value)
        with pytest.raises(EnvelopeError):
            encode_envelope(env)


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


# The envelope of an empty TrafficUpdate on rw/traffic, seq 0, sent_at 2**40 + 3.
_TRAFFIC_ENVELOPE = (b"TW\x01\x00" + bytes(8) + b"\x00\x00\x01\x00\x00\x00\x00\x03"
                     b"\x00\x0arw/traffic")
# Whole frames by (qos, payload size), the payload being bytes(range(size)).
_GOLDEN_FRAMES = {
    (0, 0): b"\x30\x2c\x00\x0arw/traffic" + _TRAFFIC_ENVELOPE,
    (1, 0): b"\x32\x2e\x00\x0arw/traffic\x00\x01" + _TRAFFIC_ENVELOPE,
    (0, 100): b"\x30\x90\x01\x00\x0arw/traffic" + _TRAFFIC_ENVELOPE + bytes(range(100)),
    (1, 100): (b"\x32\x92\x01\x00\x0arw/traffic\x00\x01" + _TRAFFIC_ENVELOPE
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

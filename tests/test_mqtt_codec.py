import io
import random
import socket
import struct
import threading

import pytest
from hypothesis import given, strategies as st

from twinet.mqtt import (
    MAX_FRAME_BYTES,
    SPLIT_READ_BYTES,
    ConnAck,
    Connect,
    Disconnect,
    FrameReader,
    FrameTooLargeError,
    LengthMismatchError,
    MalformedVarintError,
    PingReq,
    PingResp,
    PubAck,
    Publish,
    StalledFrameError,
    SubAck,
    Subscribe,
    TruncatedFrameError,
    UnknownPacketTypeError,
    BadTopicError,
    decode_packet,
    decode_remaining_length,
    encode_packet,
    encode_remaining_length,
    read_packet,
    write_frame,
)

MAX_REMAINING = 268_435_455
# An envelope header, as the link sends it in a publish's head.
ENVELOPE_HEAD = b"TW\x02\x05" + bytes(16)


class TestRemainingLength:
    def test_zero(self):
        assert encode_remaining_length(0) == b"\x00"

    def test_continuation_boundary(self):
        assert encode_remaining_length(127) == b"\x7f"
        assert encode_remaining_length(128) == b"\x80\x01"

    def test_max_is_four_bytes(self):
        assert encode_remaining_length(MAX_REMAINING) == b"\xff\xff\xff\x7f"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_remaining_length(-1)
        with pytest.raises(ValueError):
            encode_remaining_length(MAX_REMAINING + 1)

    def test_round_trip_random(self):
        rng = random.Random(42)
        for _ in range(10_000):
            n = rng.randrange(MAX_REMAINING + 1)
            encoded = encode_remaining_length(n)
            assert len(encoded) <= 4
            # minimality: no redundant trailing continuation
            assert encoded[-1] & 0x80 == 0
            if len(encoded) > 1:
                assert encoded[-1] != 0
            value, consumed = decode_remaining_length(encoded)
            assert (value, consumed) == (n, len(encoded))

    def test_decode_truncated(self):
        with pytest.raises(TruncatedFrameError):
            decode_remaining_length(b"\x80")

    def test_decode_overlong(self):
        with pytest.raises(MalformedVarintError):
            decode_remaining_length(b"\x80\x80\x80\x80\x01")


def topic_names():
    level = st.text(alphabet="abcxyz09-_", min_size=1, max_size=6)
    return st.lists(level, min_size=1, max_size=5).map("/".join)


def packets():
    return st.one_of(
        st.builds(Connect, client_id=st.text(alphabet="abc123", min_size=1,
                                             max_size=12)),
        st.builds(ConnAck, return_code=st.integers(0, 5)),
        st.builds(
            Publish,
            topic=topic_names(),
            payload=st.binary(max_size=64),
            qos=st.just(0),
        ),
        st.builds(
            Publish,
            topic=topic_names(),
            payload=st.binary(max_size=64),
            qos=st.just(1),
            packet_id=st.integers(1, 0xFFFF),
        ),
        st.builds(PubAck, packet_id=st.integers(1, 0xFFFF)),
        st.builds(
            Subscribe,
            packet_id=st.integers(1, 0xFFFF),
            filters=st.lists(
                st.tuples(topic_names(), st.integers(0, 1)),
                min_size=1, max_size=4,
            ).map(tuple),
        ),
        st.builds(
            SubAck,
            packet_id=st.integers(1, 0xFFFF),
            granted=st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
        ),
        st.just(PingReq()),
        st.just(PingResp()),
        st.just(Disconnect()),
    )


class TestPacketCodec:
    def test_pingreq_fixed_frame(self):
        assert b"".join(encode_packet(PingReq())) == b"\xc0\x00"

    def test_publish_layout(self):
        frame = b"".join(encode_packet(Publish("a/b", b"hi", qos=0)))
        assert frame[0] == 0x30
        assert frame[1] == 7  # 2-byte topic length prefix + "a/b" + 2-byte payload
        assert frame[2:4] == b"\x00\x03"
        assert frame[4:7] == b"a/b"
        assert frame[7:] == b"hi"

    @given(packets())
    def test_round_trip(self, packet):
        assert decode_packet(b"".join(encode_packet(packet))) == packet

    def test_qos_packet_id_invariant(self):
        with pytest.raises(ValueError):
            Publish("a", b"", qos=1)
        with pytest.raises(ValueError):
            Publish("a", b"", qos=0, packet_id=3)

    def test_wildcard_topic_rejected(self):
        with pytest.raises(BadTopicError):
            encode_packet(Publish("a/+/b", b"", qos=0))

    def test_unknown_type(self):
        with pytest.raises(UnknownPacketTypeError):
            decode_packet(b"\x00\x00")

    def test_length_mismatch(self):
        frame = bytearray(b"".join(encode_packet(Publish("a", b"xy", qos=0))))
        frame[1] += 1
        with pytest.raises((LengthMismatchError, TruncatedFrameError)):
            decode_packet(bytes(frame))

    def test_bad_utf8_topic(self):
        # publish frame whose topic bytes are invalid UTF-8
        body = b"\x00\x02\xff\xfe" + b"payload"
        frame = bytes([0x30]) + encode_remaining_length(len(body)) + body
        with pytest.raises(BadTopicError):
            decode_packet(frame)

    def test_empty_input(self):
        with pytest.raises(TruncatedFrameError):
            decode_packet(b"")


class OneByteStream(io.RawIOBase):
    """A blocking stream that hands out at most one byte per call."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        return self._data.readinto(memoryview(buffer)[:1])


class StallingStream(OneByteStream):
    """Hands out its bytes one per call, then returns None, as a read of an
    unbuffered socket stream does once its receive timeout runs out."""

    def readinto(self, buffer) -> int | None:
        return super().readinto(buffer) or None


class TestReadPacket:
    def test_one_byte_reads_assemble_frames(self):
        packets = [Publish("a/b", bytes(range(256)) * 4, qos=1, packet_id=9),
                   PingReq(), Publish("c", b"", qos=0)]
        stream = OneByteStream(b"".join(b"".join(encode_packet(p)) for p in packets))
        assert [read_packet(stream) for _ in packets] == packets
        assert read_packet(stream) is None  # clean EOF at a frame boundary

    def test_eof_mid_body_raises(self):
        frame = b"".join(encode_packet(Publish("a/b", b"x" * 300, qos=0)))
        with pytest.raises(TruncatedFrameError):
            read_packet(OneByteStream(frame[:-1]))

    def test_eof_inside_remaining_length_raises(self):
        frame = b"".join(encode_packet(Publish("a/b", b"x" * 300, qos=0)))
        with pytest.raises(TruncatedFrameError):
            read_packet(OneByteStream(frame[:2]))  # varint continues past byte 2

    @pytest.mark.parametrize("cut, where", [
        (0, "before a frame began"),
        (2, "inside remaining length"),  # the varint continues past byte 2
        (-1, "inside packet body"),
    ])
    def test_read_that_times_out_raises_stalled_frame(self, cut, where):
        frame = b"".join(encode_packet(Publish("a/b", b"x" * 300, qos=0)))
        with pytest.raises(StalledFrameError, match=where):
            read_packet(StallingStream(frame[:cut]))

    def test_header_over_max_frame_raises_before_allocating(self):
        # Only the header arrives; a reader that allocated first would wait for
        # (here: run out of) a 200 MB body and raise TruncatedFrameError.
        header = b"\x30" + encode_remaining_length(200_000_000)
        with pytest.raises(FrameTooLargeError):
            read_packet(OneByteStream(header))


    def test_reader_reuses_its_buffer_for_every_frame(self):
        packets = [Publish("a/b", bytes([i]) * 300, qos=0) for i in range(3)]
        packets.append(Publish("a/b", b"\x03" * 600, qos=0))
        reader = FrameReader(OneByteStream(
            b"".join(b"".join(encode_packet(p)) for p in packets)))
        payloads = [reader.read_packet().payload for _ in range(3)]
        assert payloads[0].obj is payloads[1].obj is payloads[2].obj
        # each read overwrites the buffer: a caller that keeps a payload copies it
        assert payloads[0] == b"\x02" * 300
        grown = reader.read_packet().payload  # a larger frame: a larger buffer
        assert grown.obj is not payloads[0].obj and grown == b"\x03" * 600

    def test_prefix_is_split_off_as_bytes(self):
        packet = Publish("a/b", b"payload", qos=1, packet_id=4, prefix=ENVELOPE_HEAD)
        frame = b"".join(encode_packet(packet))
        decoded = FrameReader(OneByteStream(frame), prefix_size=20).read_packet()
        assert decoded == packet and type(decoded.prefix) is bytes
        short = FrameReader(OneByteStream(b"".join(encode_packet(Publish("t", b"abc")))),
                            prefix_size=20).read_packet()
        assert (short.prefix, short.payload) == (b"abc", b"")


def _socket_reader(prefix_size: int = 0):
    """A reader on one end of a socket pair, as the client reads, and the
    other end to write to."""
    ours, theirs = socket.socketpair()
    return FrameReader(ours.makefile("rb", buffering=0), prefix_size, ours), ours, theirs


class TestSplitRead:
    @pytest.mark.parametrize("size", [SPLIT_READ_BYTES - 100, SPLIT_READ_BYTES,
                                      SPLIT_READ_BYTES + 1, 1_000_000])
    @pytest.mark.parametrize("qos", [0, 1])
    def test_payload_over_the_threshold_arrives_as_bytes_of_its_own(self, qos, size):
        reader, ours, theirs = _socket_reader(prefix_size=20)
        payload = random.Random(size).randbytes(size)
        packet = Publish("bench/ping/rw2dt", payload, qos, 7 if qos else None,
                         ENVELOPE_HEAD)
        frame = encode_packet(packet)
        with ours, theirs, reader.stream:
            writer = threading.Thread(target=write_frame, args=(theirs, frame))
            writer.start()
            decoded = reader.read_packet()
            writer.join(timeout=5.0)
        assert not writer.is_alive()
        assert decoded == packet and decoded.prefix == ENVELOPE_HEAD
        frame_size = sum(map(len, frame))
        split = frame_size > SPLIT_READ_BYTES
        assert isinstance(decoded.payload, bytes if split else memoryview)

    @pytest.mark.parametrize("cut, error", [
        ("eof", TruncatedFrameError), ("stall", StalledFrameError)])
    def test_payload_cut_short_raises_a_typed_error(self, cut, error):
        reader, ours, theirs = _socket_reader()
        ours.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                        struct.pack("ll", 0, 200_000))  # 0.2 s
        frame = b"".join(encode_packet(Publish("t", bytes(2 * SPLIT_READ_BYTES))))

        def send_part():
            theirs.sendall(frame[:SPLIT_READ_BYTES])
            if cut == "eof":
                theirs.shutdown(socket.SHUT_WR)

        with ours, theirs, reader.stream:
            writer = threading.Thread(target=send_part)
            writer.start()
            with pytest.raises(error, match="publish payload"):
                reader.read_packet()
            writer.join(timeout=5.0)
        assert not writer.is_alive()

    def test_header_over_max_frame_raises_before_the_payload_is_received(self):
        class Refusing:  # any recv reads the payload into a frame-sized buffer
            def recv(self, *args):
                raise AssertionError("recv called")

        header = b"\x30" + encode_remaining_length(MAX_FRAME_BYTES)
        reader = FrameReader(OneByteStream(header + b"\x00\x01t"), sock=Refusing())
        with pytest.raises(FrameTooLargeError):
            reader.read_packet()


class TestFrameLimit:
    def test_encoder_refuses_frame_over_max(self):
        for prefix in (b"", ENVELOPE_HEAD):
            # 1 B type, 4 B length, 3 B topic "a", and the prefix in the head
            payload_max = MAX_FRAME_BYTES - 8 - len(prefix)
            buffers = encode_packet(Publish("a", bytes(payload_max), qos=0,
                                            prefix=prefix))
            assert sum(map(len, buffers)) == MAX_FRAME_BYTES
            with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
                encode_packet(Publish("a", bytes(payload_max + 1), qos=0,
                                      prefix=prefix))


class FakeSocket:
    """Takes at most ``step`` bytes per ``sendmsg`` call, as a socket may."""

    def __init__(self, step: int):
        self.step = step
        self.calls = 0
        self.written = bytearray()

    def sendmsg(self, buffers) -> int:
        self.calls += 1
        room = self.step
        for buffer in buffers:
            chunk = memoryview(buffer)[:room]
            self.written += chunk
            room -= len(chunk)
            if not room:
                break
        return self.step - room


class TestZeroCopy:
    def test_decoded_payload_is_a_read_only_view_of_the_frame(self):
        frame = bytearray(b"".join(
            encode_packet(Publish("a/b", b"payload", qos=1, packet_id=3))))
        payload = decode_packet(frame).payload
        assert isinstance(payload, memoryview) and payload.readonly
        assert payload.obj is frame
        frame[-7:] = b"PAYLOAD"  # the view sees the frame's own bytes
        assert payload == b"PAYLOAD"
        with pytest.raises(TypeError):
            payload[0] = 0

    def test_encoded_publish_ends_with_its_own_payload(self):
        payload = bytes(range(256)) * 4
        packet = Publish("a/b", payload, qos=1, packet_id=7)
        assert encode_packet(packet)[-1] is payload
        assert encode_packet(PingReq()) == [b"\xc0\x00"]

    @pytest.mark.parametrize("step", [1, 7, 4096, "head", "frame"])
    def test_writer_finishes_partial_writes(self, step):
        # 1 and 7 end writes inside the head; "head" ends the first write on
        # the head's end, "frame" ends the only write on the frame's end
        for prefix, size in ((b"", 1_000_000), (ENVELOPE_HEAD, 1_000_000),
                             (b"", 0), (ENVELOPE_HEAD, 0)):
            payload = random.Random(size).randbytes(size)
            packet = Publish("bench/ping/rw2dt", payload, qos=1, packet_id=9,
                             prefix=prefix)
            buffers = encode_packet(packet)
            fixed = b"\x32" + encode_remaining_length(20 + len(prefix) + size)
            head = fixed + b"\x00\x10bench/ping/rw2dt\x00\x09" + prefix
            assert buffers == [head, payload] and buffers[1] is payload
            room = {"head": len(head), "frame": len(head) + size}.get(step, step)
            sock = FakeSocket(room)
            assert write_frame(sock, buffers) == len(head) + size
            assert sock.written == head + payload
            assert sock.calls == -(-len(sock.written) // room)

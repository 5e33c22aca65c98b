"""Timestamped message envelopes over the broker, plus the payload-size
latency benchmark.

An envelope is a fixed 20 B big-endian ``struct`` header, then the raw
payload. Its topic is the MQTT PUBLISH's own, so a message's wire size is
the payload + 20 B + the MQTT header:

| offset | size | field |
| --- | --- | --- |
| 0 | 2 | magic ``b"TW"`` |
| 2 | 1 | version (2) |
| 3 | 1 | kind, an index into ``KINDS`` |
| 4 | 8 | seq, u64 |
| 12 | 8 | sent_at, u64 microseconds since the unix epoch |
| 20 | rest | payload |

The sender puts the header in the MQTT frame's head and writes the payload
after it as the caller's own object, so it copies no payload. The receiving
client splits the header off as the PUBLISH's prefix and hands the payload
over as ``bytes``, which the envelope keeps: received straight into them
when the frame is long, copied once out of the client's frame buffer when
it is short (``twinet.mqtt.SPLIT_READ_BYTES``).

Canonical topic namespace: rw/traffic, rw/request, dt/eval/result,
dt/model/request, dt/model/artifact, bench/ping/<dir>, bench/pong/<dir>.
"""

from __future__ import annotations

import contextlib
import gc
import logging
import os
import random
import statistics
import struct
import threading
import time
from dataclasses import dataclass, field

from .client import MqttClient
from .mqtt import MAX_FRAME_BYTES

log = logging.getLogger(__name__)

# Wire vocabulary: the header carries an index into this tuple, so entries
# are only ever appended, never removed or reordered.
KINDS = (
    "TrafficUpdate",
    "EvalRequest",
    "EvalResult",
    "ModelRequest",
    "ModelArtifactMsg",
    "BenchPing",
    "BenchPong",
)

TOPIC_RW_TRAFFIC = "rw/traffic"
TOPIC_RW_REQUEST = "rw/request"
TOPIC_DT_EVAL_RESULT = "dt/eval/result"
TOPIC_DT_MODEL_REQUEST = "dt/model/request"
TOPIC_DT_MODEL_ARTIFACT = "dt/model/artifact"

# How long ``TwinService.serving`` waits for its thread to stop on exit.
SERVICE_JOIN_TIMEOUT_S = 5.0

BENCH_SIZES = (1, 100, 1_000, 10_000, 100_000, 1_000_000)
BENCH_SAMPLES = 100
# A size's samples are spread over this many rounds of every size, so that
# the host's drift over the run falls on all sizes alike.
BENCH_ROUNDS = 100
# Unmeasured messages of a size before its samples in a round: the first
# message after a 1 MB one runs 0.1-0.3 ms slower while its buffers are freed.
BENCH_WARMUPS = 2
# Yields before each bench message, so the last message's trailing work (the
# broker's connection threads reading the subscriber's PUBACK and going back
# to their reads) is done before the next stamp on the bench's one CPU.
_SETTLE_YIELDS = 3
# Times a sample is taken again when the CPU spent more of its latency away
# from this process than in it. On a shared VM the host takes the vCPU away
# for 1-10 ms about once in 300 samples; the hop itself takes 0.1 ms, so one
# such sample moves a size's 100-sample mean by more than the step between
# small sizes.
BENCH_RETAKES = 5

BENCH_CSV_SCHEMA = ["size_bytes", "direction", "mean_ms", "p50_ms", "p99_ms", "n"]

ENVELOPE_MAGIC = b"TW"
ENVELOPE_VERSION = 2
_HEADER = struct.Struct(">2sBBQQ")  # magic, version, kind, seq, sent_at


def max_payload_bytes(topic: str) -> int:
    """Largest envelope payload whose QoS-1 frame on ``topic`` fits
    MAX_FRAME_BYTES: the frame adds a fixed header with a 4 B remaining
    length, the topic with its 2 B length, a 2 B packet id, and the envelope
    header."""
    return (MAX_FRAME_BYTES - (1 + 4) - (2 + len(topic.encode("utf-8"))) - 2
            - _HEADER.size)


BENCH_MAX_SIZE = max_payload_bytes("bench/ping/rw2dt")  # and bench/ping/dt2rw


class EnvelopeError(ValueError):
    """Envelope bytes are malformed, or its fields do not fit the header."""


@dataclass
class MessageEnvelope:
    topic: str
    seq: int
    sent_at: int  # microseconds since the unix epoch, stamped at publish time
    kind: str
    payload: bytes = b""
    recv_at: int | None = None  # set by the receiving endpoint, not serialized

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise EnvelopeError(f"unknown envelope kind: {self.kind!r}")


def encode_envelope(envelope: MessageEnvelope) -> tuple[bytes, bytes]:
    """Encode an envelope as ``(head, payload)``: the 20 B header, and the
    envelope's own payload object, not a copy. ``LinkEndpoint`` sends them
    as one PUBLISH on the envelope's topic, the head inside the frame's
    head, so the payload reaches the socket without being joined."""
    try:
        head = _HEADER.pack(ENVELOPE_MAGIC, ENVELOPE_VERSION,
                            KINDS.index(envelope.kind), envelope.seq,
                            envelope.sent_at)
    except (struct.error, ValueError) as exc:
        raise EnvelopeError(f"envelope does not fit the header: {exc}") from exc
    return head, envelope.payload


def decode_envelope(topic: str, head: bytes, payload: bytes) -> MessageEnvelope:
    """Decode the envelope that arrived on ``topic`` from its 20 B ``head``
    and its ``payload``, which the envelope keeps as it is."""
    try:
        magic, version, kind, seq, sent_at = _HEADER.unpack(head)
    except struct.error as exc:
        raise EnvelopeError(f"envelope header truncated: {exc}") from exc
    if magic != ENVELOPE_MAGIC:
        raise EnvelopeError(f"bad envelope magic {magic!r}")
    if version != ENVELOPE_VERSION:
        raise EnvelopeError(f"unsupported envelope version {version}")
    if kind >= len(KINDS):
        raise EnvelopeError(f"envelope kind index {kind} out of range")
    return MessageEnvelope(topic=topic, seq=seq, sent_at=sent_at,
                           kind=KINDS[kind], payload=payload)


def unpack_payload(header: str, payload: bytes) -> tuple:
    """Unpack a payload laid out as the ``struct`` format ``header`` followed
    by whole big-endian f8 values; returns the header fields, then the values."""
    count, partial = divmod(len(payload) - struct.calcsize(header), 8)
    if count < 0 or partial:
        raise EnvelopeError(f"a {len(payload)} B payload is not a {header!r}"
                            " header followed by whole f8 values")
    return struct.unpack(f"{header}{count}d", payload)


def now_us() -> int:
    return time.time_ns() // 1_000


class LinkEndpoint:
    """One endpoint of the real-world/twin link.

    Owns one broker connection. Publishing stamps sent_at and a per-topic
    sequence number; polling returns envelopes in arrival order with seq-gap
    accounting.
    """

    def __init__(self, client_id: str, host: str, port: int, qos: int = 1):
        self.client = MqttClient(client_id, host, port, prefix_size=_HEADER.size)
        self.qos = qos
        self._seq_lock = threading.Lock()
        self._next_seq: dict[str, int] = {}
        self._last_seen_seq: dict[str, int] = {}  # by topic, as publish_envelope numbers
        self.gap_count = 0
        self.decode_errors = 0

    def connect(self) -> None:
        self.client.connect()

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "LinkEndpoint":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def subscribe(self, *filters: str) -> None:
        for filter_text in filters:
            self.client.subscribe(filter_text, max_qos=self.qos)

    def publish_envelope(self, topic: str, kind: str,
                         payload: bytes = b"") -> MessageEnvelope:
        """Stamp and send; returns the envelope as published."""
        with self._seq_lock:
            seq = self._next_seq.get(topic, 0)
            self._next_seq[topic] = seq + 1
        envelope = MessageEnvelope(topic=topic, seq=seq, sent_at=0, kind=kind,
                                   payload=payload)
        envelope.sent_at = now_us()  # stamped at publish time, not construction
        head, payload = encode_envelope(envelope)
        self.client.publish(topic, payload, qos=self.qos, prefix=head)
        return envelope

    def poll_envelope(self, timeout: float = 0.0,
                      kind: str | None = None) -> MessageEnvelope | None:
        """Next received envelope (of ``kind``, if given; others count for seq
        gaps and are skipped), or None once ``timeout`` s have passed in all. A
        message that does not decode is logged, counted in decode_errors and
        dropped. A ``kind`` not in ``KINDS`` raises EnvelopeError at once."""
        if kind is not None and kind not in KINDS:
            raise EnvelopeError(f"unknown envelope kind: {kind!r}")
        deadline = time.monotonic() + timeout
        while (item := self.client.poll(timeout)) is not None:
            topic, payload, recv_ns, head = item
            try:
                envelope = decode_envelope(topic, head, payload)
            except EnvelopeError as exc:
                self.decode_errors += 1
                log.warning("dropped malformed envelope on %s (%d B): %s",
                            topic, len(head) + len(payload), exc)
            else:
                envelope.recv_at = recv_ns // 1_000
                last = self._last_seen_seq.get(topic)
                if last is not None and envelope.seq > last + 1:
                    self.gap_count += envelope.seq - last - 1
                self._last_seen_seq[topic] = max(envelope.seq, last or 0)
                if kind is None or envelope.kind == kind:
                    return envelope
            timeout = max(0.0, deadline - time.monotonic())
        return None

    def drop(self, envelope: MessageEnvelope, exc: Exception) -> None:
        """Log and count an envelope whose payload cannot be decoded."""
        self.decode_errors += 1
        log.warning("dropped malformed %s on %s (%d B): %r", envelope.kind,
                    envelope.topic, len(envelope.payload), exc)


class TwinService:
    """Twin-side request loop over a link: answers ``request_kind`` envelopes.

    Subclasses implement ``handle``. A request that ``handle`` cannot decode
    or act on (KeyError, TypeError or ValueError) is logged, counted in the
    link's decode_errors and dropped, so one bad request never stops ``run``.
    """

    request_kind = ""

    def __init__(self, link: LinkEndpoint, topic: str):
        self.link = link
        self.link.subscribe(topic)

    def handle(self, envelope: MessageEnvelope) -> None:
        raise NotImplementedError

    def run(self, stop: threading.Event) -> None:
        """Serve requests until ``stop`` is set, checking it every 0.1 s."""
        while not stop.is_set():
            envelope = self.link.poll_envelope(0.1, self.request_kind)
            if envelope is None:
                continue
            try:
                self.handle(envelope)
            except (KeyError, TypeError, ValueError) as exc:
                self.link.drop(envelope, exc)

    @contextlib.contextmanager
    def serving(self):
        """Run ``run`` on a daemon thread for the ``with`` block, then stop and
        join it. Raises RuntimeError if the thread is still alive
        ``SERVICE_JOIN_TIMEOUT_S`` later, so a stuck service is not left
        running unseen, and re-raises the exception that ended ``run``, such
        as the ConnectionError of a link that died."""
        stop = threading.Event()
        failure: list[Exception] = []

        def run() -> None:
            try:
                self.run(stop)
            except Exception as exc:
                failure.append(exc)

        worker = threading.Thread(target=run, name=type(self).__name__, daemon=True)
        worker.start()
        try:
            yield self
        finally:
            stop.set()
            worker.join(timeout=SERVICE_JOIN_TIMEOUT_S)
            if worker.is_alive():
                raise RuntimeError(f"{worker.name} did not stop within "
                                   f"{SERVICE_JOIN_TIMEOUT_S} s")
            if failure:
                raise failure[0]


# -- latency benchmark -------------------------------------------------------


@dataclass
class LatencyReport:
    payload_size: int
    direction: str  # "real->twin" | "twin->real"
    samples_ms: list[float] = field(default_factory=list)
    discarded: int = 0
    retaken: int = 0

    @property
    def mean_ms(self) -> float:
        return statistics.fmean(self.samples_ms)

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def p99_ms(self) -> float:
        ordered = sorted(self.samples_ms)
        index = min(len(ordered) - 1, round(0.99 * (len(ordered) - 1)))
        return ordered[index]

    def to_row(self) -> dict:
        return {
            "size_bytes": self.payload_size,
            "direction": self.direction,
            "mean_ms": round(self.mean_ms, 4),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "n": len(self.samples_ms),
        }


@contextlib.contextmanager
def _threads_on_one_cpu():
    """Keep every thread of this process on one CPU, then restore each mask.

    A bench message is handed from the caller's thread to the broker's
    connection threads and back; on a shared VM a hand-off that wakes another
    CPU costs a wake-up whose price swings with the host's load, and it
    drifts from one block of samples to the next by more than the gap
    between small payload sizes.
    Threads started inside inherit the mask of the thread that starts them.
    Where thread affinity cannot be set, the bench runs unpinned.
    """
    try:
        own = os.sched_getaffinity(0)
        saved = {int(tid): os.sched_getaffinity(int(tid))
                 for tid in os.listdir("/proc/self/task")}
    except (AttributeError, OSError):
        yield
        return
    cpu = {max(own)}
    for tid in saved:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(tid, cpu)
    try:
        yield
    finally:
        with contextlib.suppress(OSError):
            for tid in os.listdir("/proc/self/task"):
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(int(tid), saved.get(int(tid), own))


@contextlib.contextmanager
def _gc_paused():
    """No collector pause inside a sample; as ``timeit`` does."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _bench_ping(sender: LinkEndpoint, receiver: LinkEndpoint, topic: str,
                payload: bytes, direction: str) -> tuple[float, float]:
    """Send one bench message and wait for it. Returns its latency and the
    time meanwhile that the CPU ran no thread of this process, both in ms.

    The process's CPU clock stops while the host has taken the vCPU away
    (steal) or another process runs; the wall clock does not.
    """
    for _ in range(_SETTLE_YIELDS):
        os.sched_yield()
    wall_ns, cpu_ns = time.perf_counter_ns(), time.process_time_ns()
    sender.publish_envelope(topic, "BenchPing", payload)
    received = receiver.poll_envelope(timeout=30.0)
    away_ns = ((time.perf_counter_ns() - wall_ns)
               - (time.process_time_ns() - cpu_ns))
    if received is None:
        raise TimeoutError(
            f"bench ping lost at size {len(payload)} ({direction})")
    return (received.recv_at - received.sent_at) / 1_000.0, away_ns / 1e6


def run_latency_bench(host: str, port: int, rng: random.Random,
                      sizes=BENCH_SIZES,
                      samples_per_size: int = BENCH_SAMPLES) -> list[LatencyReport]:
    """One-way latency per payload size and direction over an idle broker.

    Both endpoints run in this process and share the host clock, so one-way
    latency is the direct difference between receive time and the publish
    stamp. Samples are serialized (send, wait for receipt) to keep the
    broker idle; negative samples from clock jitter are discarded and counted.
    Every thread of this process, an in-process broker's included, runs on
    one CPU while the bench runs, and the garbage collector is paused.
    Sizes are interleaved: each of up to ``BENCH_ROUNDS`` rounds takes a
    share of every size's samples, each share after ``BENCH_WARMUPS``
    unmeasured messages of its size. A sample whose latency was more time
    away from this process than in it is taken again, up to ``BENCH_RETAKES``
    times, and counted in ``retaken``.
    """
    rounds = max(1, min(BENCH_ROUNDS, samples_per_size))
    with _threads_on_one_cpu(), \
         LinkEndpoint("bench-real", host, port, qos=1) as real, \
         LinkEndpoint("bench-twin", host, port, qos=1) as twin:
        real.subscribe("bench/ping/dt2rw")
        twin.subscribe("bench/ping/rw2dt")
        pairs = [("real->twin", real, twin, "bench/ping/rw2dt"),
                 ("twin->real", twin, real, "bench/ping/dt2rw")]
        reports = {(size, direction): LatencyReport(size, direction)
                   for size in sizes for direction, *_ in pairs}
        # warm-up: prime sockets and codec paths outside the measurements
        for direction, sender, receiver, topic in pairs:
            _bench_ping(sender, receiver, topic, b"x", direction)
        with _gc_paused():
            for round_index in range(rounds):
                count = (samples_per_size // rounds
                         + (round_index < samples_per_size % rounds))
                for size in sizes:
                    for direction, sender, receiver, topic in pairs:
                        report = reports[(size, direction)]
                        for _ in range(BENCH_WARMUPS):
                            _bench_ping(sender, receiver, topic,
                                        rng.randbytes(size), direction)
                        for _ in range(count):
                            for retakes in range(BENCH_RETAKES + 1):
                                latency_ms, away_ms = _bench_ping(
                                    sender, receiver, topic,
                                    rng.randbytes(size), direction)
                                if 2 * away_ms <= latency_ms:
                                    break
                            report.retaken += retakes
                            if latency_ms < 0:
                                report.discarded += 1
                            else:
                                report.samples_ms.append(latency_ms)
    for report in reports.values():
        log.info("bench %s %dB mean=%.3fms retaken=%d", report.direction,
                 report.payload_size, report.mean_ms, report.retaken)
    return list(reports.values())

"""A stateful model test of one broker and its clients.

Hypothesis drives a ``Broker(port=0)`` and two to four ``MqttClient``s one
random step at a time: connect, subscribe, publish at QoS 0 or 1, poll, close
and cut a socket without DISCONNECT. A model keeps each live client's filters
and, for each (publisher, subscriber) pair, the messages the subscriber must
still receive, in order. A failure shrinks to a short sequence of steps.

Each burst of publishes is followed by a PINGREQ on the publisher's
connection. The broker reads that connection's packets one at a time and
routes a publish before it reads the next packet, so once the PINGRESP is
back every delivery of the burst has been written, and a later subscribe or
close cannot race with it. Every packet a client reads is recorded, so a PUBACK sent twice and
a delivery sent twice both show.
"""

import time

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from twinet.broker import Broker
from twinet.client import MqttClient
from twinet.mqtt import SPLIT_READ_BYTES, PubAck

SLOTS = 4  # at most four clients: the broker starts a thread per connection
TOPICS = ("a", "a/b", "b", "b/a", "$SYS/a")
FILTERS = ("a", "a/b", "a/+", "+", "+/a", "a/#", "#", "$SYS/#", "$SYS/+")
# the last makes a frame longer than SPLIT_READ_BYTES, which the client reads apart
SIZES = (0, 7, 1_000, SPLIT_READ_BYTES)
# how long a poll waits for a message the model expects
POLL_TIMEOUT_S = 5.0


def matches(topic_filter: str, topic: str) -> bool:
    """MQTT 3.1.1 §4.7 matching, level by level; a filter that starts with a
    wildcard does not match a topic that starts with ``$``."""
    filter_levels, topic_levels = topic_filter.split("/"), topic.split("/")
    if topic.startswith("$") and filter_levels[0] in ("#", "+"):
        return False
    for i, level in enumerate(filter_levels):
        if level == "#":
            return True
        if i >= len(topic_levels) or level not in ("+", topic_levels[i]):
            return False
    return len(filter_levels) == len(topic_levels)


class BrokerModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.broker = Broker(port=0)
        self.broker.start()
        self.clients: dict[int, MqttClient] = {}  # slot -> live client
        self.filters: dict[int, list[tuple[str, int]]] = {}
        self.read: dict[int, list] = {}  # slot -> every packet its client read
        self.pubacks: dict[int, list[int]] = {}  # slot -> its QoS-1 packet ids sent
        self.ids: dict[int, int] = {}  # slot -> packet ids its client has taken
        # (publisher's client id, subscriber slot) -> [(payload, qos)] still to
        # arrive; a publisher's messages stay due once it has gone
        self.expected: dict[tuple[str, int], list[tuple[bytes, int]]] = {}
        self.connects = 0
        self.published = self.payload_bytes = self.deliveries = 0

    # -- helpers -----------------------------------------------------------

    def _record_reads(self, slot: int, client: MqttClient) -> None:
        reader, packets = client._reader, self.read[slot]
        read_packet = reader.read_packet

        def recording():
            packet = read_packet()
            packets.append(packet)
            return packet

        reader.read_packet = recording

    def _forget(self, slot: int) -> None:
        """Drop a client from the model once the broker has dropped it."""
        client = self.clients.pop(slot)
        deadline = time.monotonic() + 5.0
        while client.client_id in self.broker._sessions:
            assert time.monotonic() < deadline, "broker kept a dead session"
            time.sleep(0.001)
        self.check_acks(slot)
        del self.filters[slot], self.read[slot], self.pubacks[slot], self.ids[slot]
        for pair in [p for p in self.expected if p[1] == slot]:
            del self.expected[pair]

    def _take_id(self, slot: int) -> int:
        """The packet id a client's next subscribe or QoS-1 publish takes:
        1, 2, ... on each connection."""
        self.ids[slot] += 1
        return (self.ids[slot] - 1) % 0xFFFF + 1

    def check_acks(self, slot: int) -> None:
        """One PUBACK per QoS-1 publish, with its packet id, in order."""
        acks = [p.packet_id for p in self.read[slot] if isinstance(p, PubAck)]
        assert acks == self.pubacks[slot]

    # -- rules -------------------------------------------------------------

    def _live(self, data) -> int:
        return data.draw(st.sampled_from(sorted(self.clients)), label="slot")

    @initialize(first=st.sampled_from(FILTERS), second=st.sampled_from(FILTERS))
    def two_clients(self, first, second):
        self.connect(first, 1)
        self.connect(second, 0)

    @precondition(lambda self: len(self.clients) < SLOTS)
    @rule(topic_filter=st.sampled_from(FILTERS), max_qos=st.integers(0, 1))
    def connect(self, topic_filter, max_qos):
        """Connect a client in a free slot, subscribed to one filter."""
        slot = min(set(range(SLOTS)) - set(self.clients))
        self.connects += 1
        client = MqttClient(f"c{self.connects}", self.broker.host, self.broker.port)
        client.connect()
        self.clients[slot] = client
        self.filters[slot], self.read[slot], self.pubacks[slot] = [], [], []
        self.ids[slot] = 0
        self._record_reads(slot, client)
        self._subscribe(slot, topic_filter, max_qos)

    @precondition(lambda self: self.clients)
    @rule(data=st.data(), topic_filter=st.sampled_from(FILTERS),
          max_qos=st.integers(0, 1))
    def subscribe(self, data, topic_filter, max_qos):
        self._subscribe(self._live(data), topic_filter, max_qos)

    def _subscribe(self, slot, topic_filter, max_qos):
        self.clients[slot].subscribe(topic_filter, max_qos)
        self._take_id(slot)
        self.filters[slot].append((topic_filter, max_qos))

    @precondition(lambda self: self.clients)
    @rule(data=st.data(), messages=st.lists(
        st.tuples(st.sampled_from(TOPICS), st.integers(0, 1), st.sampled_from(SIZES)),
        min_size=1, max_size=3))
    def publish(self, data, messages):
        """Publish one to three messages, then ping: the broker has routed
        them all once the PINGRESP is back."""
        slot = self._live(data)
        client = self.clients[slot]
        start = time.monotonic()
        for topic, qos, size in messages:
            self.published += 1
            tag = b"%s:%d:" % (client.client_id.encode(), self.published)
            payload = tag + bytes(max(0, size - len(tag)))
            if qos == 1:
                self.pubacks[slot].append(self._take_id(slot))
            client.publish(topic, payload, qos=qos)
            self.payload_bytes += len(payload)
            for sub, filters in self.filters.items():
                granted = [q for f, q in filters if matches(f, topic)]
                if granted:
                    self.deliveries += 1
                    self.expected.setdefault((client.client_id, sub), []).append(
                        (payload, min(qos, max(granted))))
        client.ping()
        assert time.monotonic() - start < 5.0

    @precondition(lambda self: self.clients)
    @rule(data=st.data())
    def poll(self, data):
        slot = self._live(data)
        waiting = any(sub == slot and queue for (_, sub), queue in self.expected.items())
        timeout = POLL_TIMEOUT_S if waiting else 0.0
        start = time.monotonic()
        item = self.clients[slot].poll(timeout)
        assert time.monotonic() - start < timeout + 1.0
        if item is None:
            assert not waiting, f"client {slot} received nothing of what it awaits"
            return
        self._check_received(slot, item[0], bytes(item[1]))

    def _check_received(self, slot, topic, payload):
        publisher = payload.split(b":")[0].decode()
        queue = self.expected.get((publisher, slot), [])
        for index, (sent, qos) in enumerate(queue):
            if sent == payload:
                # what was sent before it lost its chance: QoS 0 only
                assert all(q == 0 for _, q in queue[:index]), \
                    f"client {slot} got {payload[:12]!r} before an earlier QoS-1 message"
                del queue[: index + 1]
                return
        raise AssertionError(f"client {slot} got {payload[:12]!r} on {topic}, "
                             "which it does not await: a duplicate or a stray")

    @precondition(lambda self: len(self.clients) > 2)
    @rule(data=st.data(), cut=st.booleans())
    def end(self, data, cut):
        """Close a client, or cut its socket without DISCONNECT."""
        slot = self._live(data)
        if cut:
            self.clients[slot]._teardown()
        else:
            self.clients[slot].close()
        self._forget(slot)

    # -- invariants --------------------------------------------------------

    @invariant()
    def acks_match(self):
        for slot in self.clients:
            self.check_acks(slot)

    @invariant()
    def two_to_four_clients(self):
        assert 2 <= len(self.clients) <= SLOTS

    def teardown(self):
        try:
            for slot, client in list(self.clients.items()):
                while any(sub == slot and any(q == 1 for _, q in queue)
                          for (_, sub), queue in self.expected.items()):
                    item = client.poll(POLL_TIMEOUT_S)
                    assert item is not None, f"client {slot}: a QoS-1 message never came"
                    self._check_received(slot, item[0], bytes(item[1]))
                while (item := client.poll(0.0)) is not None:
                    self._check_received(slot, item[0], bytes(item[1]))
                self.check_acks(slot)
            stats = self.broker.stats
            assert stats["publishes_routed"] == self.published
            assert stats["bytes_in"] == self.payload_bytes
            assert stats["deliveries"] == self.deliveries
        finally:
            for client in self.clients.values():
                client.close()
            self.broker.stop()


TestBrokerModel = BrokerModel.TestCase
# The model test costs far more per example than the codec properties, so it
# runs a share of the loaded profile's examples and steps: 30 examples of 20
# steps under the default profile (tests/conftest.py).
TestBrokerModel.settings = settings(
    max_examples=settings.default.max_examples * 3 // 10,
    stateful_step_count=settings.default.stateful_step_count * 2 // 5,
    deadline=None, suppress_health_check=[HealthCheck.too_slow])

"""Control packet variants for the MQTT 3.1.1 subset used by the link.

Only the nine packet types the broker and clients exchange are modelled:
no retained messages, wills, QoS 2, or session persistence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union


@dataclass(frozen=True)
class Connect:
    client_id: str


@dataclass(frozen=True)
class ConnAck:
    return_code: int = 0


@dataclass(frozen=True)
class Publish:
    """A PUBLISH whose MQTT payload is ``prefix`` followed by ``payload``.

    The encoder joins the small ``prefix`` (the link's 20 B envelope header)
    into the frame head, so ``payload`` goes to the socket as the caller's
    own object, never copied. The decoder splits a prefix of the reader's
    ``prefix_size`` off again, so on both sides it means the same bytes; a
    decoded payload is a read-only view of the frame, or, for a long frame
    that a client read apart, ``bytes`` of its own.
    """

    topic: str
    payload: bytes | memoryview = b""
    qos: int = 0
    packet_id: int | None = None
    prefix: bytes = b""

    def __post_init__(self) -> None:
        if self.qos not in (0, 1):
            raise ValueError(f"qos must be 0 or 1, got {self.qos}")
        if self.qos == 1 and self.packet_id is None:
            raise ValueError("qos=1 publish requires a packet_id")
        if self.qos == 0 and self.packet_id is not None:
            raise ValueError("qos=0 publish must not carry a packet_id")


@dataclass(frozen=True)
class PubAck:
    packet_id: int


@dataclass(frozen=True)
class Subscribe:
    packet_id: int
    filters: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "filters", tuple((f, q) for f, q in self.filters))
        for _, q in self.filters:
            if q not in (0, 1):
                raise ValueError(f"max_qos must be 0 or 1, got {q}")


@dataclass(frozen=True)
class SubAck:
    packet_id: int
    granted: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "granted", tuple(self.granted))


@dataclass(frozen=True)
class PingReq:
    pass


@dataclass(frozen=True)
class PingResp:
    pass


@dataclass(frozen=True)
class Disconnect:
    pass


ControlPacket = Union[
    Connect, ConnAck, Publish, PubAck, Subscribe, SubAck, PingReq, PingResp, Disconnect
]


def packet_ids() -> Iterator[int]:
    """Packet ids 1, 2, ..., 65535, then 1 again, for ever. A generator is not
    thread-safe, so its owner takes every id under one lock."""
    while True:
        yield from range(1, 0x10000)

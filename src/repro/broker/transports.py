"""Simulated notification transports: SMS, SMTP, TCP, UDP (Figure 2).

The paper's demonstration "presents a notification engine that can send
notifications to the clients using different transports".  The original
demo used real SMS gateways and sockets; this reproduction substitutes
deterministic in-process simulations that preserve the properties the
notification engine must handle:

* **SMS** — tiny payload limit (messages are truncated to 160
  characters) and moderate, injectable failure probability;
* **SMTP** — occasional transient failures (greylisting) that succeed
  on retry;
* **TCP** — reliable and connection-oriented: per-address connection
  state with setup cost on first use;
* **UDP** — fire-and-forget: sends never fail, but messages may be
  *dropped* silently (counted, invisible to callers).

A transport keeps per-status counters, not the records it sent: each
send's :class:`DeliveryRecord` goes back to its caller.  A message
carries its text as a payload that renders the subject and body only
when something reads them (an SMS payload is its merged text; the
simulated TCP, UDP and SMTP sends read neither).  All randomness is
seeded, so tests and benchmarks are reproducible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple

from repro.errors import TransportError

__all__ = [
    "Text",
    "OutboundMessage",
    "DeliveryRecord",
    "Transport",
    "SmsTransport",
    "SmtpTransport",
    "TcpTransport",
    "UdpTransport",
    "TransportRegistry",
    "default_transports",
]

_message_counter = itertools.count(1)

#: Delivery statuses a transport counts.
DELIVERED = "delivered"
DROPPED = "dropped"
FAILED = "failed"


class Text(NamedTuple):
    """A payload whose subject and body are already rendered."""

    subject: str
    body: str


@dataclass(frozen=True, slots=True)
class OutboundMessage:
    """One message handed to a transport; its ``subject`` and ``body``
    are read from ``payload`` — anything with both, a :class:`Text` or a
    delivery-log row that renders them — when something reads them."""

    transport: str
    address: str
    payload: Any
    notification_id: str = ""
    attempt: int = 1
    message_id: str = field(default_factory=lambda: f"m{next(_message_counter)}")

    @property
    def subject(self) -> str:
        return self.payload.subject

    @property
    def body(self) -> str:
        return self.payload.body


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """The transport's verdict on one send."""

    message: OutboundMessage
    status: str
    latency_ms: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == DELIVERED


class Transport:
    """Base simulated transport.

    Subclasses override :meth:`_transmit` and the class attributes.
    ``failure_rate`` is the probability a send raises
    :class:`~repro.errors.TransportError` (retryable); the seeded
    ``rng`` makes behaviour reproducible.  :meth:`fail_next` forces
    deterministic failures for tests.
    """

    name = "abstract"
    base_latency_ms = 1.0
    reliable = True

    def __init__(self, *, failure_rate: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= failure_rate < 1.0:
            raise TransportError(f"failure_rate must be in [0, 1), got {failure_rate}")
        self.failure_rate = failure_rate
        self.rng = random.Random(seed)
        self._counts = {DELIVERED: 0, DROPPED: 0, FAILED: 0}
        self._forced_failures = 0

    # -- test / chaos hooks ---------------------------------------------------

    def fail_next(self, count: int = 1) -> None:
        """Force the next *count* sends to fail (deterministic chaos)."""
        self._forced_failures += count

    # -- sending -----------------------------------------------------------------

    def send(self, message: OutboundMessage) -> DeliveryRecord:
        """Attempt delivery; raises :class:`TransportError` on failure
        (the notification engine owns retry policy)."""
        if self._forced_failures > 0:
            self._forced_failures -= 1
            self._record(DeliveryRecord(message, FAILED, self.base_latency_ms, "forced failure"))
            raise TransportError(f"{self.name}: forced failure for {message.address!r}")
        if self.failure_rate and self.rng.random() < self.failure_rate:
            self._record(
                DeliveryRecord(message, FAILED, self.base_latency_ms, "transient failure")
            )
            raise TransportError(f"{self.name}: transient failure for {message.address!r}")
        return self._record(self._transmit(message))

    def payload(self, content: Any) -> Any:
        """What a message of this transport carries for *content* (see
        :class:`OutboundMessage`): the content itself."""
        return content

    def _record(self, record: DeliveryRecord) -> DeliveryRecord:
        self._counts[record.status] += 1
        return record

    def _transmit(self, message: OutboundMessage) -> DeliveryRecord:
        return DeliveryRecord(message, DELIVERED, self._latency())

    def _latency(self) -> float:
        # Uniform jitter around the base keeps latency histograms
        # non-degenerate without importing a distribution substrate.
        return self.base_latency_ms * (0.5 + self.rng.random())

    # -- counters ----------------------------------------------------------------------

    def delivered_count(self) -> int:
        """Every delivered send since construction or :meth:`reset`."""
        return self._counts[DELIVERED]

    def stats(self) -> dict[str, int]:
        """Cumulative per-status send counts."""
        counts = dict(self._counts)
        counts["total"] = sum(self._counts.values())
        return counts

    def reset(self) -> None:
        self._counts = dict.fromkeys(self._counts, 0)
        self._forced_failures = 0

    def forget(self, address: str) -> None:
        """Drop whatever this transport keeps for *address*."""


class SmsTransport(Transport):
    """SMS: 160-character payload limit, moderate failure rate."""

    name = "sms"
    base_latency_ms = 2000.0
    MAX_LENGTH = 160

    def __init__(self, *, failure_rate: float = 0.02, seed: int = 0) -> None:
        super().__init__(failure_rate=failure_rate, seed=seed)

    def _transmit(self, message: OutboundMessage) -> DeliveryRecord:
        payload = message.body
        detail = ""
        if len(payload) > self.MAX_LENGTH:
            detail = f"truncated to {self.MAX_LENGTH} characters"
        return DeliveryRecord(message, DELIVERED, self._latency(), detail)

    def payload(self, content: Any) -> Text:
        """*content*'s subject, and its subject and body merged and
        truncated (:meth:`render`): an SMS send reads it."""
        subject = content.subject
        return Text(subject, self.render(subject, content.body))

    @classmethod
    def render(cls, subject: str, body: str) -> str:
        """SMS payloads merge subject and body, then truncate."""
        combined = f"{subject}: {body}"
        return combined[: cls.MAX_LENGTH]


class SmtpTransport(Transport):
    """SMTP: greylisting-style transient failures that succeed on retry."""

    name = "smtp"
    base_latency_ms = 150.0

    def __init__(self, *, failure_rate: float = 0.05, seed: int = 0) -> None:
        super().__init__(failure_rate=failure_rate, seed=seed)


class TcpTransport(Transport):
    """TCP: reliable; first send to an address pays connection setup."""

    name = "tcp"
    base_latency_ms = 5.0
    CONNECT_COST_MS = 30.0

    def __init__(self, *, failure_rate: float = 0.0, seed: int = 0) -> None:
        super().__init__(failure_rate=failure_rate, seed=seed)
        #: addresses with an open connection; the broker closes one when
        #: the last client using it is removed
        self.connections: set[str] = set()

    def _transmit(self, message: OutboundMessage) -> DeliveryRecord:
        latency = self._latency()
        detail = ""
        if message.address not in self.connections:
            latency += self.CONNECT_COST_MS
            detail = "connection established"
            self.connections.add(message.address)
        return DeliveryRecord(message, DELIVERED, latency, detail)

    def forget(self, address: str) -> None:
        self.connections.discard(address)


class UdpTransport(Transport):
    """UDP: never errors, silently drops a seeded fraction of sends."""

    name = "udp"
    base_latency_ms = 1.0
    reliable = False

    def __init__(self, *, drop_rate: float = 0.05, seed: int = 0) -> None:
        super().__init__(failure_rate=0.0, seed=seed)
        if not 0.0 <= drop_rate < 1.0:
            raise TransportError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self.drop_rate = drop_rate

    def _transmit(self, message: OutboundMessage) -> DeliveryRecord:
        if self.drop_rate and self.rng.random() < self.drop_rate:
            return DeliveryRecord(message, DROPPED, self._latency(), "datagram lost")
        return DeliveryRecord(message, DELIVERED, self._latency())


class TransportRegistry:
    """Named transport collection used by the notification engine."""

    def __init__(self, transports: Iterator[Transport] | list[Transport] = ()) -> None:
        self._transports: dict[str, Transport] = {}
        for transport in transports:
            self.add(transport)

    def add(self, transport: Transport) -> Transport:
        if transport.name in self._transports:
            raise TransportError(f"transport {transport.name!r} already registered")
        self._transports[transport.name] = transport
        return transport

    def get(self, name: str) -> Transport:
        try:
            return self._transports[name]
        except KeyError:
            raise TransportError(f"unknown transport {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._transports

    def names(self) -> tuple[str, ...]:
        return tuple(self._transports)

    def stats(self) -> dict[str, dict[str, int]]:
        return {name: t.stats() for name, t in self._transports.items()}

    def reset(self) -> None:
        for transport in self._transports.values():
            transport.reset()


def default_transports(seed: int = 0) -> TransportRegistry:
    """The demonstration's four transports (Figure 2), seeded."""
    return TransportRegistry(
        [
            SmsTransport(seed=seed),
            SmtpTransport(seed=seed + 1),
            TcpTransport(seed=seed + 2),
            UdpTransport(seed=seed + 3),
        ]
    )

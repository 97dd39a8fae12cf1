"""Unit tests for the simulated transports (Figure 2)."""

from __future__ import annotations

import pytest

from repro.broker.transports import (
    DELIVERED,
    DROPPED,
    FAILED,
    OutboundMessage,
    SmsTransport,
    Text,
    SmtpTransport,
    TcpTransport,
    TransportRegistry,
    UdpTransport,
    default_transports,
)
from repro.errors import TransportError


def _message(transport="tcp", body="hello", address="addr:1") -> OutboundMessage:
    return OutboundMessage(transport=transport, address=address, payload=Text("subj", body))


class TestBaseBehaviour:
    def test_successful_send_counted(self):
        transport = TcpTransport()
        record = transport.send(_message())
        assert record.ok and record.status == DELIVERED
        assert transport.delivered_count() == 1

    def test_forced_failure(self):
        transport = TcpTransport()
        transport.fail_next(2)
        for _ in range(2):
            with pytest.raises(TransportError):
                transport.send(_message())
        # third send succeeds
        assert transport.send(_message()).ok
        assert transport.stats()[FAILED] == 2

    def test_seeded_failure_rate_reproducible(self):
        a = SmtpTransport(failure_rate=0.5, seed=42)
        b = SmtpTransport(failure_rate=0.5, seed=42)

        def outcomes(transport):
            results = []
            for _ in range(20):
                try:
                    transport.send(_message("smtp"))
                    results.append(True)
                except TransportError:
                    results.append(False)
            return results

        assert outcomes(a) == outcomes(b)

    def test_bad_failure_rate_rejected(self):
        with pytest.raises(TransportError):
            TcpTransport(failure_rate=1.5)

    def test_reset(self):
        transport = TcpTransport()
        transport.send(_message())
        transport.fail_next()
        transport.reset()
        assert transport.stats()["total"] == 0
        assert transport.send(_message()).ok  # forced failure cleared

    def test_counts_are_cumulative(self):
        """A transport keeps per-status counters, not the records it sent."""
        transport = SmtpTransport(failure_rate=0.0)
        sends = 3000
        transport.fail_next(5)
        for _ in range(5):
            with pytest.raises(TransportError):
                transport.send(_message("smtp"))
        assert all(transport.send(_message("smtp")).ok for _ in range(sends))
        assert transport.delivered_count() == sends
        assert transport.stats() == {DELIVERED: sends, DROPPED: 0, FAILED: 5, "total": sends + 5}


class TestSms:
    def test_render_truncates(self):
        rendered = SmsTransport.render("subject", "x" * 500)
        assert len(rendered) == SmsTransport.MAX_LENGTH
        assert rendered.startswith("subject: ")

    def test_truncation_noted(self):
        transport = SmsTransport(failure_rate=0.0)
        record = transport.send(_message("sms", body="y" * 300))
        assert "truncated" in record.detail


class TestSmtp:
    def test_record_carries_the_message(self):
        transport = SmtpTransport(failure_rate=0.0)
        record = transport.send(_message("smtp", address="hr@x.example"))
        assert record.ok
        assert record.message.address == "hr@x.example"
        assert record.message.subject == "subj"
        assert record.message.body == "hello"


class TestTcp:
    def test_connection_setup_cost_once(self):
        transport = TcpTransport()
        first = transport.send(_message(address="host:1"))
        second = transport.send(_message(address="host:1"))
        other = transport.send(_message(address="host:2"))
        assert first.detail == "connection established"
        assert second.detail == ""
        assert other.detail == "connection established"
        assert transport.connections == {"host:1", "host:2"}

    def test_forget_closes_one_connection(self):
        transport = TcpTransport()
        transport.send(_message(address="host:1"))
        transport.send(_message(address="host:2"))
        transport.forget("host:1")
        transport.forget("never-sent")
        assert transport.connections == {"host:2"}
        assert transport.send(_message(address="host:1")).detail == "connection established"

    def test_connect_latency_higher(self):
        transport = TcpTransport()
        first = transport.send(_message(address="h:1"))
        second = transport.send(_message(address="h:1"))
        assert first.latency_ms > second.latency_ms


class TestUdp:
    def test_never_raises_but_drops(self):
        transport = UdpTransport(drop_rate=0.5, seed=1)
        statuses = {transport.send(_message("udp")).status for _ in range(50)}
        assert statuses == {DELIVERED, DROPPED}

    def test_zero_drop_rate(self):
        transport = UdpTransport(drop_rate=0.0)
        assert all(transport.send(_message("udp")).ok for _ in range(10))

    def test_bad_drop_rate(self):
        with pytest.raises(TransportError):
            UdpTransport(drop_rate=-0.1)

    def test_not_reliable(self):
        assert not UdpTransport().reliable and TcpTransport().reliable


class TestRegistry:
    def test_default_transports(self):
        registry = default_transports()
        assert set(registry.names()) == {"sms", "smtp", "tcp", "udp"}
        assert registry.get("tcp").name == "tcp"
        assert "sms" in registry

    def test_position_follows_the_order_of_adding(self):
        registry = default_transports()
        assert [registry.position(name) for name in registry.names()] == [0, 1, 2, 3]
        registry = TransportRegistry([UdpTransport()])
        registry.add(TcpTransport())
        assert (registry.position("udp"), registry.position("tcp")) == (0, 1)

    def test_unknown_transport(self):
        with pytest.raises(TransportError):
            default_transports().get("pigeon")

    def test_duplicate_rejected(self):
        registry = TransportRegistry([TcpTransport()])
        with pytest.raises(TransportError):
            registry.add(TcpTransport())

    def test_stats_and_reset(self):
        registry = default_transports()
        registry.get("tcp").send(_message())
        assert registry.stats()["tcp"]["total"] == 1
        registry.reset()
        assert registry.stats()["tcp"]["total"] == 0

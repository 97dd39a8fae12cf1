"""Unit tests for repro.broker.clients."""

from __future__ import annotations

import pytest

from repro.broker.clients import Client, ClientKind, ClientRegistry
from repro.errors import DuplicateClientError, UnknownClientError


class TestClientKind:
    def test_capabilities(self):
        assert ClientKind.PUBLISHER.can_publish and not ClientKind.PUBLISHER.can_subscribe
        assert ClientKind.SUBSCRIBER.can_subscribe and not ClientKind.SUBSCRIBER.can_publish
        assert ClientKind.BOTH.can_publish and ClientKind.BOTH.can_subscribe


class TestClient:
    def test_address_lookup(self):
        client = Client(
            "c1", "Initech", ClientKind.SUBSCRIBER,
            (("smtp", "hr@initech.example"), ("sms", "+1-555")),
        )
        assert dict(client.addresses) == {"smtp": "hr@initech.example", "sms": "+1-555"}
        assert client.preferred_transports() == ("smtp", "sms")

    def test_str(self):
        client = Client("c1", "Initech", ClientKind.SUBSCRIBER)
        assert "Initech" in str(client) and "c1" in str(client)


class TestRegistry:
    def test_auto_ids(self):
        registry = ClientRegistry()
        a = registry.register("A")
        b = registry.register("B")
        assert a.client_id != b.client_id
        assert len(registry) == 2

    def test_explicit_id_and_duplicate(self):
        registry = ClientRegistry()
        registry.register("A", client_id="fixed")
        assert "fixed" in registry
        with pytest.raises(DuplicateClientError):
            registry.register("B", client_id="fixed")

    def test_get_and_remove(self):
        registry = ClientRegistry()
        client = registry.register("A")
        assert registry.get(client.client_id) is client
        assert registry.remove(client.client_id) is client
        with pytest.raises(UnknownClientError):
            registry.get(client.client_id)
        with pytest.raises(UnknownClientError):
            registry.remove(client.client_id)

    def test_addresses_from_dict(self):
        registry = ClientRegistry()
        client = registry.register("A", addresses={"smtp": "a@x", "sms": "+1"})
        assert client.preferred_transports() == ("smtp", "sms")

    def test_role_filters(self):
        registry = ClientRegistry()
        registry.register("pub", kind=ClientKind.PUBLISHER)
        registry.register("sub", kind=ClientKind.SUBSCRIBER)
        registry.register("both", kind=ClientKind.BOTH)
        assert {c.name for c in registry.publishers()} == {"pub", "both"}
        assert {c.name for c in registry.subscribers()} == {"sub", "both"}
        assert {c.name for c in registry.clients()} == {"pub", "sub", "both"}

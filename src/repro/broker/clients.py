"""Client registry: the decoupled components of a pub/sub system.

"Clients are autonomous components that exchange information by
publishing events and by subscribing to the classes of events they are
interested in" (paper §1).  The demonstration's web application
registers companies (subscribers) and candidates (publishers); each
client carries the transport addresses the notification engine may use
to reach it (Figure 2: SMS / SMTP / TCP / UDP).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import DuplicateClientError, UnknownClientError

__all__ = ["ClientKind", "Client", "ClientRegistry"]


class ClientKind(enum.Enum):
    """What a client does; ``BOTH`` is legal (paper components may
    publish and subscribe)."""

    PUBLISHER = "publisher"
    SUBSCRIBER = "subscriber"
    BOTH = "both"

    @property
    def can_publish(self) -> bool:
        return self in (ClientKind.PUBLISHER, ClientKind.BOTH)

    @property
    def can_subscribe(self) -> bool:
        return self in (ClientKind.SUBSCRIBER, ClientKind.BOTH)


_client_counter = itertools.count(1)


@dataclass(frozen=True)
class Client:
    """An immutable registered client.

    ``addresses`` maps transport name → address, in *preference order*
    (insertion order of the dict); the notification engine tries them
    in that order.
    """

    client_id: str
    name: str
    kind: ClientKind = ClientKind.BOTH
    addresses: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def preferred_transports(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.addresses)

    def __str__(self) -> str:
        return f"{self.name} ({self.client_id}, {self.kind.value})"


class ClientRegistry:
    """Id-keyed client store with auto-assigned ids."""

    def __init__(self) -> None:
        self._clients: dict[str, Client] = {}

    def register(
        self,
        name: str,
        *,
        kind: ClientKind = ClientKind.BOTH,
        addresses: dict[str, str] | tuple[tuple[str, str], ...] = (),
        client_id: str | None = None,
    ) -> Client:
        """Register a client; duplicate explicit ids raise
        :class:`~repro.errors.DuplicateClientError`."""
        if client_id is None:
            client_id = f"c{next(_client_counter)}"
        if client_id in self._clients:
            raise DuplicateClientError(f"client {client_id!r} already registered")
        pairs = tuple(addresses.items()) if isinstance(addresses, dict) else tuple(addresses)
        client = Client(client_id=client_id, name=name, kind=kind, addresses=pairs)
        self._clients[client_id] = client
        return client

    def get(self, client_id: str) -> Client:
        try:
            return self._clients[client_id]
        except KeyError:
            raise UnknownClientError(f"no client {client_id!r}") from None

    def remove(self, client_id: str) -> Client:
        try:
            return self._clients.pop(client_id)
        except KeyError:
            raise UnknownClientError(f"no client {client_id!r}") from None

    def __len__(self) -> int:
        return len(self._clients)

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._clients

    def clients(self) -> Iterator[Client]:
        yield from self._clients.values()

    def subscribers(self) -> Iterator[Client]:
        for client in self._clients.values():
            if client.kind.can_subscribe:
                yield client

    def publishers(self) -> Iterator[Client]:
        for client in self._clients.values():
            if client.kind.can_publish:
                yield client

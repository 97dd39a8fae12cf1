"""Broker substrate: event dispatcher, client registry, and the
multi-transport notification engine of the demonstration setup
(paper Figure 2)."""

from repro.broker.broker import Broker
from repro.broker.clients import Client, ClientKind, ClientRegistry
from repro.broker.dispatcher import EventDispatcher, PublishReport
from repro.broker.durability import (
    Durability,
    DurabilityStats,
    RecoveryReport,
    recover,
)
from repro.broker.sharding import ShardedBroker, ShardedEngine, default_router
from repro.broker.supervision import FaultAction, FaultPlan, SupervisionStats
from repro.broker.notifications import (
    DeliveryEntry,
    DeliveryOutcome,
    Notification,
    NotificationEngine,
    PublicationText,
)
from repro.broker.transports import (
    DeliveryRecord,
    OutboundMessage,
    SmsTransport,
    SmtpTransport,
    TcpTransport,
    Transport,
    TransportRegistry,
    UdpTransport,
    default_transports,
)

__all__ = [
    "Broker",
    "Durability",
    "DurabilityStats",
    "RecoveryReport",
    "recover",
    "ShardedBroker",
    "ShardedEngine",
    "default_router",
    "FaultAction",
    "FaultPlan",
    "SupervisionStats",
    "Client",
    "ClientKind",
    "ClientRegistry",
    "EventDispatcher",
    "PublishReport",
    "Notification",
    "NotificationEngine",
    "DeliveryEntry",
    "PublicationText",
    "DeliveryOutcome",
    "Transport",
    "TransportRegistry",
    "SmsTransport",
    "SmtpTransport",
    "TcpTransport",
    "UdpTransport",
    "OutboundMessage",
    "DeliveryRecord",
    "default_transports",
]

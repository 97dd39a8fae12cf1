"""The notification engine: match → subscriber delivery (Figure 2).

"When the incoming event verifies a subscription, the event dispatcher
sends a notification to the corresponding subscriber" (paper §1).  This
engine owns that last hop: it turns a :class:`SemanticMatch` into a
message, walks the subscriber's transport preferences, retries
transient failures with bounded attempts, and settles every send in its
subscription's delivery log.  Undeliverable notifications land in a
dead-letter list instead of failing the publish path — a slow SMS
gateway must not stall the matcher.

Delivery is *at-least-once with per-subscription sequences*: every
notification carries a monotonic ``sequence`` scoped to its
subscription, the engine keeps a bounded per-subscription delivery log,
and — when the broker is durable — the deliveries of a publication are
journaled as one ``outs`` record before the first send and one
``close`` record after the last, which names only the rows that did
not ack, so crash recovery knows what was decided and what went out
without deciding it again: it adopts the journaled rows, settles the
closed ones and re-sends the rest.  ``replay_from``
re-delivers the retained log from a sequence number for reconnecting
subscribers, who dedup by ``(sub_id, sequence)``.

The fan-out of a publication is *one unit of work*
(:meth:`NotificationEngine.fan_out`): the event's pairs and each
distinct witness's compact steps are stored once
(:class:`PublicationText`, one zlib blob), and a retained delivery holds
its numbers plus the ordinal of that shared text (its publication's
``outs`` record, on disk) — so what the log costs
follows what there is to say, not the number of notifications that said
it.  The engine keeps each text a retained row names in one table,
keyed by ordinal, with a count of the rows that name it; a text leaves
the table when the last of them does.  Nothing
is rendered while the publisher waits: a message's subject and body,
and every retained row's, are rendered from the stored form when
someone reads them — a transport that uses them (SMS), a
:meth:`~NotificationEngine.delivery_log` or ``replay_from`` reader —
each part once per fan-out however many sends read it.

A subscription's retained log is a ring of at most ``history_limit``
rows stored as columns (:class:`_DeliveryLog`), each an ``array`` as
narrow as its values: the notification number as its offset from the
first number of its publication (the text's ``n``), a mark — the status
byte, whose spare bits name the registry transport that delivered the
row, with the derivation index above it — and the text's ordinal as its
offset from the log's ``base``: 4 to 5 bytes of columns a row, plus its
share of its publication's text — while its
subscription id, client id, bound subscription, delivered frontier and
oldest sequence are kept once per log (a stream's sequences are
contiguous, so a row's is derived, and so is the next one).  The
``n<N>`` id is rendered when a row is sent or exported.  Records say
each thing once too: a row carries no client id or subscription text —
recovery takes both from the subscription live at that point of the
stream, drops a row of none, and refuses one that does not continue its
log with :class:`~repro.errors.StateFormatError`.
Recovery keeps nothing of its own: a row, the journal's or the
snapshot's (written in the journal's records), joins its log as it is
read (:meth:`NotificationEngine.adopt`), and what is still pending once
the whole tail is read is re-sent from there.
:class:`DeliveryEntry` remains the row type callers see:
:meth:`NotificationEngine.delivery_log` and ``replay_from`` hand out
copies, and the rows in flight (one fan-out's staged rows, the rows
recovery re-sends) are transient entries whose settling writes the
status column through.  A send's
:class:`DeliveryOutcome` goes back to its caller (``PublishReport
.outcomes``) and is not kept: :meth:`NotificationEngine.delivered_to`
reads the retained logs.  The dead-letter list is the one other store,
a ``deque(maxlen=history_limit)``; everything kept per subscription
(its log, which holds its sequence counter and frontier) is dropped by
:meth:`NotificationEngine.forget` when it unsubscribes, so the engine's
footprint follows the live subscriptions and the window, not the
number of notifications ever sent.

The notification-id counter is engine-owned (not module-global) and
restorable from a snapshot, so ids stay unique across a crash-restart.
"""

from __future__ import annotations

import json
import zlib
from array import array
from collections import defaultdict, deque
from dataclasses import dataclass, field
from sys import intern
from typing import Iterator, Sequence

from repro.broker.clients import Client
from repro.broker.transports import (
    DeliveryRecord,
    OutboundMessage,
    TransportRegistry,
    default_transports,
)
from repro.core.provenance import (
    GENERAL,
    SemanticMatch,
    Witness,
    derivation_part,
    event_part,
    replay,
    step_from,
    subscription_part,
)
from repro.errors import DeliveryError, StateFormatError, TransportError, UnknownClientError
from repro.model.events import Event
from repro.model.subscriptions import Subscription
from repro.model.values import check_value
from repro.ontology.serialization import _decode_value, _encode_value

__all__ = [
    "Notification",
    "NotificationEngine",
    "DeliveryOutcome",
    "DeliveryEntry",
    "PublicationText",
]


def _subject(sub_id: str, event_id: str) -> str:
    return f"S-ToPSS: subscription {sub_id} matched event {event_id}"


@dataclass(frozen=True, slots=True)
class Notification:
    """A match destined for one subscriber, stamped with its
    subscription-scoped delivery sequence."""

    notification_id: str
    client: Client
    match: SemanticMatch | None
    sub_id: str = ""
    sequence: int = 0

    def subject(self) -> str:
        if self.match is None:  # replayed from the journal: pre-rendered
            return f"S-ToPSS: replay of {self.notification_id}"
        return _subject(self.match.subscription.sub_id, self.match.event.event_id)

    def body(self) -> str:
        return "" if self.match is None else self.match.explain()


@dataclass(frozen=True, slots=True)
class DeliveryOutcome:
    """Final fate of one notification."""

    notification: Notification
    record: DeliveryRecord | None
    attempts: int
    delivered: bool
    transport: str = ""
    error: str = ""


#: zlib level of a :class:`PublicationText` blob: a publication's
#: witnesses repeat each other's steps, so the fastest level packs them
#: well already
_PACK_LEVEL = 1


def _value(raw):
    return check_value(_decode_value(raw))


def _pack(pairs, via) -> bytes:
    """A :class:`PublicationText` blob: the JSON ``[pairs, via]``, values
    through :func:`_encode_value`, zlib-packed.  Strings are UTF-8 with
    surrogates passed through, not ``\\u`` escapes, which would join two
    lone surrogates into one character."""
    raw = json.dumps([pairs, via], ensure_ascii=False, separators=(",", ":"), default=_encode_value)
    return zlib.compress(raw.encode("utf-8", "surrogatepass"), _PACK_LEVEL)


def decode_text(event_id: str, pairs: list, via: list) -> tuple[Event, list[Witness]]:
    """The publication and the witnesses a text's stored form spells
    (:meth:`PublicationText.form`), checked: a pair or value that is not
    an event's, a step of an unknown kind, a wrong arity, a field of the
    wrong type or a value step on an attribute its content lacks raises
    (a :class:`~repro.errors.ReproError`, ``ValueError`` or
    ``TypeError``) — so recovery refuses such a record before any read
    would."""
    event = Event([(name, _decode_value(value)) for name, value in pairs], event_id=event_id)
    witnesses = []
    for steps in via:
        witness = Witness(step_from(step, _value) for step in steps)
        content = dict(event.items())
        for step in witness:
            if step[0] <= GENERAL and step[1] not in content:
                raise ValueError(f"a step on {step[1]!r}, which its content does not hold")
            content = replay(content, step)
        witnesses.append(witness)
    return event, witnesses


@dataclass(slots=True)
class PublicationText:
    """The text the notifications of one publication share, in its one
    stored form: the event id, the number of its first notification and
    one zlib blob of the JSON ``[pairs, via]`` — the event's pairs and,
    per distinct witness a subscription accepted, its compact steps
    (:class:`~repro.core.provenance.Witness`), values in the journal's
    codec.  An ``outs`` record holds the same two lists.  One object
    per publication, named by its ``ordinal`` in each of its
    delivery-log rows and kept in its engine's text table as long as any
    of them is retained (``refs`` counts them).

    Nothing is rendered until it is read: :meth:`event_part` and
    :meth:`derivation_part` decode the blob and render what
    :func:`~repro.core.provenance.event_part` and
    :func:`~repro.core.provenance.derivation_part` rendered from the
    live match.  While the publication fans out, each part is rendered
    at most once however many sends read it."""

    event_id: str
    blob: bytes
    #: the number of its first notification (of its first retained one,
    #: adopted from a snapshot), which a retained row's is an offset from
    n: int = field(compare=False)
    #: its key in its engine's text table, drawn in the order texts are made
    ordinal: int = field(default=-1, compare=False)
    #: the retained rows that name it; at zero it leaves the table
    refs: int = field(default=0, compare=False, repr=False)
    #: while its fan-out is in flight, what was decoded and rendered
    #: (``None``: the decoded content; ``-1``: the event part; ``i``:
    #: derivation ``i``); ``None`` otherwise
    _shown: dict | None = field(default=None, compare=False, repr=False)

    def form(self) -> tuple[list, list]:
        """``(pairs, via)`` as a record spells them."""
        pairs, via = json.loads(zlib.decompress(self.blob).decode("utf-8", "surrogatepass"))
        return pairs, via

    def event_part(self) -> str:
        return self._part(-1)

    def derivation_part(self, via: int) -> str:
        return self._part(via)

    def _part(self, key: int) -> str:
        shown = self._shown if self._shown is not None else {}
        part = shown.get(key)
        if part is None:
            read = shown.get(None)
            if read is None:
                read = shown[None] = decode_text(self.event_id, *self.form())
            event, witnesses = read
            part = event_part(event) if key < 0 else derivation_part(witnesses[key], event)
            shown[key] = part
        return part


@dataclass(slots=True)
class DeliveryEntry:
    """One row of the per-subscription delivery log: its ids plus
    references to what it shares with other rows — ``subscription`` with
    the rows of its subscription, ``text`` with the rows of its
    publication — which is everything needed to re-send without the
    original match object (the journal stores the text and the
    subscription's ``sub`` record, so replay works across restarts).
    ``subject`` and ``body`` put the message together on demand; nothing
    retains it per row."""

    sequence: int
    notification_id: str
    client_id: str
    sub_id: str
    #: the subscription bound to its client; rows compare by ``sub_id``
    subscription: Subscription = field(compare=False, repr=False)
    text: PublicationText
    #: which of the text's witnesses explains this row's match
    via: int
    status: str = "pending"  # pending | acked | dead
    #: the registry transport that delivered an acked row; ``""`` when
    #: unknown — records do not store it, so a row recovery adopted from
    #: one reads ``""``, and rows compare equal without it
    transport: str = field(default="", compare=False)

    @property
    def event_id(self) -> str:
        return self.text.event_id

    @property
    def subject(self) -> str:
        return _subject(self.sub_id, self.text.event_id)

    @property
    def body(self) -> str:
        """Byte for byte what :meth:`SemanticMatch.explain
        <repro.core.provenance.SemanticMatch.explain>` rendered."""
        text = self.text
        return (
            subscription_part(self.subscription)
            + text.event_part()
            + text.derivation_part(self.via)
        )


#: a row's status, stored in the low bits of its mark (its status byte)
#: as the index into this tuple
_STATUSES = ("pending", "acked", "dead")
_CODE = {status: code for code, status in enumerate(_STATUSES)}
#: the status byte's bits above the status hold its carrier: 1 + the
#: delivering transport's position in the registry, 0 when none is known
_CARRIER_SHIFT = 2
_STATUS_MASK = (1 << _CARRIER_SHIFT) - 1
#: the largest carrier a status byte holds
_CARRIERS = 0xFF >> _CARRIER_SHIFT
#: a mark's bits above its status byte hold the row's derivation index
_VIA_SHIFT = 8
#: the typecode a column widens to when a value does not fit its own
_WIDER = {"B": "H", "H": "I", "I": "Q"}


def _put(column: array, slot: int, value: int) -> array:
    """Write *value* at *slot* of *column* (appended when *slot* is its
    length) and return the column — a copy widened to the next typecode
    first, for as long as *value* does not fit."""
    try:
        if slot == len(column):
            column.append(value)
        else:
            column[slot] = value
        return column
    except OverflowError:
        return _put(array(_WIDER[column.typecode], column), slot, value)


def _release(texts: dict[int, PublicationText], ordinal: int) -> None:
    """One reference to the text with *ordinal* is gone: at the last,
    the text leaves *texts*."""
    text = texts[ordinal]
    text.refs -= 1
    if not text.refs:
        del texts[ordinal]


class _DeliveryLog:
    """One subscription's retained delivery rows, stored as columns.

    A ring of at most ``capacity`` rows: until it is full a row is
    appended, after that it takes the oldest row's slot and ``start``
    moves on to the next-oldest.  ``sub_id``, ``client_id``,
    ``subscription`` (the subscription bound to its client, rendered
    when a row is read) and ``frontier`` (the highest acked sequence) are
    the log's, not the row's, and a stream's sequences are contiguous, so
    a row stores none: it is ``first`` (the oldest row's) plus the row's
    age, and the stream's next one is ``first`` plus the row count.  A
    row decoded from a record must fit that, or it is refused
    (:meth:`NotificationEngine._log_row`).  Three columns hold a row:
    its notification number as the offset from its text's ``n`` (a byte
    while its publication fans out to at most 256 rows), its mark — the
    status byte with its derivation index above it (a byte while that
    index is 0, two below 256) — and its text as the text's ordinal less
    ``base``, which ``table``, the engine's text table shared by every
    log, resolves.  A value past the offsets' or the marks' typecode
    widens that column (:func:`_put`); one past the ordinals' moves
    ``base`` instead (:meth:`_rebase_ordinals`), so that column is a
    byte while the ring spans fewer than 128 publications, however long
    the log lives.  4 to 5 bytes of columns a row, a byte more in a log
    whose offsets widened.  A row takes a reference to its text when it
    is stored and lets it go when it leaves the ring or the log is
    dropped (:meth:`release`).

    :meth:`NotificationEngine.retained_log` hands it to tests: its
    :meth:`set_status` is the one way a row's status changes, and
    :meth:`columns` lists every object it holds."""

    __slots__ = (
        "sub_id", "client_id", "subscription", "capacity", "start", "first", "frontier",
        "table", "base", "offsets", "marks", "ordinals",
    )  # fmt: skip

    def __init__(
        self,
        sub_id: str,
        client_id: str,
        subscription: Subscription,
        capacity: int,
        first: int,
        table: dict[int, PublicationText],
        base: int,
    ) -> None:
        self.sub_id = sub_id
        self.client_id = client_id
        self.subscription = subscription
        self.capacity = capacity
        self.start = 0
        self.first = first
        self.frontier = 0
        self.table = table
        #: no row names a text of a lower ordinal
        self.base = base
        #: N of each row's notification id ``n<N>``, less its text's ``n``;
        #: the columns start a byte wide and widen as values need (:func:`_put`)
        self.offsets = array("B")
        #: the status byte — an index into :data:`_STATUSES`, the carrier
        #: above it (:data:`_CARRIER_SHIFT`), so naming a transport costs a
        #: row nothing — and the derivation index above that (:data:`_VIA_SHIFT`)
        self.marks = array("B")
        #: each row's text ordinal less ``base``
        self.ordinals = array("B")

    def push(self, number: int, via: int, text: PublicationText, status: int = 0) -> bool:
        """Store the stream's next row, its status byte *status*; True
        when the log was full, so the oldest row left it."""
        count = len(self.marks)
        evicts = count >= self.capacity
        slot = self.start if evicts else count
        if not text.refs:  # its first row: the text joins the table
            self.table[text.ordinal] = text
        text.refs += 1
        if evicts:
            _release(self.table, self.base + self.ordinals[slot])
            self.start = (slot + 1) % count
            self.first += 1
        self.offsets = _put(self.offsets, slot, number - text.n)
        self.marks = _put(self.marks, slot, via << _VIA_SHIFT | status)
        ordinal = text.ordinal - self.base
        if ordinal >> 8 * self.ordinals.itemsize:  # below 0 or past the typecode
            self._rebase_ordinals(slot, text.ordinal)
        else:
            self.ordinals = _put(self.ordinals, slot, ordinal)
        return evicts

    def _rebase_ordinals(self, slot: int, ordinal: int) -> None:
        """Write *ordinal* at *slot* when its offset from ``base`` does
        not fit the ordinal column: ``base`` moves to the lowest ordinal
        the rows then name, and the column is rewritten in the narrowest
        typecode that holds twice their span.  So a log keeps a byte a
        row while its rows span fewer than 128 publications, however long
        it lives; a column narrows again once a wide span has left it;
        and the next rewrite is at least half a column's range of
        publications away."""
        ordinals = array("q", self.ordinals)  # offsets from the old base
        ordinals[slot : slot + 1] = array("q", [ordinal - self.base])  # the slot's row, or one more
        low = min(ordinals)
        span = 2 * (max(ordinals) - low)
        typecode = next((code for code in "BHI" if not span >> 8 * array(code).itemsize), "Q")
        self.base += low
        self.ordinals = array(typecode, (value - low for value in ordinals))

    def release(self) -> None:
        """Let go of every row's text: the log is being dropped."""
        base, table = self.base, self.table
        for ordinal in self.ordinals:
            _release(table, base + ordinal)

    @property
    def next_seq(self) -> int:
        """The sequence the stream's next row takes."""
        return self.first + len(self.marks)

    def _slot(self, sequence: int) -> int | None:
        """The slot of the row with *sequence*; None when not retained."""
        count = len(self.marks)
        offset = sequence - self.first
        if not 0 <= offset < count:
            return None
        slot = self.start + offset
        return slot - count if slot >= count else slot

    def row(self, sequence: int) -> tuple | None:
        """``(number, text ordinal, sub_id, sequence, via, status)`` of
        the row with *sequence*; None when not retained."""
        slot = self._slot(sequence)
        if slot is None:
            return None
        ordinal, mark = self.base + self.ordinals[slot], self.marks[slot]
        return (
            self.table[ordinal].n + self.offsets[slot], ordinal, self.sub_id, sequence,
            mark >> _VIA_SHIFT, _STATUSES[mark & _STATUS_MASK],
        )  # fmt: skip

    def entry(self, sequence: int, transports: tuple[str, ...] = ()) -> DeliveryEntry:
        """The retained row with *sequence*, as an entry in flight;
        *transports* (the registry's names) spell its carrier."""
        slot = self._slot(sequence)
        mark = self.marks[slot]
        carrier = mark >> _CARRIER_SHIFT & _CARRIERS
        text = self.table[self.base + self.ordinals[slot]]
        return DeliveryEntry(
            sequence, f"n{text.n + self.offsets[slot]}", self.client_id, self.sub_id,
            self.subscription, text, mark >> _VIA_SHIFT, _STATUSES[mark & _STATUS_MASK],
            transports[carrier - 1] if 0 < carrier <= len(transports) else "",
        )  # fmt: skip

    def entries(self, transports: tuple[str, ...] = ()) -> list[DeliveryEntry]:
        """The rows as (detached) :class:`DeliveryEntry` copies."""
        first = self.first
        return [self.entry(first + age, transports) for age in range(len(self.marks))]

    def set_status(
        self, sequence: int, status: str, text: PublicationText | None = None, carrier: int = 0
    ) -> bool:
        """Write the status of the row with *sequence*, and its
        *carrier* (1 + the delivering transport's registry position, 0
        for none) — only if it names *text*, when given, so a row in
        flight settles its own retained copy and never a later stream's
        row that re-used its sequence.  False when no such row is
        retained."""
        slot = self._slot(sequence)
        if slot is None or text is not None and self.base + self.ordinals[slot] != text.ordinal:
            return False
        via = self.marks[slot] >> _VIA_SHIFT
        self.marks[slot] = via << _VIA_SHIFT | _CODE[status] | carrier << _CARRIER_SHIFT
        return True

    def columns(self) -> tuple:
        """Every object the log holds."""
        return (
            self.sub_id, self.client_id, self.subscription, self.table, self.offsets, self.marks,
            self.ordinals,
        )  # fmt: skip


@dataclass
class _EngineStats:
    notifications: int = 0
    delivered: int = 0
    dead_lettered: int = 0
    retries: int = 0
    fallbacks: int = 0
    history_evictions: int = 0
    per_transport: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> dict[str, object]:
        return {
            "notifications": self.notifications,
            "delivered": self.delivered,
            "dead_lettered": self.dead_lettered,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "history_evictions": self.history_evictions,
            "per_transport": dict(self.per_transport),
        }


class NotificationEngine:
    """Multi-transport notification delivery with retry and fallback.

    Parameters
    ----------
    transports: the transport registry (defaults to the demo's four).
    max_attempts_per_transport: bounded retries for transient failures.
    raise_on_dead_letter: tests may prefer a loud
        :class:`~repro.errors.DeliveryError` over silent dead-lettering.
    history_limit: capacity of the dead-letter list and of each
        subscription's delivery log; the oldest entry is evicted at
        capacity (counted in ``history_evictions``), which also bounds
        how far back ``replay_from`` can reach.
    durability: the broker's :class:`~repro.broker.durability
        .Durability` store, when deliveries should be journaled (one
        ``outs`` record per publication before its first send, one
        ``close`` record after its last).
    """

    def __init__(
        self,
        transports: TransportRegistry | None = None,
        *,
        max_attempts_per_transport: int = 3,
        raise_on_dead_letter: bool = False,
        history_limit: int = 1024,
        durability=None,
    ) -> None:
        self.transports = transports if transports is not None else default_transports()
        if max_attempts_per_transport < 1:
            raise DeliveryError("max_attempts_per_transport must be >= 1")
        if history_limit < 1:
            raise DeliveryError("history_limit must be >= 1")
        self.max_attempts = max_attempts_per_transport
        self.raise_on_dead_letter = raise_on_dead_letter
        self.history_limit = history_limit
        self.durability = durability
        self.dead_letters: deque[Notification] = deque(maxlen=history_limit)
        self.stats = _EngineStats()
        #: engine-owned, snapshot-restorable id counter (a module global
        #: would restart at 1 after recovery and collide)
        self._next_notification = 1
        self._delivery_log: dict[str, _DeliveryLog] = {}
        #: the texts retained rows name, by ordinal (each log's ``table``)
        self._texts: dict[int, PublicationText] = {}
        self._next_ordinal = 0

    # -- bounded history ---------------------------------------------------------

    def _log_row(self, sub_id, sequence, via, number, owners, text, status) -> bool:
        """Retain a row decoded from a record (the live path is
        :meth:`_stage`) with *status* — unless *owners* (sub_id -> the
        subscription, bound to its client) has none for a new log: its
        stream went with a discarded snapshot.  True when it settled a
        row.  A row that is not the next of its log raises
        :class:`~repro.errors.StateFormatError`."""
        log = self._delivery_log.get(sub_id)
        if log is None:
            subscription = owners.get(sub_id)
            if subscription is None:
                return False
            log = self._new_log(
                sub_id, subscription.subscriber_id, subscription, sequence, text.ordinal
            )
        elif sequence != log.next_seq:
            raise StateFormatError(
                f"delivery-log row {sequence} of {sub_id!r} does not continue its log: "
                "its sequences are not contiguous"
            )
        if log.push(number, via, text, _CODE[status]):
            self.stats.history_evictions += 1
        if status == "acked" and sequence > log.frontier:
            log.frontier = sequence
        return status != "pending"

    def _new_log(self, sub_id, client_id, subscription, first, base) -> _DeliveryLog:
        sub_id = intern(sub_id)
        log = self._delivery_log[sub_id] = _DeliveryLog(
            sub_id, intern(client_id), subscription, self.history_limit, first, self._texts, base
        )
        return log

    def _new_text(self, event_id: str, blob: bytes, n: int) -> PublicationText:
        """A text with the next ordinal; its first row puts it in the
        table."""
        ordinal = self._next_ordinal
        self._next_ordinal = ordinal + 1
        return PublicationText(event_id, blob, n, ordinal)

    def retained_log(self, sub_id: str) -> _DeliveryLog | None:
        """The column store behind :meth:`delivery_log` — a test seam:
        :meth:`_DeliveryLog.set_status` forges a row's status, and
        :meth:`_DeliveryLog.columns` is what a leak check walks."""
        return self._delivery_log.get(sub_id)

    def forget(self, sub_id: str) -> None:
        """Drop what is kept for a subscription that unsubscribed: its
        delivery log, which holds its sequence counter and frontier too
        (an id subscribed again later starts a new stream at sequence
        1), and its rows' references to their texts."""
        log = self._delivery_log.pop(sub_id, None)
        if log is not None:
            log.release()

    # -- delivery --------------------------------------------------------------

    def fan_out(
        self, deliveries: Sequence[tuple[Client, SemanticMatch]]
    ) -> list[DeliveryOutcome]:
        """Deliver one publication's matches, each to its subscriber, as
        one unit of work: :meth:`_stage` draws the sequences, stores what
        the notifications share and journals the one ``outs`` record;
        every row is then sent through :meth:`notify`; one ``close``
        record closes the publication — also when a send aborts the
        fan-out (``raise_on_dead_letter``), so what was settled stays
        settled across a restart."""
        staged = self._stage(deliveries)
        outcomes = []
        try:
            for (client, match), entry in zip(deliveries, staged):
                outcomes.append(self.notify(client, match, entry))
        finally:
            self._journal_close(staged)
            if staged:  # the publication is settled: what its sends rendered goes
                staged[0].text._shown = None
        return outcomes

    def _stage(self, deliveries: Sequence[tuple[Client, SemanticMatch]]) -> list[DeliveryEntry]:
        """The once-per-publication half of :meth:`fan_out`: one
        delivery-log row per match, in order, retained in the log's
        columns and returned as an entry in flight.  A new row draws the
        next sequence of its subscription and references the
        publication's text — the event's pairs and each distinct witness
        once however many subscriptions accepted it (by content, so equal
        witnesses decoded from different shard workers share too), in
        their stored form; nothing is rendered — and the rows go to the
        journal as a single ``outs`` record."""
        if not deliveries:
            return []
        logs = self._delivery_log
        event = deliveries[0][1].event
        text = self._new_text(event.event_id, b"", self._next_notification)
        text._shown = {}
        via_of: dict[Witness, int] = {}
        staged: list[DeliveryEntry] = []
        for client, match in deliveries:
            subscription = match.subscription
            sub_id = subscription.sub_id
            via = via_of.get(match.via)
            if via is None:
                via = via_of[match.via] = len(via_of)
            number = self._next_notification
            self._next_notification = number + 1
            client_id = client.client_id
            log = logs.get(sub_id)
            if log is None:
                log = self._new_log(sub_id, client_id, subscription, 1, text.ordinal)
            sequence = log.next_seq
            if log.push(number, via, text):
                self.stats.history_evictions += 1
            entry = DeliveryEntry(
                sequence, f"n{number}", client_id, sub_id, log.subscription, text, via
            )
            staged.append(entry)
        # the journal's value codec applies as each is written
        pairs, via = event.items(), list(via_of)
        text.blob = _pack(pairs, via)
        if self.durability is not None:
            rows = [[e.sub_id, e.sequence, e.via] for e in staged]
            self.durability.append(
                dict(k="outs", eid=text.event_id, n=text.n, pairs=pairs, via=via, rows=rows)
            )
        return staged

    def notify(
        self, client: Client, match: SemanticMatch, entry: DeliveryEntry | None = None
    ) -> DeliveryOutcome:
        """Deliver one match to one subscriber.  Called with a match
        alone this is a fan-out of one; :meth:`fan_out` passes the row it
        staged for the match, and the call is the send itself."""
        if entry is None:
            return self.fan_out([(client, match)])[0]
        notification = Notification(
            entry.notification_id, client, match, sub_id=entry.sub_id, sequence=entry.sequence
        )
        outcome = self._walk_transports(notification, entry)
        self._settle(entry, outcome)
        return self._finish(outcome)

    def _settle(self, entry: DeliveryEntry, outcome: DeliveryOutcome) -> None:
        """Terminal bookkeeping for one send: log status, carrier and
        delivered frontier (a dead letter is terminal too: recovery never
        re-sends it either).  *entry* is a row in flight; the status is
        written through to its retained copy, if the log still holds
        it."""
        delivered = outcome.delivered
        status = entry.status = "acked" if delivered else "dead"
        carrier = 0
        if delivered:
            entry.transport = outcome.transport
            carrier = self.transports.position(outcome.transport) + 1
            if carrier > _CARRIERS:  # past what the status byte can name
                carrier = 0
        log = self._delivery_log.get(entry.sub_id)
        if log is not None:
            log.set_status(entry.sequence, status, entry.text, carrier)
            if delivered:
                log.frontier = max(log.frontier, entry.sequence)

    def _journal_close(self, staged: list[DeliveryEntry]) -> None:
        """The ``close`` record of a fan-out's ``outs``: each *staged* row
        not ``acked``, by position, with its status (``dead``, or
        ``pending`` after an aborted fan-out)."""
        if self.durability is not None and staged:
            rows = [[at, row.status] for at, row in enumerate(staged) if row.status != "acked"]
            self.durability.append({"k": "close", "rows": rows})

    def _walk_transports(self, notification: Notification, row: DeliveryEntry) -> DeliveryOutcome:
        """The transport-preference walk with bounded retries; returns
        the outcome without recording it (callers settle + finish).  A
        message carries *row*, as its transport's payload: its subject
        and body are rendered only if something reads them."""
        client = notification.client
        self.stats.notifications += 1
        attempts, last_error = 0, ""
        if not client.addresses:
            return DeliveryOutcome(notification, None, 0, False, error="client has no addresses")
        for position, (transport_name, address) in enumerate(client.addresses):
            if transport_name not in self.transports:
                last_error = f"unknown transport {transport_name!r}"
                continue
            if position > 0:
                self.stats.fallbacks += 1
            transport = self.transports.get(transport_name)
            payload = transport.payload(row)
            for attempt in range(1, self.max_attempts + 1):
                attempts += 1
                if attempt > 1:
                    self.stats.retries += 1
                message = OutboundMessage(
                    transport_name, address, payload, notification.notification_id, attempt
                )
                try:
                    record = transport.send(message)
                except TransportError as exc:
                    last_error = str(exc)
                    continue
                # UDP "drops" are successful sends from the engine's
                # perspective: fire-and-forget semantics.
                self.stats.delivered += 1
                self.stats.per_transport[transport_name] = (
                    self.stats.per_transport.get(transport_name, 0) + 1
                )
                return DeliveryOutcome(
                    notification, record, attempts, True, transport=transport_name
                )
        return DeliveryOutcome(notification, None, attempts, False, error=last_error)

    def _finish(self, outcome: DeliveryOutcome) -> DeliveryOutcome:
        if not outcome.delivered:
            if len(self.dead_letters) == self.history_limit:
                self.stats.history_evictions += 1
            self.dead_letters.append(outcome.notification)
            self.stats.dead_lettered += 1
            if self.raise_on_dead_letter:
                raise DeliveryError(
                    f"notification {outcome.notification.notification_id} "
                    f"undeliverable: {outcome.error}"
                )
        return outcome

    # -- replay-from-sequence ------------------------------------------------------

    def replay_from(self, sub_id: str, sequence: int, registry) -> list[DeliveryOutcome]:
        """Re-deliver every retained delivery-log entry for *sub_id*
        with ``sequence >= sequence`` (a reconnecting subscriber's
        catch-up; it dedups by sequence number).  Still-pending entries
        are settled by their re-send; already-settled ones keep their
        status.  Bounded by ``history_limit`` — evicted entries are
        gone."""
        log = self._delivery_log.get(sub_id)
        outcomes = []
        for entry in log.entries() if log is not None else ():
            if entry.sequence < sequence:
                continue
            outcomes.append(self._redeliver(entry, registry))
        return outcomes

    def _redeliver(self, entry: DeliveryEntry, registry) -> DeliveryOutcome:
        """Re-send one journaled delivery from its stored text (no match
        object needed); a pending one is settled and acked — a fan-out
        of one row."""
        try:
            client = registry.get(entry.client_id)
        except UnknownClientError:
            client = None
        notification = Notification(
            entry.notification_id, client, None, sub_id=entry.sub_id, sequence=entry.sequence
        )
        if client is None:
            outcome = DeliveryOutcome(
                notification, None, 0, False, error=f"client {entry.client_id!r} removed"
            )
        else:
            outcome = self._walk_transports(notification, entry)
            if self.durability is not None:
                self.durability.stats.replayed_deliveries += 1
        if entry.status == "pending":  # settled, and journaled as a one-row acks
            self._settle(entry, outcome)
            if self.durability is not None:
                row = [entry.sub_id, entry.sequence, entry.status == "acked"]
                self.durability.append({"k": "acks", "rows": [row]})
        return outcome

    # -- crash-recovery protocol (driven by durability.recover) --------------------

    def adopt(self, record: dict, owners: dict, close: dict | None = None) -> int:
        """Apply one delivery record, journaled or :meth:`durable_state`'s,
        in file order, as the live run did; returns how many rows it
        settled.  Each row of an ``outs`` (but a ``null`` one) joins its
        log through :meth:`_log_row`, its publication's text shared,
        settled by *close*, the ``close`` record after it — ``acked`` but
        the rows it lists — or pending without one.  An ``acks`` settles
        each ``[sub_id, sequence, ok]``; ``frontier`` and ``notifier``
        set a stream's delivered frontier and the id counter."""
        kind = record["k"]
        if kind == "outs":
            rows, first = record["rows"], record["n"]
            text = self._new_text(record["eid"], _pack(record["pairs"], record["via"]), first)
            self._next_notification = first + len(rows)
            listed = dict(close["rows"]) if close is not None else None
            settled = 0
            for at, row in enumerate(rows):
                if row is not None:
                    status = "pending" if listed is None else listed.get(at, "acked")
                    settled += self._log_row(*row, first + at, owners, text, status)
            return settled
        if kind == "frontier":
            log = self._delivery_log.get(record["sid"])
            if log is not None:
                log.frontier = record["seq"]
            return 0
        if kind == "notifier":
            self._next_notification = record["next_notification"]
            return 0
        count = 0
        for sub_id, sequence, ok in record["rows"]:  # acks
            log = self._delivery_log.get(sub_id)
            if log is not None and log.set_status(sequence, "acked" if ok else "dead"):
                count += 1
                if ok:
                    log.frontier = max(log.frontier, sequence)
        return count

    def finish_replay(self, registry) -> None:
        """End recovery: every retained row still pending once the
        snapshot and the whole journal tail are adopted — its fan-out
        never closed, or closed with the row pending — is re-sent from
        its stored text (at-least-once), in the order the rows were
        first sent."""
        pending = sorted(
            log.row(log.first + (slot - log.start) % len(log.marks))
            for log in self._delivery_log.values()
            for slot, mark in enumerate(log.marks)
            if mark & _STATUS_MASK == _CODE["pending"]
        )
        for _, _, sub_id, sequence, _, _ in pending:
            self._redeliver(self._delivery_log[sub_id].entry(sequence), registry)

    # -- durable state -------------------------------------------------------------

    def durable_state(self) -> Iterator[dict]:
        """Snapshot-side state as the records :meth:`adopt` reads: per
        publication a retained row names, in notification order, its
        ``outs`` — from its first retained row, a row gone between two
        written ``null`` — and ``close``; then a ``frontier`` per stream
        that acked a row, by subscription id, and the id counter
        (``notifier``).  A log's rows name texts in ordinal order, so each
        log waits, with the age of its next row, under that row's ordinal:
        the walk reads each run of rows that name one text straight off the
        log's columns."""
        waiting = defaultdict(list)  # text ordinal -> [(log, age of its next row)]
        for log in self._delivery_log.values():
            waiting[log.base + log.ordinals[log.start]].append((log, 0))
        while waiting:
            ordinal = min(waiting)
            found = []  # (offset from the text's n, sub_id, sequence, mark)
            for log, age in waiting.pop(ordinal):
                count, local = len(log.marks), ordinal - log.base
                slot = (log.start + age) % count
                while age < count and log.ordinals[slot] == local:  # its run naming the text
                    found.append((log.offsets[slot], log.sub_id, log.first + age, log.marks[slot]))
                    age, slot = age + 1, (slot + 1) % count
                if age < count:
                    waiting[log.base + log.ordinals[slot]].append((log, age))
            found.sort()  # by notification number
            low = found[0][0]
            rows, exceptions = [None] * (found[-1][0] + 1 - low), []  # None: a row gone
            for offset, sub_id, sequence, mark in found:
                rows[offset - low] = [sub_id, sequence, mark >> _VIA_SHIFT]
                status = _STATUSES[mark & _STATUS_MASK]
                if status != "acked":
                    exceptions.append([offset - low, status])
            text = self._texts[ordinal]
            pairs, via = text.form()
            n = text.n + low
            yield dict(k="outs", eid=text.event_id, n=n, pairs=pairs, via=via, rows=rows)
            yield {"k": "close", "rows": exceptions}
        for sub_id in sorted(self._delivery_log):  # not creation order: adopt's differs
            if frontier := self._delivery_log[sub_id].frontier:
                yield {"k": "frontier", "sid": sub_id, "seq": frontier}
        yield {"k": "notifier", "next_notification": self._next_notification}

    # -- reporting ----------------------------------------------------------------

    def delivered_to(self, client_id: str) -> list[DeliveryEntry]:
        """The retained delivery-log rows of one subscriber that settled
        ``acked``, as copies, oldest notification first; a row's
        ``transport`` names the transport that delivered it."""
        transports = self.transports.names()
        rows = [
            entry
            for log in self._delivery_log.values()
            if log.client_id == client_id
            for entry in log.entries(transports)
            if entry.status == "acked"
        ]
        rows.sort(key=lambda entry: int(entry.notification_id[1:]))
        return rows

    def delivery_frontiers(self) -> dict[str, int]:
        """Highest acked delivery sequence per subscription — the
        quantity crash recovery must preserve exactly."""
        return {sub_id: log.frontier for sub_id, log in self._delivery_log.items() if log.frontier}

    def delivery_log(self, sub_id: str) -> list[DeliveryEntry]:
        """The retained (bounded) delivery log for one subscription, as
        copies of its rows: a row's status changes only by settling."""
        log = self._delivery_log.get(sub_id)
        return log.entries(self.transports.names()) if log is not None else []

    def snapshot(self) -> dict[str, object]:
        data = self.stats.snapshot()
        data["dead_letters"] = len(self.dead_letters)
        data["transports"] = self.transports.stats()
        return data

    def reset(self) -> None:
        self.dead_letters.clear()
        self.stats = _EngineStats()
        self.transports.reset()

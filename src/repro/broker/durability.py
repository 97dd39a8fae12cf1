"""Durable broker state: write-ahead journal, snapshots, recovery.

PR 8 made the shard *data plane* survivable; this module makes the
broker itself survive.  The model is recovery-to-a-legal-state
(Feldmann et al.'s self-stabilizing supervised pub/sub, ``PAPERS.md``):
every state-changing broker operation — client register/remove,
subscribe/unsubscribe, reconfigure, publish — lands in an append-only,
CRC-checksummed journal, and :func:`recover` rebuilds a
:class:`~repro.broker.broker.Broker` equivalent to the uncrashed run by
replaying those records through the broker's *normal* code paths (so
shard routing, the InterestIndex, and respawn specs all rebuild for
free).

Four design rules keep recovery boring:

1. **Torn tails never refuse to start.**  A record is one line,
   ``<crc32-hex8> <canonical-json>\\n``; the reader stops at the first
   incomplete or checksum-failing line, physically truncates the
   garbage, and counts one ``torn_tail_truncations``.  A crash mid
   ``write(2)`` therefore costs at most the record being written.
2. **Snapshots compact, sequence numbers reconcile.**  Every
   ``snapshot_every`` operations the broker folds its full state into
   ``snapshot.json`` — a stream of small CRC-framed records between a
   head and a counting trailer, written to a temp file as they are
   produced, then atomically renamed — and restarts the journal.  Each
   journal record carries a monotonic ``i``; the snapshot records the
   last one folded in, so a crash between rename and truncate merely
   makes replay skip already-folded records.  A snapshot that fails
   any check anywhere is discarded whole before any of it is applied.
3. **A publication is decided once; deliveries are at-least-once.**
   The notification engine journals one ``outs`` record per
   publication (every delivery's subscription and per-subscription
   sequence, and once what the deliveries share: the event's pairs and
   each distinct witness's compact steps, rendered only when read)
   before the first send and one ``close`` record after the last,
   which lists only the rows that did not ack; the snapshot writes the
   retained rows in the same records.  A row repeats nothing a ``sub``
   record holds: recovery takes its client and subscription text from
   the subscription live at that point of the stream.  Recovery reads
   the snapshot, then the journal tail, once, in order: the ``outs``
   rows join their delivery logs, settled by their ``close`` (and any
   ``acks``; the tail's count in ``dedup_drops``), and what is still
   pending at the end is re-sent (``replayed_deliveries``).  A
   journaled publish is not matched again — its ``outs`` say what it
   delivered, and one without ``outs`` delivered nothing — except the
   tail's last record group, a publish without ``outs``: the crash may
   have cut it before its ``outs``, so it is decided again, against the
   knowledge base the caller passes (knowledge-base writes are not
   journaled).
4. **One format.**  Recovery reads only what this module writes, each
   record checked against its kind's form (:data:`_FORMS`: keys, field
   types, row arity, references) in the pass that already reads the
   file: a snapshot holding any other format, record form or
   configuration key is discarded whole; a journal holding one is
   refused with :class:`~repro.errors.StateFormatError` naming the
   record's ``i``, before the broker is built or a byte of the directory
   changes.

Fault injection reuses PR 8's :class:`~repro.broker.supervision
.FaultPlan`: a ``crash`` action at slot ``(0, append_index)`` makes the
journal write a *torn* prefix of that record and raise
:class:`~repro.errors.SimulatedCrash` — the crash-equivalence property
suite sweeps that offset across every prefix of a seeded trace.

Full prose: ``docs/DURABILITY.md``.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import logging
import os
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator

from repro.broker.clients import Client, ClientKind
from repro.broker.notifications import decode_text
from repro.broker.supervision import FaultPlan
from repro.core.config import SemanticConfig
from repro.errors import DurabilityError, ReproError, SimulatedCrash, StateFormatError
from repro.model.events import Event
from repro.model.subscriptions import Subscription
from repro.ontology.serialization import (
    _decode_predicate,
    _decode_value,
    _encode_predicate,
    _encode_value,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.broker.broker import Broker
    from repro.ontology.knowledge_base import KnowledgeBase

__all__ = [
    "Durability",
    "DurabilityStats",
    "RecoveryReport",
    "recover",
    "JOURNAL_NAME",
    "SNAPSHOT_NAME",
]

JOURNAL_NAME = "journal.log"
SNAPSHOT_NAME = "snapshot.json"
#: snapshot layout, a record stream (head, content records, counting
#: trailer) whose retained deliveries are the journal's ``outs`` and
#: ``close`` records, their rows taking client and subscription from
#: their ``sub`` record; a file of any other format is discarded
FORMAT_VERSION = 6
_CONFIG_FIELDS = frozenset(field.name for field in dataclasses.fields(SemanticConfig))

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

class DurabilityStats:
    """Deterministic durability counters, cumulative for one
    :class:`Durability` instance (journal *and* recovery sides).
    Surfaced through ``Broker.stats()["durability"]`` and the
    :func:`~repro.metrics.aggregate.durability_summary` shape in
    ``Broker.health()``."""

    __slots__ = (
        "journal_appends",
        "journal_bytes",
        "snapshot_compactions",
        "torn_tail_truncations",
        "replayed_deliveries",
        "dedup_drops",
        "replay_skips",
    )

    def __init__(self) -> None:
        self.journal_appends = 0
        self.journal_bytes = 0
        self.snapshot_compactions = 0
        self.torn_tail_truncations = 0
        self.replayed_deliveries = 0
        self.dedup_drops = 0
        self.replay_skips = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict view (JSON-safe, ``merge_stats``-summable)."""
        return {name: getattr(self, name) for name in self.__slots__}


@dataclasses.dataclass
class RecoveryReport:
    """What :func:`recover` found and did, attached to the returned
    broker as ``broker.recovery``."""

    snapshot_loaded: bool = False
    snapshot_discarded: bool = False
    records_replayed: int = 0
    torn_tail_truncations: int = 0
    replayed_deliveries: int = 0
    dedup_drops: int = 0
    replay_skips: int = 0
    next_op_index: int = 0


# ---------------------------------------------------------------------------
# record framing: one line per record, CRC32 over the JSON body
# ---------------------------------------------------------------------------

def _encode_record(payload: dict) -> bytes:
    """*payload* framed; a value JSON cannot spell (a ``Period``) goes
    through :func:`_encode_value`.  Strings are UTF-8 with surrogates
    passed through, not ``\\u`` escapes, which ``json.loads`` would join
    into one character when a lone high surrogate precedes a lone low
    one."""
    text = json.dumps(
        payload, ensure_ascii=False, separators=(",", ":"), sort_keys=True, default=_encode_value
    )
    body = text.encode("utf-8", "surrogatepass")
    return b"%08x " % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"


def _decode_line(line: bytes) -> dict | None:
    """The record framed in *line* (terminator included), or ``None``
    for an incomplete line, a malformed frame, a checksum mismatch or a
    non-object body."""
    if len(line) < 11 or line[8:9] != b" " or line[-1:] != b"\n":
        return None
    try:
        expected = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:-1]
    if zlib.crc32(body) & 0xFFFFFFFF != expected:
        return None
    try:
        payload = json.loads(body.decode("utf-8", "surrogatepass"))
    except (UnicodeDecodeError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class _RecordReader:
    """Iterates the records of an open binary *handle* one line at a
    time, so memory is one record however long the file.  Iteration
    stops at the first line :func:`_decode_line` rejects — everything
    from there on is a torn tail — or, with *limit*, once that many
    bytes were read.  Afterwards ``clean_length`` is the byte offset
    where the clean prefix ends and ``torn`` says whether it ended at a
    bad line."""

    def __init__(self, handle: BinaryIO, limit: int | None = None) -> None:
        self._handle = handle
        self._limit = limit
        self.clean_length = 0
        self.torn = False

    def __iter__(self) -> Iterator[dict]:
        limit = self._limit
        for line in self._handle:
            if limit is not None and self.clean_length >= limit:
                return
            payload = _decode_line(line)
            if payload is None:
                self.torn = True
                return
            self.clean_length += len(line)
            yield payload


def _scan_records(raw: bytes) -> tuple[list[dict], int, bool]:
    """Parse *raw* journal bytes: ``(records, clean_length, torn)`` —
    :class:`_RecordReader` over an in-memory buffer, for tests and
    tools that already hold the bytes."""
    reader = _RecordReader(io.BytesIO(raw))
    records = list(reader)
    return records, reader.clean_length, reader.torn


# ---------------------------------------------------------------------------
# payload codecs (reuse the ontology serialization's value/predicate forms)
# ---------------------------------------------------------------------------

def _encode_config(config: SemanticConfig) -> dict:
    return dataclasses.asdict(config)


def _encode_client(client: Client) -> dict:
    return {
        "k": "client",
        "id": client.client_id,
        "name": client.name,
        "kind": client.kind.value,
        "addr": [[transport, address] for transport, address in client.addresses],
    }


def _encode_subscription(subscription: Subscription, client_id: str) -> dict:
    return {
        "k": "sub",
        "sid": subscription.sub_id,
        "cid": client_id,
        "mg": subscription.max_generality,
        "preds": [_encode_predicate(p) for p in subscription.predicates],
    }


def _decode_subscription(data: dict) -> Subscription:
    return Subscription(
        tuple(_decode_predicate(p) for p in data["preds"]),
        subscriber_id=data["cid"],
        sub_id=data["sid"],
        max_generality=data["mg"],
    )


def _encode_event(event: Event, client_id: str) -> dict:
    return {
        "k": "pub",
        "cid": client_id,
        "eid": event.event_id,
        "pairs": [[attribute, _encode_value(value)] for attribute, value in event.items()],
    }


def _decode_event(data: dict) -> Event:
    return Event(
        [(attribute, _decode_value(value)) for attribute, value in data["pairs"]],
        event_id=data["eid"],
    )


# ---------------------------------------------------------------------------
# record forms: each kind's fields, checked before anything is applied
# ---------------------------------------------------------------------------

#: a check takes a column — the values one field, or one position of a
#: field's rows, holds across what is checked — and says whether every
#: value fits; builtins do the per-value work, so a fan-out's hundreds
#: of ``outs`` rows cost a few passes at C speed
_Check = Callable[[Iterable], bool]


def _of(*types: type) -> _Check:
    """Every value exactly of one of *types* (so a ``bool`` is no ``int``)."""
    allowed = frozenset(types)
    return lambda values: set(map(type, values)) <= allowed


def _ints(low: int) -> _Check:
    """Every value an ``int`` from *low* that a signed 64-bit column holds."""
    return lambda values: set(map(type, values)) <= {int} and (
        not values or low <= min(values) and max(values) < 1 << 63
    )


def _each(check: _Check) -> _Check:
    """Every value a list whose items pass *check*."""
    return lambda values: all(type(value) is list and check(value) for value in values)


def _rows(*columns: _Check, gaps: bool = False) -> _Check:
    """Every value a list of rows of ``len(columns)`` items, the items at
    each position passing that position's check; with *gaps*, a row may
    be ``None`` instead."""
    width = len(columns)

    def fit(rows: list) -> bool:
        rows = [row for row in rows if row is not None] if gaps else rows
        return (
            set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {width}
            and all(check(column) for check, column in zip(columns, zip(*rows)))
        )

    return _each(fit)


def _configs(values: Iterable) -> bool:
    """Every value a :class:`SemanticConfig` as ``dataclasses.asdict``
    spells it: a dict of ``bool``, ``int`` and ``None`` values."""
    return all(type(value) is dict and _SCALARS(value.values()) for value in values)


_STR, _SCALARS, _NATURAL, _COUNT = _of(str), _of(bool, int, type(None)), _ints(0), _ints(1)
#: an event's pairs, values in :func:`_encode_value`'s form
_PAIRS = _rows(_STR, _of(str, int, float, bool, dict))
#: per record kind, a check for each of its fields besides ``k``
_FORMS: dict[str, dict[str, _Check]] = {
    "broker": {
        "next_op_index": _NATURAL,
        "config": lambda values: _configs(value for value in values if value is not None),
    },
    "client": {"id": _STR, "name": _STR, "kind": _STR, "addr": _rows(_STR, _STR)},
    "sub": {"sid": _STR, "cid": _STR, "mg": _of(int, type(None)), "preds": _of(list)},
    "frontier": {"sid": _STR, "seq": _COUNT},
    "notifier": {"next_notification": _COUNT},
    "remove": {"id": _STR},
    "unsub": {"sid": _STR},
    "config": {"cfg": _configs},
    "pub": {"cid": _STR, "eid": _STR, "pairs": _PAIRS},
    "outs": {
        "eid": _STR,
        "pairs": _PAIRS,
        "via": _each(_of(list)),
        "n": _COUNT,
        "rows": _rows(_STR, _COUNT, _NATURAL, gaps=True),
    },
    # the rows of the outs before it that did not ack: [position, status]
    "close": {"rows": _rows(_NATURAL, _STR)},
    "acks": {"rows": _rows(_STR, _COUNT, _of(bool))},
}
#: the forms a snapshot's content and the journal hold, exactly: a journal
#: record also carries its sequence ``i`` and, for a broker operation, its
#: operation index ``oi``
_SNAPSHOT_FORMS = {
    kind: _FORMS[kind]
    for kind in ("broker", "client", "sub", "outs", "close", "frontier", "notifier")
}
_DELIVERY_KINDS = ("outs", "close", "acks")
#: the statuses a ``close`` record names a row with
_UNACKED = ("pending", "dead")
_JOURNAL_FORMS = {
    kind: {**_FORMS[kind], "i": _COUNT, **({} if kind in _DELIVERY_KINDS else {"oi": _NATURAL})}
    for kind in ("client", "remove", "sub", "unsub", "config", "pub", *_DELIVERY_KINDS)
}
#: the records whose content is only known good once decoded
_DECODERS: dict[str, Callable[[dict], object]] = {
    "client": lambda record: ClientKind(record["kind"]),
    "sub": _decode_subscription,
    "pub": _decode_event,
    "outs": lambda record: decode_text(record["eid"], record["pairs"], record["via"]),
    "broker": lambda record: record["config"] is None or SemanticConfig(**record["config"]),
    "config": lambda record: SemanticConfig(**record["cfg"]),
}


def _malformed(record: dict, forms: dict, previous: dict | None) -> str:
    """Why *record* is not one this broker writes where *forms* are
    written — its kind, its keys, a field's type, a row's arity, a
    reference past what it refers to, or content that does not decode —
    or ``""`` when it is.  *previous* is the record before it, the
    ``outs`` whose rows a ``close`` names by position."""
    kind = record.get("k")
    if type(kind) is not str or kind not in forms:
        return f"is of kind {kind!r}"
    config = record.get("config" if kind == "broker" else "cfg")
    if type(config) is dict and config.keys() - _CONFIG_FIELDS:
        return f"carries config keys {sorted(config.keys() - _CONFIG_FIELDS)}"
    form = forms[kind]
    if record.keys() - {"k"} != form.keys():
        return f"holds keys {sorted(record.keys() - {'k'})}, not {sorted(form)}"
    for name, check in form.items():
        if not check((record[name],)):
            return f"has a malformed {name!r}"
    rows = record.get("rows")
    if kind == "outs" and max((row[2] for row in rows if row), default=-1) >= len(record["via"]):
        return "names a derivation past its list"
    if kind == "close":
        outs = previous["rows"] if previous is not None and previous.get("k") == "outs" else []
        if not all(at < len(outs) and outs[at] and status in _UNACKED for at, status in rows):
            return "names a row its outs does not hold, or a status other than pending or dead"
    decode = _DECODERS.get(kind)
    if decode is not None:
        try:
            decode(record)
        except (ReproError, LookupError, TypeError, ValueError) as exc:
            return f"does not decode ({type(exc).__name__}: {exc})"
    return ""


def _breaks_stream(record: dict, streams: dict[str, int]) -> bool:
    """Whether a well-formed snapshot record does not fit the delivery
    streams before it — an ``outs`` row that does not continue its
    stream, or a ``frontier`` past its stream's rows — where *streams*
    maps each stream to its next sequence, and takes *record*'s rows."""
    if record["k"] == "frontier":
        return record["seq"] >= streams.get(record["sid"], 0)
    for sub_id, sequence, _ in filter(None, record["rows"] if record["k"] == "outs" else ()):
        if streams.setdefault(sub_id, sequence) != sequence:
            return True
        streams[sub_id] = sequence + 1
    return False


def _with_close(records: Iterable[dict]) -> Iterator[tuple[dict, dict | None]]:
    """*records* in order, each with the ``close`` after it or ``None``:
    an ``outs`` comes with its ``close``, which is not yielded again."""
    closed = None
    for record, after in itertools.pairwise(itertools.chain(records, [{"k": None}])):
        if record is not closed:
            closed = after if after["k"] == "close" else None
            yield record, closed


# ---------------------------------------------------------------------------
# the journal + snapshot store
# ---------------------------------------------------------------------------

class Durability:
    """One broker's durable store: ``journal.log`` + ``snapshot.json``
    inside *directory*.

    Parameters
    ----------
    directory: created if missing; one broker per directory.
    snapshot_every: fold state into a compacted snapshot every N
        journaled operations (``0`` disables automatic compaction;
        ``Broker.checkpoint()`` always works).
    fsync: ``True`` pays an ``fsync(2)`` per append for real crash
        durability; the default flushes to the OS only (fast, and
        exactly as strong for the in-process crash model the tests
        simulate).
    fault_plan: a :class:`~repro.broker.supervision.FaultPlan` consulted
        at slot ``(0, append_index)`` before every append; a ``crash``
        action writes a torn prefix of the record and raises
        :class:`~repro.errors.SimulatedCrash`.  Non-crash kinds in the
        slot are ignored (durability plans should schedule only
        ``crash``).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        snapshot_every: int = 1000,
        fsync: bool = False,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if snapshot_every < 0:
            raise DurabilityError("snapshot_every must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.directory / JOURNAL_NAME
        self.snapshot_path = self.directory / SNAPSHOT_NAME
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self.fault_plan = fault_plan
        self.stats = DurabilityStats()
        #: recovery replay in progress: the broker suppresses op
        #: journaling (the records being replayed already exist)
        self.replay_active = False
        self._crashed = False
        self._handle = None
        self._seq = 0  # last record sequence number assigned
        self._append_index = 0  # lifetime fault-plan offset axis
        self._ops_since_snapshot = 0

    # -- introspection ---------------------------------------------------------

    @property
    def has_state(self) -> bool:
        """Does the directory already hold durable state?  A fresh
        ``Broker(durability=...)`` refuses such a directory — that state
        belongs to :func:`recover`."""
        if self.snapshot_path.exists():
            return True
        try:
            return self.journal_path.stat().st_size > 0
        except OSError:
            return False

    @property
    def last_seq(self) -> int:
        return self._seq

    # -- appending -------------------------------------------------------------

    def _open(self):
        if self._handle is None:
            created = self.fsync and not self.journal_path.exists()
            self._handle = open(self.journal_path, "ab")
            if created:
                self._sync_directory()
        return self._handle

    def _sync_directory(self) -> None:
        """``fsync`` the directory, so a file created or renamed in it
        survives a power loss."""
        descriptor = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)

    def append(self, payload: dict) -> int:
        """Journal one record (the ``i`` sequence field is stamped
        here); returns its sequence number.  An injected ``crash``
        writes a torn prefix instead and raises
        :class:`~repro.errors.SimulatedCrash`."""
        if self._crashed:
            raise DurabilityError(
                "journal crashed (SimulatedCrash fired); recover() the directory"
            )
        record = dict(payload)
        record["i"] = self._seq + 1
        data = _encode_record(record)
        index = self._append_index
        self._append_index += 1
        fault = self.fault_plan.take(0, index) if self.fault_plan is not None else None
        handle = self._open()
        if fault == "crash":
            handle.write(data[: len(data) // 2])
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
            self._crashed = True
            raise SimulatedCrash(f"simulated crash at journal append {index}")
        handle.write(data)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self._seq = record["i"]
        self.stats.journal_appends += 1
        self.stats.journal_bytes += len(data)
        return self._seq

    def note_op(self) -> None:
        """Count one broker-level operation toward auto-compaction."""
        self._ops_since_snapshot += 1

    def should_compact(self) -> bool:
        return (
            self.snapshot_every > 0
            and not self.replay_active
            and not self._crashed
            and self._ops_since_snapshot >= self.snapshot_every
        )

    # -- snapshots ---------------------------------------------------------------

    def compact(self, records: Iterable[dict]) -> None:
        """Fold the broker's full durable state — *records*, a stream of
        small content records — into an atomically-replaced snapshot,
        then restart the journal.  Each record is framed and written as
        it is produced, between a head (``format``, ``last_seq``) and a
        trailer (content record count, ``last_seq``), so the cost in
        memory is one record.  Safe against a crash at any point: replay
        skips journal records whose sequence the snapshot already folded
        in, and a snapshot without its trailer is never loaded."""
        if self._crashed:
            raise DurabilityError("journal crashed; recover() the directory")
        tmp_path = self.snapshot_path.with_suffix(".tmp")
        count = 0
        with open(tmp_path, "wb") as handle:
            handle.write(
                _encode_record({"k": "snapshot", "format": FORMAT_VERSION, "last_seq": self._seq})
            )
            for record in records:
                handle.write(_encode_record(record))
                count += 1
            handle.write(_encode_record({"k": "end", "records": count, "last_seq": self._seq}))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, self.snapshot_path)
        if self.fsync:  # the rename must be durable before the journal is cut
            self._sync_directory()
        self.close()
        if self.journal_path.exists():  # else the next append creates it, and syncs that
            with open(self.journal_path, "wb"):
                pass  # truncate: everything up to last_seq now lives in the snapshot
        self.stats.snapshot_compactions += 1
        self._ops_since_snapshot = 0

    def load_snapshot(self) -> tuple[Iterator[dict] | None, int, bool]:
        """``(content_records, last_seq, discarded)`` — a missing
        snapshot is ``(None, 0, False)``; an unreadable one is
        ``(None, 0, True)`` (never refuse to start).  One pass checks
        the framing and CRC of every line, the head's format, that every
        record between head and trailer is a content record this broker
        writes, in its form (:func:`_malformed`) and continuing the
        delivery streams before it (:func:`_breaks_stream`), and that
        the trailer counts exactly those; only a file
        that passes is handed on, as a second line-at-a-time iterator
        over its content records."""
        try:
            handle = open(self.snapshot_path, "rb")
        except OSError:
            return None, 0, False
        with handle:
            reader = _RecordReader(handle)
            head = last = previous = None
            count = content = 0
            streams: dict[str, int] = {}
            for record in reader:
                if head is None:
                    head = record
                well_formed = not (
                    _malformed(record, _SNAPSHOT_FORMS, previous) or _breaks_stream(record, streams)
                )
                content += well_formed
                # a close is read against the outs before it only when that outs is well formed
                previous = record if well_formed else None
                last = record
                count += 1
        if (
            reader.torn
            or count < 2
            or content != count - 2
            or head.get("k") != "snapshot"
            or head.get("format") != FORMAT_VERSION
            or not isinstance(head.get("last_seq"), int)
            or last.get("k") != "end"
            or last.get("records") != count - 2
            or last.get("last_seq") != head["last_seq"]
        ):
            _log.warning(
                "%s: snapshot discarded (damaged or not format %d)",
                self.snapshot_path,
                FORMAT_VERSION,
            )
            return None, 0, True
        return self._snapshot_content(count - 2), head["last_seq"], False

    def _snapshot_content(self, count: int) -> Iterator[dict]:
        with open(self.snapshot_path, "rb") as handle:
            yield from itertools.islice(_RecordReader(handle), 1, 1 + count)

    # -- reading / attaching ------------------------------------------------------

    def attach(self) -> tuple[Iterator[dict] | None, bool, int, int]:
        """Open existing state for recovery: validate the snapshot, walk
        the journal once to find where its clean prefix ends (physically
        truncating any torn tail), and position the sequence counter so
        new appends continue the stream; a journal record of a kind or
        form this broker never writes raises
        :class:`~repro.errors.StateFormatError` before anything is
        truncated.  Returns ``(snapshot_content,
        snapshot_discarded, floor, end)``: the last sequence the snapshot
        folded in and the journal's clean length, which
        :meth:`journal_tail` takes to read the records to replay."""
        snapshot, floor, discarded = self.load_snapshot()
        seq = floor
        end = 0
        try:
            handle = open(self.journal_path, "rb")
        except OSError:
            pass
        else:
            with handle:
                reader = _RecordReader(handle)
                previous = None
                for record in reader:
                    malformed = _malformed(record, _JOURNAL_FORMS, previous)
                    if malformed:
                        where = f"journal record i={record.get('i')}"
                        _log.warning("%s: %s refused: %s", self.journal_path, where, malformed)
                        raise StateFormatError(
                            f"{where} {malformed}, which this broker does not write"
                        )
                    seq = max(seq, record.get("i", 0))
                    previous = record
            if reader.torn:
                with open(self.journal_path, "r+b") as handle:
                    dropped = handle.seek(0, os.SEEK_END) - reader.clean_length
                    handle.truncate(reader.clean_length)
                self.stats.torn_tail_truncations += 1
                _log.warning(
                    "%s: torn tail truncated, %d bytes dropped", self.journal_path, dropped
                )
            end = reader.clean_length
        self._seq = seq
        return snapshot, discarded, floor, end

    def journal_tail(self, floor: int, end: int) -> Iterator[dict]:
        """The journal records recovery replays, streamed from the file:
        those with a sequence above *floor* (the snapshot has not folded
        them in) within the first *end* bytes — where the journal ended
        at :meth:`attach`; recovery's own re-sends append acks beyond
        that point while this is being read."""
        if not end:
            return
        with open(self.journal_path, "rb") as handle:
            for record in _RecordReader(handle, limit=end):
                if record.get("i", 0) > floor:
                    yield record

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def _register_client(broker: "Broker", record: dict) -> None:
    """Apply one ``client`` record (snapshot content or journal)."""
    broker.registry.register(
        record["name"],
        kind=ClientKind(record["kind"]),
        addresses=tuple((t, a) for t, a in record["addr"]),
        client_id=record["id"],
    )


def _replay(broker: "Broker", record: dict, owners: dict, stats: DurabilityStats) -> None:
    """Apply one journaled operation through the broker's normal path;
    *owners* follows the live subscriptions.  An operation that failed
    live (or only half-applied before the crash) fails the same way
    here and is skipped, counted in ``replay_skips``; a journal that
    fails (:class:`~repro.errors.DurabilityError`, a simulated crash
    among them) stops recovery."""
    kind = record["k"]
    try:
        if kind == "client":
            _register_client(broker, record)
        elif kind == "remove":
            broker.remove_client(record["id"])
        elif kind == "sub":
            bound = broker.subscribe(record["cid"], _decode_subscription(record))
            owners[bound.sub_id] = bound
        elif kind == "unsub":
            broker.unsubscribe(record["sid"])
            owners.pop(record["sid"], None)
        elif kind == "config":
            broker.engine.reconfigure(SemanticConfig(**record["cfg"]))
        else:  # pub
            broker.publish(record["cid"], _decode_event(record))
    except DurabilityError:
        raise  # the journal itself failed: recovery stops here
    except ReproError:
        stats.replay_skips += 1


def recover(
    directory: str | os.PathLike,
    kb: "KnowledgeBase",
    *,
    broker_factory: Callable | None = None,
    snapshot_every: int = 1000,
    fsync: bool = False,
    **broker_kwargs,
) -> "Broker":
    """Rebuild a broker from the durable state in *directory*.

    The snapshot restores the compacted baseline (clients,
    subscriptions, configuration, and the retained deliveries as
    ``outs`` / ``close`` records); the journal tail is then read once,
    in order, as record groups — an operation record and the ``outs`` /
    ``close`` / ``acks`` records appended before the next one.  Churn
    replays *through the normal broker paths* (``subscribe`` /
    ``unsubscribe``, so a sharded engine re-routes and re-indexes
    exactly as live traffic would); each delivery record, the
    snapshot's and the tail's alike, goes to
    :meth:`~repro.broker.notifications.NotificationEngine.adopt`, an
    ``outs`` with its ``close``: rows join their logs, closed and acked
    ones settled (the tail's in ``dedup_drops``).  A publish is decided
    again through ``publish`` only when it is the last group and has no
    ``outs`` — the one publication a crash can have cut.  What is still
    pending at the end is re-sent (``replayed_deliveries``).  Journaled records that failed
    to apply live (e.g. a rejected subscribe) fail identically on
    replay and are skipped, which also covers a partially-applied final
    record; a journal failure during recovery (a crash among them)
    stops it.  An empty directory
    recovers to a fresh durable broker.  A step that raises — e.g.
    :class:`~repro.errors.StateFormatError` for a delivery-log row this
    broker never writes — closes the broker it built first.

    *broker_factory* defaults to :class:`~repro.broker.broker.Broker`;
    pass e.g. ``lambda kb, **kw: ShardedBroker(kb, shards=4, **kw)`` to
    recover into a sharded deployment.  Non-journaled construction
    parameters (matcher, initial config, shard count) are the caller's
    to repeat via the factory / *broker_kwargs*.

    Returns the broker, with a :class:`RecoveryReport` attached as
    ``broker.recovery``.
    """
    from repro.broker.broker import Broker

    durability = Durability(directory, snapshot_every=snapshot_every, fsync=fsync)
    snapshot, snapshot_discarded, floor, end = durability.attach()
    report = RecoveryReport(
        snapshot_loaded=snapshot is not None,
        snapshot_discarded=snapshot_discarded,
        torn_tail_truncations=durability.stats.torn_tail_truncations,
    )
    durability.replay_active = True
    factory = broker_factory if broker_factory is not None else Broker
    broker = factory(kb, durability=durability, **broker_kwargs)
    try:
        # 1. the compacted baseline, one validated record at a time (the
        #    stream's order — configuration, clients, subscriptions,
        #    delivery records — is the order they must be applied in); a
        #    delivery row's client and text are its subscription's, and
        #    what the snapshot's records settle is not the tail's count
        owners: dict[str, Subscription] = {}
        for record, close in _with_close(snapshot or ()):
            kind = record["k"]
            if kind == "broker":
                if record["config"] is not None:
                    broker.engine.reconfigure(SemanticConfig(**record["config"]))
                broker._op_index = record["next_op_index"]
            elif kind == "client":
                _register_client(broker, record)
            elif kind == "sub":
                bound = broker.dispatcher.subscribe(record["cid"], _decode_subscription(record))
                owners[bound.sub_id] = bound
            else:  # outs (with its close) / frontier / notifier
                broker.notifier.adopt(record, owners, close)

        # 2. the journal tail, once, in order: each operation through the
        #    normal paths, each outs (with its close) / acks record into
        #    the delivery logs with the subscriptions live at that point.
        #    A publication is not decided again: its outs say what it
        #    delivered, and one without outs delivered nothing — unless it
        #    is the tail's last record group, where the crash may have cut it
        cut = None
        for record, close in _with_close(durability.journal_tail(floor, end)):
            kind = record["k"]
            if kind == "outs" or kind == "acks":
                if kind == "outs":
                    cut = None
                durability.stats.dedup_drops += broker.notifier.adopt(record, owners, close)
                continue
            cut = record if kind == "pub" else None
            report.records_replayed += 1
            broker._op_index = max(broker._op_index, record["oi"] + 1)
            if kind != "pub":
                _replay(broker, record, owners, durability.stats)
        if cut is not None:
            sent = broker.notifier.stats.notifications
            _replay(broker, cut, owners, durability.stats)
            durability.stats.replayed_deliveries += broker.notifier.stats.notifications - sent

        # 3. what the tail left pending is re-sent from its stored text
        broker.notifier.finish_replay(broker.registry)
    except BaseException:
        # a step that raises leaves no journal handle or worker behind
        broker.close()
        raise
    finally:
        durability.replay_active = False
    report.replayed_deliveries = durability.stats.replayed_deliveries
    report.dedup_drops = durability.stats.dedup_drops
    report.replay_skips = durability.stats.replay_skips
    report.next_op_index = broker._op_index
    broker.recovery = report
    return broker

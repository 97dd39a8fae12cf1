"""Events (publications): immutable attribute→value maps.

An event is what a publisher injects into the system — the paper's
running example is a job candidate's resume::

    E: (school, Toronto)(degree, PhD)(work_experience, true)(graduation_year, 1990)

Events are immutable so the semantic pipeline can derive *new* events
(synonym-rewritten, generalized, mapped) without aliasing bugs, and
hashable via a canonical signature so the pipeline can deduplicate the
events it derives (Figure 1 runs the hierarchy and mapping stages to a
fixpoint; dedup is what makes the fixpoint finite).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import DuplicateAttributeError, InvalidAttributeError, InvalidValueError
from repro.model.attributes import normalize_attribute
from repro.model.values import (
    Period,
    Value,
    canonical_value_key,
    check_value,
    format_value,
    values_equal,
)

__all__ = ["Event", "EventSignature", "wire_fallback_count"]

#: Hashable canonical identity of an event's content.
EventSignature = frozenset

_event_counter = itertools.count(1)


class Event:
    """An immutable publication.

    Parameters
    ----------
    pairs:
        A mapping or iterable of ``(attribute, value)`` pairs.  Attribute
        names are normalized (see :mod:`repro.model.attributes`); listing
        the same attribute twice with conflicting values raises
        :class:`~repro.errors.DuplicateAttributeError` (repeating an
        identical pair is tolerated).
    event_id:
        Optional stable identifier; auto-assigned (``"e1"``, ``"e2"`` …)
        when omitted.  Identity for dedup purposes is the *signature*,
        not the id — derived events keep fresh ids but may collide on
        signature, which is intended.
    publisher_id:
        Optional id of the publishing client (used by the broker layer).
    """

    __slots__ = ("_pairs", "_signature", "event_id", "publisher_id")

    def __init__(
        self,
        pairs: Mapping[str, Value] | Iterable[tuple[str, Value]] = (),
        *,
        event_id: str | None = None,
        publisher_id: str | None = None,
    ) -> None:
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        normalized: dict[str, Value] = {}
        for raw_name, raw_value in items:
            name = normalize_attribute(raw_name)
            value = check_value(raw_value)
            if name in normalized and not values_equal(normalized[name], value):
                raise DuplicateAttributeError(
                    f"attribute {name!r} given twice with conflicting values "
                    f"{normalized[name]!r} and {value!r}"
                )
            normalized[name] = value
        self._pairs: dict[str, Value] = normalized
        self._signature: EventSignature = frozenset(
            (name, canonical_value_key(value)) for name, value in normalized.items()
        )
        self.event_id = event_id if event_id is not None else f"e{next(_event_counter)}"
        self.publisher_id = publisher_id

    # -- mapping interface -----------------------------------------------

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[str]:
        return iter(self._pairs)

    def __contains__(self, attribute: str) -> bool:
        # exact probe first: stored keys are always normalized, so a
        # hit needs no re-normalization (the matching hot path only
        # ever asks with normalized names)
        if isinstance(attribute, str) and attribute in self._pairs:
            return True
        try:
            return normalize_attribute(attribute) in self._pairs
        except InvalidAttributeError:
            return False

    def __getitem__(self, attribute: str) -> Value:
        try:
            return self._pairs[attribute]
        except KeyError:
            return self._pairs[normalize_attribute(attribute)]

    def get(self, attribute: str, default: Value | None = None) -> Value | None:
        pairs = self._pairs
        if attribute in pairs:
            return pairs[attribute]
        return pairs.get(normalize_attribute(attribute), default)

    def attributes(self) -> tuple[str, ...]:
        """Attribute names in insertion order."""
        return tuple(self._pairs)

    def items(self) -> tuple[tuple[str, Value], ...]:
        return tuple(self._pairs.items())

    # -- identity ----------------------------------------------------------

    @property
    def signature(self) -> EventSignature:
        """Canonical content identity: equal signatures mean the events
        carry semantically identical pairs (``4`` vs ``4.0`` collide)."""
        return self._signature

    def __hash__(self) -> int:
        return hash(self._signature)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._signature == other._signature

    # -- derivation helpers (used by the semantic stages) -------------------

    @classmethod
    def _derived(
        cls, pairs: dict[str, Value], signature: EventSignature, publisher_id: str | None
    ) -> "Event":
        """Internal constructor for derivation helpers whose pairs are
        already normalized/validated (they came out of an existing
        event) and whose signature was maintained incrementally —
        skipping the per-pair re-normalization ``__init__`` performs,
        which dominated the semantic expansion's cost."""
        event = object.__new__(cls)
        event._pairs = pairs
        event._signature = signature
        event.event_id = f"e{next(_event_counter)}"
        event.publisher_id = publisher_id
        return event

    def with_renamed_attributes(self, renames: Mapping[str, str] | Callable[[str], str]) -> "Event":
        """A copy with attributes renamed — the synonym stage's rewrite to
        "root" attributes.  *renames* is either an explicit mapping
        (missing attributes stay put) or a callable applied to every
        attribute.  Two attributes renaming onto the same root must
        agree on their values, otherwise
        :class:`~repro.errors.DuplicateAttributeError` is raised.
        """
        if callable(renames):
            # arbitrary mapper output: full normalization/validation
            new_pairs = [(renames(name), value) for name, value in self._pairs.items()]
            if all(new == old for (new, _), old in zip(new_pairs, self._pairs)):
                return self
            return Event(new_pairs, publisher_id=self.publisher_id)
        table = {normalize_attribute(k): normalize_attribute(v) for k, v in renames.items()}
        if not any(table.get(name, name) != name for name in self._pairs):
            return self
        pairs: dict[str, Value] = {}
        for name, value in self._pairs.items():
            new = table.get(name, name)
            if new in pairs and not values_equal(pairs[new], value):
                raise DuplicateAttributeError(
                    f"attribute {new!r} given twice with conflicting values "
                    f"{pairs[new]!r} and {value!r}"
                )
            pairs[new] = value
        signature = frozenset(
            (name, canonical_value_key(value)) for name, value in pairs.items()
        )
        return Event._derived(pairs, signature, self.publisher_id)

    def with_value(self, attribute: str, value: Value) -> "Event":
        """A copy with one attribute set (added or replaced)."""
        # an attribute that is literally one of our keys is already
        # normalized (keys only ever hold normalized names)
        name = attribute if attribute in self._pairs else normalize_attribute(attribute)
        value = check_value(value)
        pairs = dict(self._pairs)
        new_pair = (name, canonical_value_key(value))
        if name in pairs:
            old_pair = (name, canonical_value_key(pairs[name]))
            signature = (
                self._signature
                if old_pair == new_pair
                else (self._signature - {old_pair}) | {new_pair}
            )
        else:
            signature = self._signature | {new_pair}
        pairs[name] = value
        return Event._derived(pairs, signature, self.publisher_id)

    def with_pairs(self, extra: Mapping[str, Value] | Iterable[tuple[str, Value]]) -> "Event":
        """A copy augmented with *extra* pairs (replacing on collision) —
        how mapping functions attach derived pairs to an event."""
        items = extra.items() if isinstance(extra, Mapping) else extra
        pairs = dict(self._pairs)
        signature = set(self._signature)
        for raw_name, raw_value in items:
            name = raw_name if raw_name in pairs else normalize_attribute(raw_name)
            value = check_value(raw_value)
            if name in pairs:
                signature.discard((name, canonical_value_key(pairs[name])))
            pairs[name] = value
            signature.add((name, canonical_value_key(value)))
        return Event._derived(pairs, frozenset(signature), self.publisher_id)

    def without(self, attribute: str) -> "Event":
        """A copy lacking *attribute* (no-op if absent)."""
        name = normalize_attribute(attribute)
        if name not in self._pairs:
            return self
        pairs = {k: v for k, v in self._pairs.items() if k != name}
        signature = self._signature - {(name, canonical_value_key(self._pairs[name]))}
        return Event._derived(pairs, signature, self.publisher_id)

    # -- wire codec (cross-process shard transport) ---------------------------

    def to_wire(self, table=None) -> tuple:
        """Compact picklable encoding for crossing a process boundary.

        Each value becomes either a bare ``int`` — the ConceptTable
        spelling id, emitted only for construction-time ids any
        same-version table decodes identically (see
        :meth:`~repro.ontology.concept_table.ConceptTable.wire_sid`) —
        or a small tagged tuple fallback: ``("s", text)`` for
        un-interned strings, ``("n", number)``, ``("b", flag)``,
        ``("p", start, end)`` for periods.  Attribute names stay
        strings (they are already normalized, shared, and few).
        :meth:`from_wire` with an equal-content table reconstructs an
        event equal to this one, with id and publisher preserved.
        """
        pairs = []
        for name, value in self._pairs.items():
            if type(value) is str:
                sid = table.wire_sid(value) if table is not None else None
                pairs.append((name, ("s", value)) if sid is None else (name, sid))
            elif value is True or value is False:
                pairs.append((name, ("b", value)))
            elif isinstance(value, (int, float)):
                pairs.append((name, ("n", value)))
            else:
                pairs.append((name, ("p", value.start, value.end)))
        return (self.event_id, self.publisher_id, tuple(pairs))

    @classmethod
    def from_wire(cls, wire: tuple, table=None) -> "Event":
        """Rebuild an event encoded by :meth:`to_wire`.

        Trusts the encoder: attribute names arrive normalized and
        values validated, so this skips ``__init__``'s per-pair work
        (the decode sits on the per-publish worker hot path).  *table*
        must be id-space-compatible with the encoder's (same
        knowledge-base version) whenever the wire carries bare ids.
        """
        event_id, publisher_id, wire_pairs = wire
        pairs: dict[str, Value] = {
            name: _decode_wire_value(token, table) for name, token in wire_pairs
        }
        signature = frozenset(
            (name, canonical_value_key(value)) for name, value in pairs.items()
        )
        event = object.__new__(cls)
        event._pairs = pairs
        event._signature = signature
        event.event_id = event_id
        event.publisher_id = publisher_id
        return event

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Event({self.event_id}: {self.format()})"

    def format(self) -> str:
        """Render in the paper's event notation:
        ``(school, Toronto)(degree, PhD)``."""
        return "".join(f"({name}, {format_value(value)})" for name, value in self._pairs.items())


def _decode_wire_value(token, table) -> Value:
    if type(token) is int:
        if table is None:
            raise InvalidValueError(
                "wire value is an interned spelling id but no concept table was given"
            )
        return table.spelling(token)
    tag = token[0]
    if tag == "s" or tag == "n" or tag == "b":
        return token[1]
    if tag == "p":
        return Period(token[1], token[2])
    raise InvalidValueError(f"unknown wire value tag {tag!r}")


def wire_fallback_count(wire: tuple) -> int:
    """How many values in a :meth:`Event.to_wire` payload missed the
    interned-id fast path — string values shipped as ``("s", …)``
    fallbacks (numbers/booleans/periods are native literals, not
    misses).  The sharded broker surfaces the running total so
    operators can see when traffic outruns the ontology."""
    return sum(1 for _, token in wire[2] if type(token) is tuple and token[0] == "s")

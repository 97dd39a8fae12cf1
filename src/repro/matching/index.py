"""Per-attribute predicate indexes.

The counting algorithm (Aguilera et al. 1999) needs, for one event
attribute-value pair, the set of stored predicates that pair satisfies —
fast.  This module provides that: predicates are decomposed by
attribute, then by operator family, into

* a hash table for equalities (IN members are expanded into it),
* bisect-maintained sorted boundary lists for the four orderings and
  for range lows (one bucket per value type, since cross-type ordering
  is undefined),
* character tries for prefix and (reversed) suffix predicates,
* scan lists for the rare NE/CONTAINS operators,
* a set for EXISTS.

All structures are reference-counted so the same logical predicate
shared by thousands of subscriptions occupies one entry — predicate
sharing is the main memory/speed lever in content-based matching.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterator

from repro.model.attributes import normalize_attribute
from repro.model.events import Event
from repro.model.predicates import Operator, Predicate
from repro.model.values import (
    Period,
    Value,
    canonical_value_key,
    values_equal,
)

__all__ = ["PredicateIndex", "PredicateKey", "SatisfactionCache"]

#: Hashable predicate identity (``Predicate.key``).
PredicateKey = tuple


def _type_bucket(value: Value) -> str | None:
    """Ordering bucket for a value; ``None`` when unorderable (bool)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return "num"
    if isinstance(value, str):
        return "str"
    if isinstance(value, Period):
        return "period"
    return None


def _sort_key(value: Value):
    if isinstance(value, Period):
        return value.sort_key()
    return value


class _Trie:
    """Character trie; terminal nodes carry predicate-key sets."""

    __slots__ = ("children", "terminal")

    def __init__(self) -> None:
        self.children: dict[str, _Trie] = {}
        self.terminal: set[PredicateKey] = set()

    def add(self, text: str, key: PredicateKey) -> None:
        node = self
        for ch in text:
            node = node.children.setdefault(ch, _Trie())
        node.terminal.add(key)

    def discard(self, text: str, key: PredicateKey) -> None:
        # Nodes are not pruned on removal; tries are tiny relative to
        # the subscription table and pruning complicates re-adds.
        node = self
        for ch in text:
            node = node.children.get(ch)  # type: ignore[assignment]
            if node is None:
                return
        node.terminal.discard(key)

    def prefixes_of(self, text: str) -> Iterator[PredicateKey]:
        """Keys of every stored string that is a prefix of *text*
        (includes exact match)."""
        node = self
        yield from node.terminal
        for ch in text:
            node = node.children.get(ch)
            if node is None:
                return
            yield from node.terminal


class _BoundaryList:
    """A sorted multiset of (operand, predicate-key) boundaries with
    bisect lookups.  Duplicated operands across predicates are fine —
    entries are (sort_key, tiebreak, operand, pred_key) tuples."""

    __slots__ = ("_entries", "_tiebreak")

    def __init__(self) -> None:
        self._entries: list[tuple] = []
        self._tiebreak = 0

    def add(self, operand: Value, key: PredicateKey) -> None:
        self._tiebreak += 1
        bisect.insort(self._entries, (_sort_key(operand), self._tiebreak, operand, key))

    def discard(self, operand: Value, key: PredicateKey) -> None:
        sk = _sort_key(operand)
        lo = bisect.bisect_left(self._entries, (sk,))
        for i in range(lo, len(self._entries)):
            entry = self._entries[i]
            if entry[0] != sk:
                break
            if entry[3] == key:
                del self._entries[i]
                return

    def __len__(self) -> int:
        return len(self._entries)

    def keys_leq(self, value: Value) -> Iterator[PredicateKey]:
        """Keys whose operand <= value."""
        hi = bisect.bisect_right(self._entries, (_sort_key(value), float("inf")))
        for i in range(hi):
            yield self._entries[i][3]

    def keys_lt(self, value: Value) -> Iterator[PredicateKey]:
        """Keys whose operand < value."""
        hi = bisect.bisect_left(self._entries, (_sort_key(value),))
        for i in range(hi):
            yield self._entries[i][3]

    def keys_geq(self, value: Value) -> Iterator[PredicateKey]:
        """Keys whose operand >= value."""
        lo = bisect.bisect_left(self._entries, (_sort_key(value),))
        for i in range(lo, len(self._entries)):
            yield self._entries[i][3]

    def keys_gt(self, value: Value) -> Iterator[PredicateKey]:
        """Keys whose operand > value."""
        lo = bisect.bisect_right(self._entries, (_sort_key(value), float("inf")))
        for i in range(lo, len(self._entries)):
            yield self._entries[i][3]

    def entries_low_leq(self, value: Value) -> Iterator[tuple]:
        """Full entries whose operand <= value (for range filtering)."""
        hi = bisect.bisect_right(self._entries, (_sort_key(value), float("inf")))
        for i in range(hi):
            yield self._entries[i]


class _AttributeIndex:
    """All predicate structures for one attribute."""

    __slots__ = (
        "equalities",
        "not_equals",
        "orderings",
        "ranges",
        "prefix_trie",
        "suffix_trie",
        "contains",
        "exists",
    )

    def __init__(self) -> None:
        #: canonical_value_key(operand) -> predicate keys
        self.equalities: dict[object, set[PredicateKey]] = {}
        self.not_equals: dict[PredicateKey, Value] = {}
        # orderings[type_bucket][operator] -> _BoundaryList
        self.orderings: dict[str, dict[Operator, _BoundaryList]] = {}
        # ranges[type_bucket] -> boundary list keyed on the low bound;
        # the high bound is re-checked via the predicate itself.
        self.ranges: dict[str, _BoundaryList] = {}
        self.prefix_trie = _Trie()
        self.suffix_trie = _Trie()
        self.contains: dict[PredicateKey, str] = {}
        self.exists: set[PredicateKey] = set()


class PredicateIndex:
    """Reference-counted index over predicates of many subscriptions.

    EQ operands (and expanded IN members) are stored and probed under
    :func:`~repro.model.values.canonical_value_key` (a plain string is
    its own key), which depends on the value alone: nothing a
    knowledge-base write teaches can move a key, so no installed entry
    ever needs re-keying.
    """

    def __init__(self) -> None:
        self._attributes: dict[str, _AttributeIndex] = {}
        self._refcounts: dict[PredicateKey, int] = {}
        self._predicates: dict[PredicateKey, Predicate] = {}
        self.probes = 0

    def __len__(self) -> int:
        """Number of distinct predicates indexed."""
        return len(self._refcounts)

    def predicate(self, key: PredicateKey) -> Predicate:
        return self._predicates[key]

    # -- maintenance -----------------------------------------------------------

    def add(self, predicate: Predicate) -> PredicateKey:
        """Count one more use of *predicate*; returns its key."""
        key = predicate.key
        count = self._refcounts.get(key, 0)
        self._refcounts[key] = count + 1
        if not count:
            self._predicates[key] = predicate
            attr_index = self._attributes.setdefault(predicate.attribute, _AttributeIndex())
            self._install(attr_index, predicate, key)
        return key

    def discard(self, predicate: Predicate) -> PredicateKey:
        """Count one use of *predicate* less; returns its key."""
        key = predicate.key
        count = self._refcounts.get(key, 0)
        if count > 1:
            self._refcounts[key] = count - 1
        elif count:
            del self._refcounts[key]
            del self._predicates[key]
            attr_index = self._attributes.get(predicate.attribute)
            if attr_index is not None:
                self._uninstall(attr_index, predicate, key)
        return key

    def _install(self, index: _AttributeIndex, predicate: Predicate, key: PredicateKey) -> None:
        op = predicate.operator
        if op is Operator.EQ:
            value_key = canonical_value_key(predicate.operand)  # type: ignore[arg-type]
            index.equalities.setdefault(value_key, set()).add(key)
        elif op is Operator.IN:
            for member in predicate.operand:  # type: ignore[union-attr]
                index.equalities.setdefault(canonical_value_key(member), set()).add(key)
        elif op is Operator.NE:
            index.not_equals[key] = predicate.operand  # type: ignore[assignment]
        elif op.is_ordering:
            bucket = _type_bucket(predicate.operand)  # type: ignore[arg-type]
            if bucket is not None:
                per_op = index.orderings.setdefault(bucket, {})
                boundary = per_op.setdefault(op, _BoundaryList())
                boundary.add(predicate.operand, key)  # type: ignore[arg-type]
        elif op is Operator.RANGE:
            rng = predicate.operand
            bucket = _type_bucket(rng.low)  # type: ignore[union-attr]
            if bucket is not None:
                boundary = index.ranges.setdefault(bucket, _BoundaryList())
                boundary.add(rng.low, key)  # type: ignore[union-attr]
        elif op is Operator.PREFIX:
            index.prefix_trie.add(predicate.operand, key)  # type: ignore[arg-type]
        elif op is Operator.SUFFIX:
            index.suffix_trie.add(predicate.operand[::-1], key)  # type: ignore[index]
        elif op is Operator.CONTAINS:
            index.contains[key] = predicate.operand  # type: ignore[assignment]
        elif op is Operator.EXISTS:
            index.exists.add(key)

    def _uninstall(self, index: _AttributeIndex, predicate: Predicate, key: PredicateKey) -> None:
        op = predicate.operator
        if op is Operator.EQ:
            value_key = canonical_value_key(predicate.operand)  # type: ignore[arg-type]
            bucket_set = index.equalities.get(value_key)
            if bucket_set is not None:
                bucket_set.discard(key)
                if not bucket_set:
                    del index.equalities[value_key]
        elif op is Operator.IN:
            for member in predicate.operand:  # type: ignore[union-attr]
                member_key = canonical_value_key(member)
                bucket_set = index.equalities.get(member_key)
                if bucket_set is not None:
                    bucket_set.discard(key)
                    if not bucket_set:
                        del index.equalities[member_key]
        elif op is Operator.NE:
            index.not_equals.pop(key, None)
        elif op.is_ordering:
            bucket = _type_bucket(predicate.operand)  # type: ignore[arg-type]
            if bucket is not None:
                boundary = index.orderings.get(bucket, {}).get(op)
                if boundary is not None:
                    boundary.discard(predicate.operand, key)  # type: ignore[arg-type]
        elif op is Operator.RANGE:
            rng = predicate.operand
            bucket = _type_bucket(rng.low)  # type: ignore[union-attr]
            if bucket is not None:
                boundary = index.ranges.get(bucket)
                if boundary is not None:
                    boundary.discard(rng.low, key)  # type: ignore[union-attr]
        elif op is Operator.PREFIX:
            index.prefix_trie.discard(predicate.operand, key)  # type: ignore[arg-type]
        elif op is Operator.SUFFIX:
            index.suffix_trie.discard(predicate.operand[::-1], key)  # type: ignore[index]
        elif op is Operator.CONTAINS:
            index.contains.pop(key, None)
        elif op is Operator.EXISTS:
            index.exists.discard(key)

    # -- lookup -------------------------------------------------------------------

    def satisfied(self, attribute: str, value: Value) -> Iterator[PredicateKey]:
        """Keys of every indexed predicate on *attribute* satisfied by
        *value*.  Each key is yielded at most once."""
        index = self._attributes.get(normalize_attribute(attribute))
        if index is None:
            return
        self.probes += 1
        yield from index.exists
        eq_hits = index.equalities.get(canonical_value_key(value))
        if eq_hits:
            yield from eq_hits
        for key, operand in index.not_equals.items():
            if not values_equal(value, operand):
                yield key
        bucket = _type_bucket(value)
        if bucket is not None:
            per_op = index.orderings.get(bucket)
            if per_op:
                boundary = per_op.get(Operator.LE)
                if boundary:
                    yield from boundary.keys_geq(value)  # operand >= value
                boundary = per_op.get(Operator.LT)
                if boundary:
                    yield from boundary.keys_gt(value)  # operand > value
                boundary = per_op.get(Operator.GE)
                if boundary:
                    yield from boundary.keys_leq(value)  # operand <= value
                boundary = per_op.get(Operator.GT)
                if boundary:
                    yield from boundary.keys_lt(value)  # operand < value
            ranges = index.ranges.get(bucket)
            if ranges:
                for entry in ranges.entries_low_leq(value):
                    key = entry[3]
                    if self._predicates[key].evaluate(value):
                        yield key
        if isinstance(value, str):
            yield from index.prefix_trie.prefixes_of(value)
            yield from index.suffix_trie.prefixes_of(value[::-1])
            for key, needle in index.contains.items():
                if needle in value:
                    yield key

    def satisfied_by_event(self, event: Event) -> Iterator[PredicateKey]:
        """Satisfied predicate keys across all of *event*'s pairs.

        A key can be yielded once per satisfying pair; the counting
        matcher relies on each *predicate* matching at most one event
        pair (one attribute carries one value), which holds because
        predicates constrain a single attribute.
        """
        for attribute, value in event.items():
            yield from self.satisfied(attribute, value)


class SatisfactionCache:
    """Cross-publication memo of predicate-satisfaction sets.

    A semantic expansion batch holds many derived events that share
    most of their ``(attribute, value)`` pairs — each sibling differs
    from its parent in one pair — and workload traces then repeat
    those pairs across *publications*.  This cache keys the result of
    :meth:`PredicateIndex.satisfied` (optionally transformed once into
    a matcher-specific payload, e.g. the counting matcher's tuple of
    subscriptions the pair satisfies completely on its attribute) by
    the pair's equality key, so every distinct pair is probed
    exactly once per memo lifetime, not once per batch.

    The transform is an argument of each :meth:`satisfied` call, not
    state of the cache: the counting matcher's transform is its own
    bound method, and a memo its matcher owns that stored it would make
    a reference cycle — one that keeps a dropped matcher, and every
    subscription it indexes, alive until a cyclic collection.  It is
    called only on a miss, and every call within one memo lifetime must
    pass the same transform (a hit returns what the first miss stored).

    Lifetime is owned by the matcher: payloads that embed subscription
    state (the counting matcher's subscription ids) must be dropped via
    :meth:`clear` on subscription churn, and the engine propagates
    knowledge-base version changes the same way.  ``capacity`` bounds
    memory: when the pair table would exceed it, the memo self-clears
    (cheap, and the steady-state working set of real traces is far
    below any sane capacity).

    Pairs are keyed ``(attribute, canonical_value_key(value))``, the
    index's own key.  That is sound because values with one key (``4`` vs
    ``4.0``; a plain string and itself) behave identically under every
    predicate operator — the invariant predicate keys are built on —
    and a ``str`` subclass keys apart from its plain spelling, as
    :func:`~repro.model.values.values_equal` sets it apart.
    """

    __slots__ = (
        "_index",
        "_cache",
        "capacity",
        "hits",
        "misses",
        "invalidations",
    )

    def __init__(self, index: PredicateIndex, *, capacity: int = 65536) -> None:
        self._index = index
        self._cache: dict[tuple, object] = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> int:
        """Drop every memoized pair; returns how many were held."""
        held = len(self._cache)
        if held:
            self._cache.clear()
            self.invalidations += 1
        return held

    def satisfied(
        self,
        attribute: str,
        value: Value,
        transform: Callable[[str, tuple], object] | None = None,
    ):
        """The satisfaction set for one pair, memoized — as *transform*
        made it from the satisfied keys, when given."""
        pair = (attribute, canonical_value_key(value))
        payload = self._cache.get(pair)
        if payload is None:
            self.misses += 1
            keys = tuple(self._index.satisfied(attribute, value))
            payload = keys if transform is None else transform(attribute, keys)
            if len(self._cache) >= self.capacity:
                self.clear()
            self._cache[pair] = payload
        else:
            self.hits += 1
        return payload

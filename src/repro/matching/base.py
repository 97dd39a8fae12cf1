"""The matching-algorithm interface S-ToPSS wraps.

The paper's design goal: "minimize the changes to the algorithms so that
we can take advantage of their already efficient event matching
techniques" (§3.1).  The semantic layer therefore treats a matcher as a
black box with exactly this interface — insert/remove subscriptions,
match one event — and never reaches inside, which is what lets either
shipped implementation (or a user-provided one) slot underneath the
semantic stage unchanged.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import DuplicateSubscriptionError, MatchingError, UnknownSubscriptionError
from repro.matching.stats import MatchStats
from repro.model.events import Event
from repro.model.subscriptions import Subscription

if TYPE_CHECKING:  # avoid a runtime matching <-> core import cycle
    from repro.core.pipeline import PipelineResult
    from repro.core.provenance import Witness

__all__ = [
    "MatchingAlgorithm",
    "register_matcher",
    "create_matcher",
    "matcher_names",
]


class MatchingAlgorithm(abc.ABC):
    """Abstract content-based matcher.

    Implementations must return matches in **insertion order** so that
    results are deterministic and directly comparable across
    algorithms (the property tests assert naive/counting
    equivalence).
    """

    #: Short registry name; subclasses override.
    name = "abstract"

    #: Whether :meth:`match_batch` understands a *factored*
    #: :class:`~repro.core.pipeline.PipelineResult` (free attributes
    #: carried as alternatives beside the core events instead of
    #: multiplied into them).  The engine asks the pipeline for one only
    #: when this is true; every other matcher gets the exhaustive batch.
    accepts_factored = False

    def __init__(self) -> None:
        #: sub_id -> its :meth:`_record`: the engine's one subscription table
        self._subscriptions: dict[str, tuple] = {}
        #: the *seq* a default insert takes; it only grows
        self.next_seq = 0
        self.stats = MatchStats()

    # -- subscription table ----------------------------------------------------

    def insert(self, subscription: Subscription, seq: int | None = None) -> None:
        """Add a subscription at *seq* in match order (default: last); a
        duplicate ``sub_id`` raises :class:`~repro.errors.DuplicateSubscriptionError`."""
        sub_id = subscription.sub_id
        if sub_id in self._subscriptions:
            raise DuplicateSubscriptionError(f"subscription {sub_id!r} already inserted")
        seq = self.next_seq if seq is None else seq
        self.next_seq = max(self.next_seq, seq + 1)
        self._subscriptions[sub_id] = self._record(seq, subscription)
        self.stats.inserts += 1
        self._on_insert(subscription)
        self.invalidate_memo("subscription-churn")

    def remove(self, sub_id: str) -> Subscription:
        """Remove and return a subscription by id; unknown ids raise
        :class:`~repro.errors.UnknownSubscriptionError`."""
        try:
            subscription = self._subscriptions[sub_id][1]
        except KeyError:
            raise UnknownSubscriptionError(f"no subscription {sub_id!r}") from None
        self.stats.removals += 1
        self._on_remove(subscription)
        del self._subscriptions[sub_id]
        self.invalidate_memo("subscription-churn")
        return subscription

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self._subscriptions

    def subscriptions(self) -> Iterator[Subscription]:
        """Iterate stored subscriptions in insertion order."""
        for record in sorted(self._subscriptions.values(), key=lambda record: record[0]):
            yield record[1]

    def get(self, sub_id: str) -> Subscription:
        try:
            return self._subscriptions[sub_id][1]
        except KeyError:
            raise UnknownSubscriptionError(f"no subscription {sub_id!r}") from None

    def sequence(self, sub_id: str) -> int:
        """The place of stored *sub_id* in match order."""
        return self._subscriptions[sub_id][0]

    def clear(self) -> None:
        """Drop every subscription (keeps cumulative stats)."""
        for sub_id in list(self._subscriptions):
            self.remove(sub_id)

    # -- matching -----------------------------------------------------------------

    def match(self, event: Event) -> list[Subscription]:
        """All stored subscriptions satisfied by *event*, in insertion
        order."""
        self.stats.events += 1
        matched = self._match(event)
        self.stats.matches += len(matched)
        matched.sort(key=lambda sub: self._subscriptions[sub.sub_id][0])
        return matched

    def match_ids(self, event: Event) -> list[str]:
        """Convenience: matching subscription ids."""
        return [sub.sub_id for sub in self.match(event)]

    # -- batched matching --------------------------------------------------------

    def match_batch(self, result: "PipelineResult") -> dict[str, tuple[int, "Witness"]]:
        """Match one semantic expansion batch in a single pass.

        Returns, per matched ``sub_id``, the pair ``(generality,
        witness)`` of the *least general* derivation that reached the
        subscription (first derivation wins ties, following the batch's
        discovery order) — exactly the reduction the engine's per-event
        loop used to compute.  The witness is the row's
        :meth:`~repro.core.pipeline.PipelineResult.witness` (or, for a
        factored batch, :meth:`~repro.core.pipeline.PipelineResult.compose`'s).

        The default implementation falls back to one :meth:`match` call
        per row (``result.event(row)`` builds its event), so any
        third-party matcher keeps working unchanged; indexed matchers
        override :meth:`_match_batch` to share per-``(attribute,
        value)`` predicate satisfaction across the batch's rows.
        """
        self.stats.batches += 1
        self.stats.batch_derived += len(result)
        return self._match_batch(result)

    def invalidate_memo(self, reason: str = "external") -> None:
        """Drop any cross-publication memo state this matcher keeps.

        Called with reason ``"subscription-churn"`` after every
        ``insert``/``remove`` and by the engine with ``"kb-version"`` /
        ``"reconfigure"`` (or a ``bump_semantic_epoch`` caller's
        reason) when the semantic layer's inputs move.  A matcher must
        drop every memo entry on any reason, churn included (the
        counting matcher's per-pair payloads embed subscription state).
        The default is a no-op: serial matchers keep no memo.
        """

    def memo_size(self) -> int:
        """Live entry count of the cross-publication memo (0 for
        matchers that keep none).  An observability seam for the churn
        leak tests and the stress-world benchmarks: a refcounted index
        plus a memo that sizes purely by live state must return to its
        pre-storm footprint once a subscriber crowd departs."""
        return 0

    def _match_batch(self, result: "PipelineResult") -> dict[str, tuple[int, "Witness"]]:
        """Serial fallback: full re-match per row."""
        best: dict[str, tuple[int, int]] = {}
        for row, generality in enumerate(result.charges):
            for subscription in self.match(result.event(row)):
                known = best.get(subscription.sub_id)
                if known is None or generality < known[0]:
                    best[subscription.sub_id] = (generality, row)
        # one witness per row, shared by the matches through it
        witnesses = {row: result.witness(row) for row in {row for _, row in best.values()}}
        return {sub_id: (generality, witnesses[row]) for sub_id, (generality, row) in best.items()}

    # -- extension points ------------------------------------------------------------

    @abc.abstractmethod
    def _match(self, event: Event) -> list[Subscription]:
        """Return matching subscriptions in any order (base sorts)."""

    def _record(self, seq: int, subscription: Subscription) -> tuple:
        """Hook: the table row of *subscription*; a matcher may append
        what it derives from it to ``(seq, subscription)``."""
        return (seq, subscription)

    def _on_insert(self, subscription: Subscription) -> None:
        """Hook: index maintenance on insert."""

    def _on_remove(self, subscription: Subscription) -> None:
        """Hook: index maintenance on removal (its record still stored)."""


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], MatchingAlgorithm]] = {}


def register_matcher(name: str, factory: Callable[[], MatchingAlgorithm]) -> None:
    """Register a matcher factory under *name* (used by config files,
    the CLI, and the benchmarks)."""
    if name in _REGISTRY:
        raise MatchingError(f"matcher {name!r} already registered")
    _REGISTRY[name] = factory


def create_matcher(name: str) -> MatchingAlgorithm:
    """Instantiate a registered matcher by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise MatchingError(f"unknown matcher {name!r} (known: {known})") from None
    return factory()


def matcher_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))

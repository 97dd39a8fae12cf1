"""Subscriptions: conjunctions of predicates.

The paper's subscriptions are conjunctive — e.g.::

    S: (university = Toronto) ∧ (degree = PhD) ∧ (professional_experience ≥ 4)

A subscription matches an event when **every** predicate is satisfied by
the event's value for that attribute; events may carry extra attributes
(the resume lists ``graduation_year`` even though no predicate mentions
it).  An attribute absent from the event fails any predicate on it,
including ``NE`` — content-based semantics require the datum to be
present to be constrained.

Subscriptions also carry the reproduction's per-subscriber *tolerance*
knob (``max_generality``), implementing the paper's "restrict the level
of a match generality" idea (§3.2): a subscription with
``max_generality=0`` only accepts syntactic/synonym matches; ``1``
additionally accepts events whose concepts are one specialization step
below the subscribed term; ``None`` accepts any depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import PredicateError
from repro.model.events import Event
from repro.model.predicates import Predicate

__all__ = ["Subscription"]

_sub_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Subscription:
    """An immutable conjunctive subscription.

    Parameters
    ----------
    predicates:
        The conjuncts.  Duplicates (by predicate identity key) are
        collapsed.  An empty subscription is legal and matches every
        event — useful as a firehose tap in tests and demos.
    subscriber_id:
        Id of the subscribing client; the dispatcher routes
        notifications by this.
    sub_id:
        Stable identifier, auto-assigned (``"s1"`` …) when omitted.
    max_generality:
        Per-subscription tolerance bound for concept-hierarchy matches;
        ``None`` = unlimited (see module docstring).
    """

    predicates: tuple[Predicate, ...]
    subscriber_id: str | None = None
    sub_id: str = field(default="")
    max_generality: int | None = None

    def __init__(
        self,
        predicates: Iterable[Predicate] = (),
        *,
        subscriber_id: str | None = None,
        sub_id: str | None = None,
        max_generality: int | None = None,
    ) -> None:
        seen: dict[tuple, Predicate] = {}
        for pred in predicates:
            if not isinstance(pred, Predicate):
                raise PredicateError(
                    f"subscription conjuncts must be Predicate, got {type(pred).__name__}"
                )
            seen.setdefault(pred.key, pred)
        if max_generality is not None and max_generality < 0:
            raise PredicateError("max_generality must be >= 0 or None")
        object.__setattr__(self, "predicates", tuple(seen.values()))
        object.__setattr__(self, "subscriber_id", subscriber_id)
        object.__setattr__(
            self, "sub_id", sub_id if sub_id is not None else f"s{next(_sub_counter)}"
        )
        object.__setattr__(self, "max_generality", max_generality)

    # -- structure -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.predicates)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self.predicates)

    def attributes(self) -> tuple[str, ...]:
        """Distinct constrained attributes, in first-appearance order."""
        seen: dict[str, None] = {}
        for pred in self.predicates:
            seen.setdefault(pred.attribute, None)
        return tuple(seen)

    @property
    def signature(self) -> frozenset:
        """Canonical content identity (ignores ids and tolerance)."""
        return frozenset(pred.key for pred in self.predicates)

    # -- evaluation ------------------------------------------------------------

    def matches(self, event: Event) -> bool:
        """Whether *event* satisfies every conjunct."""
        for pred in self.predicates:
            value = event.get(pred.attribute)
            if pred.attribute not in event:
                return False
            if not pred.evaluate(value):  # type: ignore[arg-type]
                return False
        return True

    # -- derivation (synonym stage) ---------------------------------------------

    def with_renamed_attributes(self, renames: Mapping[str, str]) -> "Subscription":
        """A copy with predicate attributes renamed to their roots.

        Keeps the same ``sub_id``/``subscriber_id`` — the rewritten
        subscription *is* the original subscription as far as routing is
        concerned (Figure 1's "root subscription").
        """
        rewritten = [
            pred.with_attribute(renames.get(pred.attribute, pred.attribute))
            for pred in self.predicates
        ]
        if all(new is old for new, old in zip(rewritten, self.predicates)):
            return self
        return Subscription(
            rewritten,
            subscriber_id=self.subscriber_id,
            sub_id=self.sub_id,
            max_generality=self.max_generality,
        )

    # -- presentation -------------------------------------------------------------

    def format(self) -> str:
        """Render in the paper's notation:
        ``(university = Toronto) and (degree = PhD)``."""
        if not self.predicates:
            return "(true)"
        return " and ".join(str(pred) for pred in self.predicates)

    def __repr__(self) -> str:
        return f"Subscription({self.sub_id}: {self.format()})"

    def __hash__(self) -> int:
        return hash((self.signature, self.sub_id))

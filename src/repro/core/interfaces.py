"""Stage interface and shared instrumentation for the semantic layer.

The three stages of paper §3.1 share a tiny contract: a stage may
*rewrite* an event in place of itself (synonyms do) and may *expand* a
derived event into additional derived events (hierarchy and mapping do).
The pipeline composes them per Figure 1; nothing else in the system
knows stage internals, so applications can add custom stages.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.derivation import expand_alone
from repro.core.provenance import DerivedEvent
from repro.model.events import Event
from repro.model.subscriptions import Subscription

__all__ = ["SemanticStage", "StageStats"]


@dataclass
class StageStats:
    """Mutable per-stage counters (reported by the benchmarks)."""

    events_in: int = 0
    events_out: int = 0
    rewrites: int = 0
    lookups: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, amount: int = 1) -> None:
        self.extra[name] = self.extra.get(name, 0) + amount

    def snapshot(self) -> dict[str, int]:
        data = {
            "events_in": self.events_in,
            "events_out": self.events_out,
            "rewrites": self.rewrites,
            "lookups": self.lookups,
        }
        data.update(self.extra)
        return data

    def reset(self) -> None:
        self.events_in = 0
        self.events_out = 0
        self.rewrites = 0
        self.lookups = 0
        self.extra.clear()


class SemanticStage(abc.ABC):
    """Base class for semantic stages.

    Subclasses override :meth:`rewrite_event` (identity by default)
    and/or :meth:`expand` (empty by default).  Stages must be pure with
    respect to their inputs: they return new objects and never mutate
    events in flight.
    """

    #: Stage identifier used in derivation steps.
    name = "stage"

    #: Whether demand-driven expansion pruning stays sound with this
    #: stage in the pipeline.  The interest closure only models the
    #: built-in stage graph (synonym/hierarchy/mapping), so a custom
    #: stage that derives events the closure cannot predict would make
    #: pruning drop reachable matches; the engine therefore disables
    #: pruning entirely unless every extra stage declares
    #: ``interest_safe = True`` — the safe default for third-party
    #: stages, which keep today's exhaustive behavior.  Declare ``True``
    #: only for stages that consult the interest view bound by
    #: :meth:`bind_interest` (or provably never extend reachability).
    interest_safe = False

    def __init__(self) -> None:
        self.stats = StageStats()
        #: interest view for the current publication (``None`` =
        #: exhaustive); see :meth:`bind_interest`
        self._interest = None

    def begin_publication(self) -> None:
        """Hook: called once by the pipeline before each publication's
        expansion, letting a stage pin per-publication state (the
        hierarchy stage pins the concept-table snapshot here so the
        fixpoint loop doesn't re-validate the knowledge-base version
        per derived event).  The default is a no-op."""

    def end_publication(self) -> None:
        """Hook: called by the pipeline when a publication's expansion
        finishes (including on error), releasing any state pinned by
        :meth:`begin_publication` so later direct ``expand()`` calls
        never observe a stale snapshot.  The default is a no-op."""

    def bind_interest(self, interest) -> None:
        """Hook: receive the engine's live
        :class:`~repro.core.interest.InterestIndex` view for the
        current publication (``None`` = expand exhaustively).  The
        pipeline binds it before the expansion and unbinds it in the
        same ``finally`` that releases :meth:`begin_publication` state.
        The default stores it on ``self._interest``; stages that never
        consult the view keep today's exhaustive behavior."""
        self._interest = interest

    def rewrite_event(self, event: Event) -> tuple[Event, tuple]:
        """Rewrite *event*, returning ``(new_event, derivation_steps)``.

        The default is the identity rewrite.
        """
        return event, ()

    def rewrite_subscription(self, subscription: Subscription) -> Subscription:
        """Rewrite a subscription at insertion time (Figure 1 applies
        only the synonym stage to subscriptions)."""
        return subscription

    def expand(
        self, derived: DerivedEvent, *, generality_budget: int | None = None
    ) -> Iterable[DerivedEvent]:
        """Produce additional derived events from *derived*.

        ``generality_budget`` is the remaining hierarchy distance this
        chain may still climb (``None`` = unbounded); stages that do
        not generalize ignore it.  The input event itself must not be
        re-yielded.  The pipeline builds each row of its derivation
        table into a :class:`~repro.core.provenance.DerivedEvent` for a
        custom stage and reads each candidate back into a row; extend
        *derived* so a candidate keeps its chain (``docs/EXTENDING.md``).
        A built-in stage writes rows (``expand_row``); called directly,
        it answers the candidates of *derived* as objects.
        """
        if getattr(self, "expand_row", None) is None:
            return ()
        return expand_alone(self, derived, generality_budget)

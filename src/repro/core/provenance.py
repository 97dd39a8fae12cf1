"""Match provenance: how a derived event came to exist.

Figure 1 of the paper shows original events spawning "root" events
(synonym stage), "new events from concept hierarchy", and "new events
from mapping functions".  Every derived event here carries its full
derivation chain, which powers

* the tolerance knob — a match's *generality* is the summed hierarchy
  distance along its derivation, and subscriptions can bound it;
* the demonstration UI — "the real power of this scheme is only
  apparent by witnessing how seamlessly unrelated objects end up
  matching" (paper §4), which requires explaining *why* they matched;
* loop control — the mapping stage refuses to re-fire a rule that
  already appears in an event's own derivation chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.events import Event
from repro.model.subscriptions import Subscription

__all__ = [
    "DerivationStep",
    "DerivedEvent",
    "SemanticMatch",
    "subscription_part",
    "event_part",
    "derivation_part",
]

#: Stage identifiers used in derivation steps.
STAGE_SYNONYM = "synonym"
STAGE_HIERARCHY = "hierarchy"
STAGE_MAPPING = "mapping"


@dataclass(frozen=True, slots=True)
class DerivationStep:
    """One semantic transformation applied to an event.

    ``generality`` is the number of generalization levels this step
    climbed in the concept hierarchy (0 for synonym rewrites, value
    canonicalizations, and mapping functions).
    """

    stage: str
    description: str
    attribute: str = ""
    generality: int = 0
    rule: str = ""

    def __str__(self) -> str:
        suffix = ""
        if self.generality:
            plural = "s" if self.generality != 1 else ""
            suffix = f" (+{self.generality} level{plural})"
        return f"[{self.stage}] {self.description}{suffix}"


@dataclass(frozen=True, slots=True)
class DerivedEvent:
    """An event plus the derivation chain that produced it.

    The *original* publication is the chain-less ``DerivedEvent``; each
    semantic stage extends the chain by one step.  Identity for
    pipeline deduplication is the underlying event's signature —
    two different chains reaching the same content are one derived
    event (the cheaper chain is kept).

    ``parent`` is the event this one was expanded from (``None`` for
    the batch root); the pipeline's keep-cheaper adoption and
    :meth:`~repro.core.pipeline.PipelineResult.dag_edges` walk it.  It
    is excluded from equality/hashing — identity remains (event, steps).
    """

    event: Event
    steps: tuple[DerivationStep, ...] = ()
    parent: "DerivedEvent | None" = field(default=None, compare=False, repr=False)
    # computed once: the publish hot path reads it per budget check,
    # batch reduction, and dedup probe (out of equality/repr, which
    # remain (event, steps))
    _generality: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_generality", sum(step.generality for step in self.steps)
        )

    @classmethod
    def original(cls, event: Event) -> "DerivedEvent":
        return cls(event, ())

    @property
    def is_original(self) -> bool:
        return not self.steps

    @property
    def generality(self) -> int:
        """Total hierarchy levels climbed along the derivation."""
        return self._generality

    @property
    def depth(self) -> int:
        """Number of derivation steps applied."""
        return len(self.steps)

    def extend(self, event: Event, step: DerivationStep) -> "DerivedEvent":
        """The derived event obtained by applying one more step; the
        child records this event as its ``parent`` and carries its
        generality forward (one addition, not a re-sum of the chain)."""
        child = object.__new__(DerivedEvent)
        put = object.__setattr__  # the dataclass is frozen
        put(child, "event", event)
        put(child, "steps", self.steps + (step,))
        put(child, "parent", self)
        put(child, "_generality", self._generality + step.generality)
        return child

    def used_rule(self, rule_name: str) -> bool:
        """Whether *rule_name* already fired along this chain."""
        return any(step.rule == rule_name for step in self.steps)

    def explain(self) -> str:
        """Multi-line, human-readable derivation trace."""
        if self.is_original:
            return f"original event {self.event.format()}"
        lines = [f"derived event {self.event.format()} via:"]
        lines.extend(f"  {i + 1}. {step}" for i, step in enumerate(self.steps))
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class SemanticMatch:
    """One (subscription, publication) match produced by the engine.

    ``subscription`` is the subscriber's *original* subscription (not
    the root-rewritten form); ``event`` the original publication;
    ``matched_via`` the derived event the syntactic matcher accepted
    (equal to ``event`` for purely syntactic matches); ``generality``
    the hierarchy distance of that derivation (0 = exact/synonym/
    mapping match).
    """

    subscription: Subscription
    event: Event
    matched_via: DerivedEvent = field(compare=False)
    generality: int = 0

    @property
    def is_semantic(self) -> bool:
        """Whether the semantic stage was necessary for this match."""
        return not self.matched_via.is_original

    def explain(self) -> str:
        """Demo-facing narrative: what matched and why."""
        header = (
            f"subscription {self.subscription.sub_id} "
            f"[{self.subscription.format()}] matched event "
            f"{self.event.event_id} [{self.event.format()}]"
        )
        if not self.is_semantic:
            return header + " — exact syntactic match"
        return header + "\n" + self.matched_via.explain()

    def explain_parts(self) -> tuple[str, str, str]:
        """:meth:`explain` as three strings that concatenate to it,
        split by what each depends on — the subscription, the
        publication, the derivation — so a fan-out renders the second
        once and the others once per distinct subscription and
        derivation instead of once per notification."""
        return (
            subscription_part(self.subscription),
            event_part(self.event),
            derivation_part(self.matched_via),
        )


def subscription_part(subscription: Subscription) -> str:
    """What :meth:`SemanticMatch.explain` says up to the event id: the
    same for every publication the subscription matches."""
    return f"subscription {subscription.sub_id} [{subscription.format()}] matched event "


def event_part(event: Event) -> str:
    """The publication's id and content: the same for every
    subscription one publication matches."""
    return f"{event.event_id} [{event.format()}]"


def derivation_part(matched_via: DerivedEvent) -> str:
    """How the match came about: the same for every subscription that
    accepted the same derived event."""
    if matched_via.is_original:
        return " — exact syntactic match"
    return "\n" + matched_via.explain()
